"""First-order arithmetic formulas: terms, parsing, printing, classification.

The term language has constants 0 and 1, variables, sums and products.
Decimal literals in source text are sugar for left-nested sums of 1, and
the printer folds that canonical shape back into a decimal, so `3` and
`2+1` denote the same term object.

Connective precedence, loosest to tightest: `->` (right associative),
`\\/`, `/\\`, `~`, then quantifiers / `box`, which take the smallest
possible scope.  A quantifier body cannot start with `~` unless
parenthesized.
"""

from dataclasses import dataclass, field


class ParseError(Exception):
    """Raised on malformed source text; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnboundVariable(Exception):
    def __init__(self, name):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class VarNotFree(Exception):
    pass


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Zero(Term):
    def __str__(self):
        return "0"


@dataclass(frozen=True)
class One(Term):
    def __str__(self):
        return "1"


@dataclass(frozen=True)
class Var(Term):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term

    def __str__(self):
        return print_term(self)


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term

    def __str__(self):
        return print_term(self)


def numeral(n: int) -> Term:
    """Canonical term for a natural number: 0, 1, 1+1, (1+1)+1, ..."""
    if n < 0:
        raise ValueError("numerals are naturals")
    if n == 0:
        return Zero()
    t: Term = One()
    for _ in range(n - 1):
        t = Add(t, One())
    return t


def numeral_value(t: Term):
    """The natural n if t is a canonical numeral shape, else None."""
    n = 0
    while isinstance(t, Add) and isinstance(t.right, One):
        n += 1
        t = t.left
    if isinstance(t, Zero):
        return n
    if isinstance(t, One):
        return n + 1
    return None


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class Atom(Formula):
    rel: str  # "=" or "<"
    left: Term
    right: Term

    def __str__(self):
        return print_formula(self)


@dataclass(frozen=True)
class Not(Formula):
    body: Formula

    def __str__(self):
        return print_formula(self)


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return print_formula(self)


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return print_formula(self)


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return print_formula(self)


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula

    def __str__(self):
        return print_formula(self)


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula

    def __str__(self):
        return print_formula(self)


@dataclass(frozen=True)
class Box(Formula):
    body: Formula

    def __str__(self):
        return print_formula(self)


# ---------------------------------------------------------------------------
# tokenizer / parser

_KEYWORDS = {"box", "forall", "exists"}
_PUNCT = ("/\\", "\\/", "->", "~", "(", ")", ".", "=", "<", "+", "*", ",")


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        two = text[i : i + 2]
        if two in ("/\\", "\\/", "->"):
            tokens.append((two, i))
            i += 2
            continue
        if c in "~().=<+*,":
            tokens.append((c, i))
            i += 1
            continue
        if c in "AE":
            tokens.append((c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num:" + text[i:j], i))
            i = j
            continue
        if c.islower():
            j = i
            while j < n and (text[j].islower() or text[j].isdigit() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _KEYWORDS:
                tokens.append((word, i))
            else:
                tokens.append(("id:" + word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("eof", n))
    return tokens


class _Parser:
    def __init__(self, tokens, free):
        self.tokens = tokens
        self.pos = 0
        self.bound = []
        self.free = set(free)

    def _peek(self):
        return self.tokens[self.pos][0]

    def _here(self):
        return self.tokens[self.pos][1]

    def _advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok[0]

    def _expect(self, kind):
        if self._peek() != kind:
            raise ParseError(f"expected {kind!r}, found {self._peek()!r}", self._here())
        return self._advance()

    # formula := imp
    def formula(self):
        return self.imp()

    def imp(self):
        left = self.disj()
        if self._peek() == "->":
            self._advance()
            return Implies(left, self.imp())
        return left

    def disj(self):
        f = self.conj()
        while self._peek() == "\\/":
            self._advance()
            f = Or(f, self.conj())
        return f

    def conj(self):
        f = self.neg()
        while self._peek() == "/\\":
            self._advance()
            f = And(f, self.neg())
        return f

    def neg(self):
        if self._peek() == "~":
            self._advance()
            return Not(self.neg())
        return self.quant()

    def quant(self):
        tok = self._peek()
        if tok in ("A", "E", "forall", "exists"):
            self._advance()
            name = self._ident()
            bound_term = None
            if self._peek() == "<":
                self._advance()
                bound_term = self.term()
                if name in _term_vars(bound_term):
                    raise ParseError(f"bound of {name} mentions {name}", self._here())
            if self._peek() == ".":
                self._advance()
            self.bound.append(name)
            body = self.quant()
            self.bound.pop()
            if tok in ("A", "forall"):
                if bound_term is None:
                    return Forall(name, body)
                return Forall(name, Implies(Atom("<", Var(name), bound_term), body))
            if bound_term is None:
                return Exists(name, body)
            return Exists(name, And(Atom("<", Var(name), bound_term), body))
        if tok == "box":
            self._advance()
            return Box(self.quant())
        return self.atom_or_paren()

    def _ident(self):
        tok = self._peek()
        if not tok.startswith("id:"):
            raise ParseError(f"expected identifier, found {tok!r}", self._here())
        self._advance()
        return tok[3:]

    def atom_or_paren(self):
        # An atom and a parenthesized formula can both start with "(";
        # try the atom reading first and rewind on failure.
        save = self.pos
        try:
            left = self.term()
            rel = self._peek()
            if rel not in ("=", "<"):
                raise ParseError(f"expected relation, found {rel!r}", self._here())
            self._advance()
            right = self.term()
            return Atom(rel, left, right)
        except ParseError:
            self.pos = save
        self._expect("(")
        f = self.formula()
        self._expect(")")
        return f

    # term := summand ("+" summand)*
    def term(self):
        t = self.summand()
        while self._peek() == "+":
            self._advance()
            t = Add(t, self.summand())
        return t

    def summand(self):
        t = self.factor()
        while self._peek() == "*":
            self._advance()
            t = Mul(t, self.factor())
        return t

    def factor(self):
        tok = self._peek()
        if tok.startswith("num:"):
            self._advance()
            return numeral(int(tok[4:]))
        if tok.startswith("id:"):
            name = tok[3:]
            if name not in self.bound and name not in self.free:
                raise UnboundVariable(name)
            self._advance()
            return Var(name)
        if tok == "(":
            self._advance()
            t = self.term()
            self._expect(")")
            return t
        raise ParseError(f"expected term, found {tok!r}", self._here())


def parse(text: str, free=()) -> Formula:
    """Parse source text into a formula.

    Variables must be bound or listed in `free`.  Raises ParseError on
    syntax errors and UnboundVariable on stray names.
    """
    p = _Parser(_tokenize(text), free)
    f = p.formula()
    if p._peek() != "eof":
        raise ParseError(f"trailing input {p._peek()!r}", p._here())
    return f


def parse_term(text: str, free=()) -> Term:
    p = _Parser(_tokenize(text), free)
    p.free = set(free)
    p.bound = list(free)
    t = p.term()
    if p._peek() != "eof":
        raise ParseError(f"trailing input {p._peek()!r}", p._here())
    return t


# ---------------------------------------------------------------------------
# printing

def print_term(t: Term, level=0) -> str:
    # level 0 = sum position, 1 = product position, 2 = factor position
    v = numeral_value(t)
    if v is not None:
        return str(v)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Add):
        s = f"{print_term(t.left, 0)}+{print_term(t.right, 1)}"
        return f"({s})" if level > 0 else s
    if isinstance(t, Mul):
        s = f"{print_term(t.left, 1)}*{print_term(t.right, 2)}"
        return f"({s})" if level > 1 else s
    raise TypeError(f"not a term: {t!r}")


_LVL_IMP, _LVL_OR, _LVL_AND, _LVL_NEG, _LVL_QUANT = 0, 1, 2, 3, 4


def _print(f: Formula, level: int) -> str:
    if isinstance(f, Atom):
        return f"{print_term(f.left)}{f.rel}{print_term(f.right)}"
    if isinstance(f, Implies):
        s = f"{_print(f.left, _LVL_OR)} -> {_print(f.right, _LVL_IMP)}"
        return f"({s})" if level > _LVL_IMP else s
    if isinstance(f, Or):
        s = f"{_print(f.left, _LVL_OR)} \\/ {_print(f.right, _LVL_AND)}"
        return f"({s})" if level > _LVL_OR else s
    if isinstance(f, And):
        s = f"{_print(f.left, _LVL_AND)} /\\ {_print(f.right, _LVL_NEG)}"
        return f"({s})" if level > _LVL_AND else s
    if isinstance(f, Not):
        # A negation is not a valid quantifier body, so parenthesize there.
        s = f"~{_print(f.body, _LVL_NEG)}"
        return f"({s})" if level > _LVL_NEG else s
    if isinstance(f, Forall):
        return f"A {f.var}. {_print(f.body, _LVL_QUANT)}"
    if isinstance(f, Exists):
        return f"E {f.var}. {_print(f.body, _LVL_QUANT)}"
    if isinstance(f, Box):
        return f"box {_print(f.body, _LVL_QUANT)}"
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; parse(print_formula(f)) == f."""
    return _print(f, _LVL_IMP)


# ---------------------------------------------------------------------------
# structural helpers


def _term_vars(t: Term) -> set:
    if isinstance(t, (Zero, One)):
        return set()
    if isinstance(t, Var):
        return {t.name}
    return _term_vars(t.left) | _term_vars(t.right)


def free_vars(f: Formula) -> set:
    if isinstance(f, Atom):
        return _term_vars(f.left) | _term_vars(f.right)
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, Box):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def _subst_term(t: Term, repl: dict) -> Term:
    # returns t itself when nothing was replaced, sparing the rebuild
    if isinstance(t, Var):
        return repl.get(t.name, t)
    if isinstance(t, (Zero, One)):
        return t
    left = _subst_term(t.left, repl)
    right = _subst_term(t.right, repl)
    if left is t.left and right is t.right:
        return t
    return Add(left, right) if isinstance(t, Add) else Mul(left, right)


def _subst(f: Formula, repl: dict) -> Formula:
    # simultaneous: an inserted term is never walked again
    if isinstance(f, Atom):
        left = _subst_term(f.left, repl)
        right = _subst_term(f.right, repl)
        if left is f.left and right is f.right:
            return f
        return Atom(f.rel, left, right)
    if isinstance(f, (Not, Box)):
        body = _subst(f.body, repl)
        return f if body is f.body else type(f)(body)
    if isinstance(f, (And, Or, Implies)):
        left = _subst(f.left, repl)
        right = _subst(f.right, repl)
        if left is f.left and right is f.right:
            return f
        return type(f)(left, right)
    if isinstance(f, (Forall, Exists)):
        if f.var in repl:
            repl = {v: t for v, t in repl.items() if v != f.var}
            if not repl:
                return f
        body = _subst(f.body, repl)
        return f if body is f.body else type(f)(f.var, body)
    raise TypeError(f"not a formula: {f!r}")


def subst_term(f: Formula, var: str, repl: Term) -> Formula:
    """Replace free occurrences of var by a closed term."""
    return _subst(f, {var: repl})


def instantiate(f: Formula, env: dict) -> Formula:
    """Replace each free variable env binds by the numeral of its value.

    One simultaneous pass, so a large numeral is built once and never
    walked; f itself comes back when env touches none of its variables.
    """
    if not env:
        return f
    return _subst(f, {var: numeral(value) for var, value in env.items()})


def substitute(f: Formula, var: str, n: int) -> Formula:
    """Substitute the numeral for n at every free occurrence of var.

    Raises VarNotFree when var has no free occurrence (guards against
    silently dropped instantiations).
    """
    if var not in free_vars(f):
        raise VarNotFree(f"{var} is not free in {print_formula(f)}")
    return subst_term(f, var, numeral(n))


# ---------------------------------------------------------------------------
# classification

POSITIVE = "positive"
NEGATIVE = "negative"


@dataclass(frozen=True)
class Classification:
    is_arithmetical: bool
    implication_free: bool
    exists_free: bool
    impl_nesting_depth: int
    sigma03_shape: bool
    occurrence_polarity: dict = field(compare=False)


def _walk_polarity(f, path, pol, out):
    out[path] = POSITIVE if pol else NEGATIVE
    if isinstance(f, Atom):
        return
    if isinstance(f, (Not,)):
        _walk_polarity(f.body, path + (0,), not pol, out)
    elif isinstance(f, Box):
        _walk_polarity(f.body, path + (0,), pol, out)
    elif isinstance(f, Implies):
        _walk_polarity(f.left, path + (0,), not pol, out)
        _walk_polarity(f.right, path + (1,), pol, out)
    elif isinstance(f, (And, Or)):
        _walk_polarity(f.left, path + (0,), pol, out)
        _walk_polarity(f.right, path + (1,), pol, out)
    elif isinstance(f, (Forall, Exists)):
        _walk_polarity(f.body, path + (0,), pol, out)


def impl_depth(f: Formula) -> int:
    """Maximum nesting of -> inside antecedents; negations do not count."""
    if isinstance(f, Atom):
        return 0
    if isinstance(f, (Not, Box, Forall, Exists)):
        return impl_depth(f.body)
    if isinstance(f, (And, Or)):
        return max(impl_depth(f.left), impl_depth(f.right))
    if isinstance(f, Implies):
        return max(impl_depth(f.left) + 1, impl_depth(f.right))
    raise TypeError(f"not a formula: {f!r}")


def _contains(f, kinds):
    if isinstance(f, kinds):
        return True
    if isinstance(f, Atom):
        return False
    if isinstance(f, (Not, Box, Forall, Exists)):
        return _contains(f.body, kinds)
    return _contains(f.left, kinds) or _contains(f.right, kinds)


def bounded_pattern(f: Formula):
    """Recognize the expansions of bounded quantifiers.

    Returns (var, bound_term, body) for  E v (v<t /\\ B)  and
    A v (v<t -> B)  with v not in t, else None.
    """
    if isinstance(f, Exists) and isinstance(f.body, And):
        g = f.body.left
        if (
            isinstance(g, Atom)
            and g.rel == "<"
            and g.left == Var(f.var)
            and f.var not in _term_vars(g.right)
        ):
            return f.var, g.right, f.body.right
    if isinstance(f, Forall) and isinstance(f.body, Implies):
        g = f.body.left
        if (
            isinstance(g, Atom)
            and g.rel == "<"
            and g.left == Var(f.var)
            and f.var not in _term_vars(g.right)
        ):
            return f.var, g.right, f.body.right
    return None


def _decidable_matrix(f) -> bool:
    # no unbounded quantifier, no ->, no box; bounded patterns transparent
    if isinstance(f, Atom):
        return True
    bp = bounded_pattern(f)
    if bp is not None:
        return _decidable_matrix(bp[2])
    if isinstance(f, Not):
        return _decidable_matrix(f.body)
    if isinstance(f, (And, Or)):
        return _decidable_matrix(f.left) and _decidable_matrix(f.right)
    return False


def _sigma03(f) -> bool:
    # strip the unbounded prefix; its word must embed into E* A* E*
    word = []
    g = f
    while True:
        bp = bounded_pattern(g)
        if bp is not None:
            g = bp[2]
            continue
        if isinstance(g, Exists):
            word.append("E")
            g = g.body
            continue
        if isinstance(g, Forall):
            word.append("A")
            g = g.body
            continue
        break
    if not _decidable_matrix(g):
        return False
    blocks = 1
    for a, b in zip(word, word[1:]):
        if a != b:
            blocks += 1
    if blocks > 3:
        return False
    if blocks == 3:
        return word[0] == "E"
    if blocks == 2:
        return True  # EA, AE both fit inside E A E
    return True


def classify(f: Formula) -> Classification:
    """Structural classification used by the checker and the games."""
    pol: dict = {}
    _walk_polarity(f, (), True, pol)
    return Classification(
        is_arithmetical=not _contains(f, Box),
        implication_free=not _contains(f, Implies),
        exists_free=not _contains(f, Exists),
        impl_nesting_depth=impl_depth(f),
        sigma03_shape=_sigma03(f),
        occurrence_polarity=pol,
    )


# ---------------------------------------------------------------------------
# evaluation

TRUE, FALSE, UNKNOWN = True, False, None


def eval_term(t: Term, env: dict) -> int:
    if isinstance(t, Zero):
        return 0
    if isinstance(t, One):
        return 1
    if isinstance(t, Var):
        if t.name not in env:
            raise UnboundVariable(t.name)
        return env[t.name]
    if isinstance(t, Add):
        return eval_term(t.left, env) + eval_term(t.right, env)
    if isinstance(t, Mul):
        return eval_term(t.left, env) * eval_term(t.right, env)
    raise TypeError(f"not a term: {t!r}")


def eval_bool(f: Formula, env: dict, domain: int) -> bool:
    """Exact truth over the finite domain {0..domain-1}.

    Box is read as its body here: over a decidable bounded domain a true
    body always has a mechanical witness at this scale.
    """
    if isinstance(f, Atom):
        a, b = eval_term(f.left, env), eval_term(f.right, env)
        return a == b if f.rel == "=" else a < b
    if isinstance(f, Not):
        return not eval_bool(f.body, env, domain)
    if isinstance(f, Box):
        return eval_bool(f.body, env, domain)
    if isinstance(f, And):
        return eval_bool(f.left, env, domain) and eval_bool(f.right, env, domain)
    if isinstance(f, Or):
        return eval_bool(f.left, env, domain) or eval_bool(f.right, env, domain)
    if isinstance(f, Implies):
        return (not eval_bool(f.left, env, domain)) or eval_bool(f.right, env, domain)
    if isinstance(f, Forall):
        return all(eval_bool(f.body, {**env, f.var: k}, domain) for k in range(domain))
    if isinstance(f, Exists):
        return any(eval_bool(f.body, {**env, f.var: k}, domain) for k in range(domain))
    raise TypeError(f"not a formula: {f!r}")


def eval3(f: Formula, env: dict, forall_bound: int, exists_bound: int):
    """Three-valued truth over the naturals with bounded searches.

    TRUE and FALSE are certain; UNKNOWN means the bounded search was not
    conclusive.  A universal claim is never confirmed (only refuted by a
    counterexample within forall_bound); an existential claim is never
    refuted (only confirmed by a value within exists_bound).  Box only
    propagates certain falsity of its body.
    """
    if isinstance(f, Atom):
        a, b = eval_term(f.left, env), eval_term(f.right, env)
        return a == b if f.rel == "=" else a < b
    if isinstance(f, Not):
        v = eval3(f.body, env, forall_bound, exists_bound)
        return UNKNOWN if v is UNKNOWN else (not v)
    if isinstance(f, Box):
        v = eval3(f.body, env, forall_bound, exists_bound)
        return FALSE if v is FALSE else UNKNOWN
    if isinstance(f, And):
        a = eval3(f.left, env, forall_bound, exists_bound)
        b = eval3(f.right, env, forall_bound, exists_bound)
        if a is FALSE or b is FALSE:
            return FALSE
        if a is TRUE and b is TRUE:
            return TRUE
        return UNKNOWN
    if isinstance(f, Or):
        a = eval3(f.left, env, forall_bound, exists_bound)
        b = eval3(f.right, env, forall_bound, exists_bound)
        if a is TRUE or b is TRUE:
            return TRUE
        if a is FALSE and b is FALSE:
            return FALSE
        return UNKNOWN
    if isinstance(f, Implies):
        a = eval3(f.left, env, forall_bound, exists_bound)
        b = eval3(f.right, env, forall_bound, exists_bound)
        if a is FALSE or b is TRUE:
            return TRUE
        if a is TRUE and b is FALSE:
            return FALSE
        return UNKNOWN
    if isinstance(f, Forall):
        for k in range(forall_bound + 1):
            v = eval3(f.body, {**env, f.var: k}, forall_bound, exists_bound)
            if v is FALSE:
                return FALSE
        return UNKNOWN  # never confirmed over the naturals
    if isinstance(f, Exists):
        for k in range(exists_bound + 1):
            v = eval3(f.body, {**env, f.var: k}, forall_bound, exists_bound)
            if v is TRUE:
                return TRUE
        return UNKNOWN
    raise TypeError(f"not a formula: {f!r}")


# convenience constructors used across the package

def forall(var, body) -> Formula:
    return Forall(var, body)


def exists(var, body) -> Formula:
    return Exists(var, body)


def eq(left: Term, right: Term) -> Formula:
    return Atom("=", left, right)


def lt(left: Term, right: Term) -> Formula:
    return Atom("<", left, right)


def conj_all(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return eq(Zero(), Zero())
    f = parts[0]
    for p in parts[1:]:
        f = And(f, p)
    return f


def disj_all(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return eq(Zero(), One())
    f = parts[0]
    for p in parts[1:]:
        f = Or(f, p)
    return f
