"""First-order arithmetic formulas: terms, parsing, printing, classification.

The term language has constants 0 and 1, variables, sums and products.
A closed numeral n >= 2, such as a decimal literal, is one `Num` node that
holds its int.  It equals and hashes as its unary spelling 1+1+...+1, and
the printer folds any `+1` run over 0 or 1 back into a decimal, so `3` and
`2+1` denote equal terms.

Each infix operator's token, precedence and associativity are in one
table, `_INFIX`, read by both the reader and the printer.  `~` binds
tighter than any of them; quantifiers and `box` take the smallest
possible scope, so a quantifier body starting with `~` needs parentheses.
"""

import re
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import add, eq as eq_, is_, itemgetter, lt as lt_, mul


class ParseError(Exception):
    """Raised on malformed source text; carries the offending position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnboundVariable(Exception):
    def __init__(self, name):
        super().__init__(f"unbound variable: {name}")
        self.name = name


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Term:
    def __str__(self):
        return print_term(self)


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term

    def __eq__(self, other):
        """Structural: both sides' `+1` runs are peeled, then the counts
        and then the bases are compared."""
        if other.__class__ is not Add and other.__class__ is not Num:
            return NotImplemented
        (a, m), (b, n) = peel(self), peel(other)
        if m != n:
            return False
        if a.__class__ is Add and b.__class__ is Add:
            return (a.left, a.right) == (b.left, b.right)
        return a == b

    def __hash__(self):
        """Agrees with __eq__: a `+1` run hashes as its count."""
        t, steps = peel(self)
        return hash((steps, t.left, t.right) if t.__class__ is Add else (steps, t))


@dataclass(frozen=True, eq=False)
class Num(Term):
    """The closed numeral value >= 2 as one node, built by numeral: it
    peels, compares and hashes as its unary spelling (1+1)+...+1."""
    value: int
    __eq__ = Add.__eq__
    __hash__ = Add.__hash__


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term


def peel(t: Term):
    """(base, k) for t = base+1+...+1 with k `+1` steps, where base does
    not itself end in `+1`: the one loop over a run of `+1` steps, such
    as a numeral's spine.  A Num is One() and its value - 1 steps."""
    k = 0
    while t.__class__ is Add and t.right.__class__ is One:
        t = t.left
        k += 1
    if t.__class__ is Num:
        return One(), k + t.value - 1
    return t, k


@lru_cache(maxsize=4096)
def numeral(n: int) -> Term:
    """Canonical term for n: Zero(), One() or one Num, shared by calls."""
    if n < 0:
        raise ValueError("numerals are naturals")
    if n < 2:
        return One() if n else Zero()
    return Num(n)


def numeral_value(t: Term):
    """The natural n if t is a canonical numeral shape, else None."""
    base, n = peel(t)
    return n + (base.__class__ is One) if base.__class__ in (Zero, One) else None


# ---------------------------------------------------------------------------
# formulas


@dataclass(frozen=True)
class Formula:
    # eval3's and eval2's closures for this node, filled in by _compile
    _compiled: list = field(default=None, init=False, repr=False, compare=False)
    # witness.slot's spine record, checker._decision_cost's exact costs by
    # bounds (never one cut off at a cap) and realizers._effective's by mode
    _spine: tuple = field(default=None, init=False, repr=False, compare=False)
    _costs: dict = field(default=None, init=False, repr=False, compare=False)
    _effective: list = field(default=None, init=False, repr=False, compare=False)

    def __str__(self):
        return print_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    rel: str  # "=" or "<"
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Box(Formula):
    body: Formula


_BINARY = frozenset((And, Or, Implies))
_UNARY = frozenset((Not, Box, Forall, Exists))


def parts(f: Formula) -> tuple:
    """f's immediate subformulas, left to right: the one place that says
    which fields of a node are formulas."""
    cls = f.__class__
    if cls in _BINARY:
        return f.left, f.right
    if cls in _UNARY:
        return (f.body,)
    if cls is Atom:
        return ()
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# syntax: one table of infix operators drives the reader and the printer
#
# Each sort's precedences count up from 0, the loosest.  The reader climbs
# them (Pratt, "Top down operator precedence", 1973).  The printer puts
# an operator's left operand at its precedence and its right one a level
# tighter, the other way round when it is right-associative, and adds
# parentheses where the enclosing level is tighter.  A run of one
# operator is read and printed in a loop.  `~` binds one level tighter
# than every formula operator, a quantifier's or box's body one more.

_INFIX = {  # sort: {class: (token, precedence, right-associative)}
    Formula: {Implies: ("->", 0, True), Or: ("\\/", 1, False), And: ("/\\", 2, False)},
    Term: {Add: ("+", 0, False), Mul: ("*", 1, False)},
}
_NOT = len(_INFIX[Formula])
_BY_TOKEN = {  # the reader's view: each sort's operators by token
    sort: {tok: (cls, prec, right) for cls, (tok, prec, right) in ops.items()}
    for sort, ops in _INFIX.items()
}
_KEYWORDS = {"box", "forall", "exists"}
_SYMBOLS = [tok for ops in _BY_TOKEN.values() for tok in ops] + list("~().=<,AE")

# one token after its blanks (group 1): a symbol (group 2), a decimal
# literal (group 3), a run of characters that start no symbol (group 4),
# whose leading identifier the tokenizer cuts out since re has no class
# for lower case, or any other character (group 5)
_TOKEN = re.compile(r"(\s*)(?:(%s)|(\d+)|([^\s%s]+)|(\S))" % (
    "|".join(map(re.escape, _SYMBOLS)), re.escape("".join(s[0] for s in _SYMBOLS))))


def _tokenize(text):
    tokens, pos = [], 0
    for blank, symbol, literal, run, _ in _TOKEN.findall(text):
        pos += len(blank)
        if literal:
            # read here, where a fault is not rewound: int() refuses digit
            # texts past the interpreter's int-string limit
            try:
                int(literal)
            except ValueError:
                raise ParseError(f"numeral of {len(literal)} digits is too long", pos) from None
        if symbol or literal:
            tokens.append((symbol or "num:" + literal, pos))
            pos += len(symbol or literal)
            continue
        # an identifier: lower case, then lower case, digits and "_"; a
        # run character it cannot take starts no token either
        n = 0
        if run and run[0].islower():
            n = 1
            while n < len(run) and (run[n].islower() or run[n].isdigit() or run[n] == "_"):
                n += 1
        if not run or n < len(run):
            raise ParseError(f"unexpected character {text[pos + n]!r}", pos + n)
        tokens.append((run if run in _KEYWORDS else "id:" + run, pos))
        pos += n
    return tokens + [("eof", len(text))]


class _Parser:
    def __init__(self, tokens, free):
        self.tokens = tokens
        self.pos = 0
        self.names = list(free)  # the variables in scope, innermost binder last

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

    def infix(self, sort, floor=0):
        """Operands of sort, a negation-level formula or a factor, joined
        by its operators of precedence floor or tighter.  A run of one
        operator is read in a loop, each operand a level tighter: a
        left-associative run folds as it is read, a right-associative
        one from its end."""
        ops = _BY_TOKEN[sort]
        left = self.neg() if sort is Formula else self.factor()
        while (op := ops.get(self._peek())) is not None and op[1] >= floor:
            cls, prec, right = op
            self._advance()
            if not right:
                left = cls(left, self.infix(sort, prec + 1))
                continue
            run = [left, self.infix(sort, prec + 1)]
            while ops.get(self._peek()) is op:
                self._advance()
                run.append(self.infix(sort, prec + 1))
            left = reduce(lambda r, l: cls(l, r), reversed(run))
        return left

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
                bound_term = self.infix(Term)
                if name in term_vars(bound_term):
                    raise ParseError(f"bound of {name} mentions {name}", self._here())
            if self._peek() == ".":
                self._advance()
            self.names.append(name)
            body = self.quant()
            self.names.pop()
            binder, guard = (Forall, Implies) if tok in ("A", "forall") else (Exists, And)
            if bound_term is not None:
                body = guard(Atom("<", Var(name), bound_term), body)
            return binder(name, body)
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
            left = self.infix(Term)
            rel = self._peek()
            if rel not in ("=", "<"):
                raise ParseError(f"expected relation, found {rel!r}", self._here())
            self._advance()
            right = self.infix(Term)
            return Atom(rel, left, right)
        except ParseError:
            self.pos = save
        self._expect("(")
        f = self.infix(Formula)
        self._expect(")")
        return f

    def factor(self):
        tok = self._peek()
        if tok.startswith("num:"):
            self._advance()
            return numeral(int(tok[4:]))
        if tok.startswith("id:"):
            name = tok[3:]
            if name not in self.names:
                raise UnboundVariable(name)
            self._advance()
            return Var(name)
        if tok == "(":
            self._advance()
            t = self.infix(Term)
            self._expect(")")
            return t
        raise ParseError(f"expected term, found {tok!r}", self._here())


def _read(text, free, sort):
    p = _Parser(_tokenize(text), free)
    got = p.infix(sort)
    if p._peek() != "eof":
        raise ParseError(f"trailing input {p._peek()!r}", p._here())
    return got


def parse(text: str, free=()) -> Formula:
    """Parse source text into a formula.

    Variables must be bound or listed in `free`.  Raises ParseError on
    syntax errors and UnboundVariable on stray names.
    """
    return _read(text, free, Formula)


def parse_term(text: str, free=()) -> Term:
    return _read(text, free, Term)


def _print_infix(node, op, level, show, pad):
    """node, an op node, printed by show with the whole run of op along
    its associative spine (the left one, or the right one when op is
    right-associative) in one loop.  A `+1` step ends a run: it is
    print_term's peel case."""
    tok, prec, right = op
    cls, operands = node.__class__, []
    while True:
        operand, node = (node.left, node.right) if right else (node.right, node.left)
        operands.append(show(operand, prec + 1))
        if node.__class__ is not cls or peel(node)[1]:
            break
    operands.append(show(node, prec))
    s = f"{pad}{tok}{pad}".join(operands if right else reversed(operands))
    return f"({s})" if level > prec else s


def print_term(t: Term, level=0) -> str:
    base, k = peel(t)
    if base.__class__ is Zero or base.__class__ is One:
        return str(k + (base.__class__ is One))
    if k:
        s = print_term(base) + "+1" * k
        return f"({s})" if level > 0 else s
    if isinstance(t, Var):
        return t.name
    op = _INFIX[Term].get(t.__class__)
    if op is not None:
        return _print_infix(t, op, level, print_term, "")
    raise TypeError(f"not a term: {t!r}")


def _print(f: Formula, level: int) -> str:
    if isinstance(f, Atom):
        return f"{print_term(f.left)}{f.rel}{print_term(f.right)}"
    op = _INFIX[Formula].get(f.__class__)
    if op is not None:
        return _print_infix(f, op, level, _print, " ")
    if isinstance(f, Not):
        # A negation is not a valid quantifier body, so parenthesize there.
        s = f"~{_print(f.body, _NOT)}"
        return f"({s})" if level > _NOT else s
    if isinstance(f, (Forall, Exists)):
        return f"{'A' if isinstance(f, Forall) else 'E'} {f.var}. {_print(f.body, _NOT + 1)}"
    if isinstance(f, Box):
        return f"box {_print(f.body, _NOT + 1)}"
    raise TypeError(f"not a formula: {f!r}")


def print_formula(f: Formula) -> str:
    """Render with minimal parentheses; parse(print_formula(f)) == f."""
    return _print(f, 0)


# ---------------------------------------------------------------------------
# structural helpers


def term_vars(t: Term) -> set:
    """The variables occurring in a term."""
    t = peel(t)[0]
    if isinstance(t, (Zero, One)):
        return set()
    if isinstance(t, Var):
        return {t.name}
    return term_vars(t.left) | term_vars(t.right)


def free_vars(f: Formula) -> set:
    if isinstance(f, Atom):
        return term_vars(f.left) | term_vars(f.right)
    out = set().union(*map(free_vars, parts(f)))
    if isinstance(f, (Forall, Exists)):
        out.discard(f.var)
    return out


def term_subst(t: Term, repl: dict) -> Term:
    """Replace each variable repl maps; t itself when none occurs."""
    base, steps = peel(t)
    if isinstance(base, Var):
        new = repl.get(base.name, base)
    elif isinstance(base, (Add, Mul)):
        left = term_subst(base.left, repl)
        right = term_subst(base.right, repl)
        same = left is base.left and right is base.right
        new = base if same else type(base)(left, right)
    else:
        new = base
    if new is base:
        return t
    for _ in range(steps):
        new = Add(new, One())
    return new


def _subst(f: Formula, repl: dict) -> Formula:
    # simultaneous: an inserted term is never walked again
    if isinstance(f, Atom):
        left = term_subst(f.left, repl)
        right = term_subst(f.right, repl)
        if left is f.left and right is f.right:
            return f
        return Atom(f.rel, left, right)
    binder = isinstance(f, (Forall, Exists))
    if binder and f.var in repl:
        repl = {v: t for v, t in repl.items() if v != f.var}
        if not repl:
            return f
    old = parts(f)
    new = [_subst(g, repl) for g in old]
    if all(map(is_, new, old)):
        return f
    return type(f)(f.var, *new) if binder else type(f)(*new)


def subst_term(f: Formula, var: str, repl: Term) -> Formula:
    """Replace free occurrences of var by a closed term."""
    return _subst(f, {var: repl})


def instantiate(f: Formula, env: dict) -> Formula:
    """Replace each free variable env binds by the numeral of its value.

    One simultaneous pass, and each numeral is one node whatever its
    value; f itself comes back when env touches none of its variables.
    """
    if not env:
        return f
    return _subst(f, {var: numeral(value) for var, value in env.items()})


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
    for k, g in enumerate(parts(f)):
        flip = isinstance(f, Not) or (k == 0 and isinstance(f, Implies))
        _walk_polarity(g, path + (k,), pol != flip, out)


def impl_depth(f: Formula) -> int:
    """Maximum nesting of -> inside antecedents; negations do not count."""
    depths = [impl_depth(g) for g in parts(f)]
    if isinstance(f, Implies):
        depths[0] += 1
    return max(depths, default=0)


def _contains(f, kinds):
    if isinstance(f, kinds):
        return True
    for g in parts(f):
        if _contains(g, kinds):
            return True
    return False


def bounded_pattern(f: Formula):
    """Recognize the expansions of bounded quantifiers.

    Returns (var, bound_term, body) for  E v (v<t /\\ B)  and
    A v (v<t -> B)  with v not in t, else None.
    """
    if (isinstance(f, Exists) and isinstance(f.body, And)) or (
        isinstance(f, Forall) and isinstance(f.body, Implies)
    ):
        g = f.body.left
        if (
            isinstance(g, Atom)
            and g.rel == "<"
            and g.left == Var(f.var)
            and f.var not in term_vars(g.right)
        ):
            return f.var, g.right, f.body.right
    return None


def _decidable_matrix(f) -> bool:
    # no unbounded quantifier, no ->, no box; bounded patterns transparent
    bp = bounded_pattern(f)
    if bp is not None:
        return _decidable_matrix(bp[2])
    return isinstance(f, (Atom, Not, And, Or)) and all(map(_decidable_matrix, parts(f)))


def _sigma03(f) -> bool:
    # strip the unbounded prefix; its word must embed into E* A* E*
    word = []
    g = f
    while True:
        bp = bounded_pattern(g)
        if bp is not None:
            g = bp[2]
        elif isinstance(g, (Exists, Forall)):
            word.append("E" if isinstance(g, Exists) else "A")
            g = g.body
        else:
            break
    if not _decidable_matrix(g):
        return False
    blocks = 1 + sum(a != b for a, b in zip(word, word[1:]))
    # EA and AE both fit inside E A E
    return blocks < 3 or (blocks == 3 and word[0] == "E")


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
#
# Both evaluators run a formula compiled once into nested closures, after
# Feeley & Lapalme, "Using closures for code generation" (1987).  A
# formula closure takes (env, forall_bound, exists_bound): the bounds are
# call arguments, so a node holds at most one closure per mode, memoized
# on the node itself.  env is one dict, copied once on entry; a
# quantifier sets its variable in it and restores the old binding after.
# A term compiles to an int when closed, else to a closure of env that
# reads variables as env[name]; the entry points turn the KeyError of a
# missing name into UnboundVariable.  Evaluation goes left before right;
# eval3 evaluates both sides of a connective and eval2 short-circuits,
# which decides whether and where a missing name raises.
#
# A quantifier tries only the values of its variable at which its body
# can give the binder's stop value, where the body pins them down (the
# one-point rule; Cooper, Presburger quantifier elimination, 1972): an
# atom a*y+r = b*y+s with ints a != b and y-free r, s holds only at the
# exact natural (s-r)/(a-b), and connectives combine their sides' sets.
# Any other body is enumerated.  This is exact in both modes, and runs
# only when env binds the body's other free names, so a missing name
# raises where the enumeration raises it.

TRUE, FALSE, UNKNOWN = True, False, None

_UNSET = object()


# Closure builders for `left op right` with at most one constant side:
# (closure, closure), (closure, constant), (constant, closure).  Written
# out per operator, since an inline operator is faster than a call:
# lifting a constant side to a closure instead made long_streams 8 %
# slower.
_TERM_OPS = {
    Add: (
        lambda left, right: lambda env: left(env) + right(env),
        lambda left, b: lambda env: left(env) + b,
        lambda a, right: lambda env: a + right(env),
    ),
    Mul: (
        lambda left, right: lambda env: left(env) * right(env),
        lambda left, b: lambda env: left(env) * b,
        lambda a, right: lambda env: a * right(env),
    ),
}
_ATOM_OPS = {
    "=": (
        lambda left, right: lambda env, fb, eb: left(env) == right(env),
        lambda left, b: lambda env, fb, eb: left(env) == b,
        lambda a, right: lambda env, fb, eb: a == right(env),
    ),
    "<": (
        lambda left, right: lambda env, fb, eb: left(env) < right(env),
        lambda left, b: lambda env, fb, eb: left(env) < b,
        lambda a, right: lambda env, fb, eb: a < right(env),
    ),
}
_FOLD = {Add: add, Mul: mul, "=": eq_, "<": lt_}


def _binary(key, builders, left, right):
    """left op right as a constant when both sides are, else a closure."""
    if isinstance(left, int):
        if isinstance(right, int):
            return _FOLD[key](left, right)
        return builders[key][2](left, right)
    return builders[key][1 if isinstance(right, int) else 0](left, right)


def _term_code(t):
    """t as an int when it is closed, else a closure env -> int."""
    t, steps = peel(t)
    if isinstance(t, (Zero, One)):
        code = 0 if isinstance(t, Zero) else 1
    elif isinstance(t, Var):
        code = itemgetter(t.name)
    elif isinstance(t, (Add, Mul)):
        code = _binary(type(t), _TERM_OPS, _term_code(t.left), _term_code(t.right))
    else:
        def bad(env):
            raise TypeError(f"not a term: {t!r}")
        return bad
    return _binary(Add, _TERM_OPS, code, steps) if steps else code


def _atom_code(f: Atom):
    rel = "=" if f.rel == "=" else "<"
    run = _binary(rel, _ATOM_OPS, _term_code(f.left), _term_code(f.right))
    if isinstance(run, bool):
        return lambda env, fb, eb: run
    return run


def _coefficient(t, var):
    """a when t = a*var + (a term free of var) for an int a, else None."""
    t = peel(t)[0]
    if isinstance(t, (Zero, One, Var)):
        return int(t == Var(var))
    if not isinstance(t, (Add, Mul)):
        return None
    a, b = _coefficient(t.left, var), _coefficient(t.right, var)
    if a is None or b is None or a and b and isinstance(t, Mul):
        return None
    if isinstance(t, Add) or not (a or b):
        return a + b
    c = _term_code(t.right if a else t.left)  # the factor free of var
    return (a or b) * c if isinstance(c, int) else None


def _candidates(f, var, want):
    """env -> the values of var outside which f never gives want (TRUE
    or FALSE) in either mode, or None when f restricts nothing."""
    if isinstance(f, Not):
        return _candidates(f.body, var, not want)
    if isinstance(f, Atom) and want and f.rel == "=":
        a, b = _coefficient(f.left, var), _coefficient(f.right, var)
        if a is None or b is None or a == b:
            return None
        r, s = (_term_code(term_subst(t, {var: Zero()})) for t in (f.left, f.right))
        diff = _binary(Add, _TERM_OPS, s, _binary(Mul, _TERM_OPS, -1, r))  # s - r

        def solve(env):
            q, m = divmod(diff(env) if callable(diff) else diff, a - b)
            return (q,) if m == 0 and q >= 0 else ()
        return solve
    if not isinstance(f, (And, Or, Implies)):
        return None
    # an implication gives what ~left \/ right gives
    left = _candidates(f.left, var, want != isinstance(f, Implies))
    right = _candidates(f.right, var, want)
    meet = want == isinstance(f, And)  # both sides must give want
    if left is None or right is None:
        return (left or right) if meet else None
    if meet:
        return lambda env: set(left(env)).intersection(right(env))
    return lambda env: (*left(env), *right(env))


def _binder(var, body, stop, fallback, solve, names):
    """A quantifier: body under var = 0, 1, ... up to the bound of its
    kind, returning stop as soon as the body gives it, else fallback.
    When env binds names, only the values solve gives are tried.  var's
    outer binding, if any, is back in env afterwards."""

    def run(env, fb, eb):
        bound = eb if stop else fb
        if solve is not None and env.keys() >= names:
            values = filter(bound.__ge__, solve(env))
        else:
            values = range(bound + 1)
        saved = env.get(var, _UNSET)
        try:
            for k in values:
                env[var] = k
                if body(env, fb, eb) is stop:
                    return stop
            return fallback
        finally:
            if saved is _UNSET:
                env.pop(var, None)
            else:
                env[var] = saved

    return run


def _not3(body):
    def run(env, fb, eb):
        v = body(env, fb, eb)
        return UNKNOWN if v is UNKNOWN else (not v)
    return run


def _box3(body):
    def run(env, fb, eb):
        return FALSE if body(env, fb, eb) is FALSE else UNKNOWN
    return run


def _and3(left, right):
    def run(env, fb, eb):
        a, b = left(env, fb, eb), right(env, fb, eb)
        if a is FALSE or b is FALSE:
            return FALSE
        return TRUE if a is TRUE and b is TRUE else UNKNOWN
    return run


def _or3(left, right):
    def run(env, fb, eb):
        a, b = left(env, fb, eb), right(env, fb, eb)
        if a is TRUE or b is TRUE:
            return TRUE
        return FALSE if a is FALSE and b is FALSE else UNKNOWN
    return run


def _implies3(left, right):
    def run(env, fb, eb):
        a, b = left(env, fb, eb), right(env, fb, eb)
        if a is FALSE or b is TRUE:
            return TRUE
        return FALSE if a is TRUE and b is FALSE else UNKNOWN
    return run


# How a connective combines its parts' closures, for eval3 (True) and
# eval2 (False).  Box in eval2 is its body: over a bounded domain a true
# body always has a mechanical witness.
_CONNECTIVES = {
    True: {Not: _not3, Box: _box3, And: _and3, Or: _or3, Implies: _implies3},
    False: {
        Not: lambda body: lambda env, fb, eb: not body(env, fb, eb),
        Box: lambda body: body,
        And: lambda left, right: (
            lambda env, fb, eb: left(env, fb, eb) and right(env, fb, eb)
        ),
        Or: lambda left, right: (
            lambda env, fb, eb: left(env, fb, eb) or right(env, fb, eb)
        ),
        Implies: lambda left, right: (
            lambda env, fb, eb: (not left(env, fb, eb)) or right(env, fb, eb)
        ),
    },
}


def _compile(f: Formula, three: bool):
    """f's closure for eval3 (three) or eval2, memoized on f per mode."""
    memo = getattr(f, "_compiled", None)
    if memo is not None and memo[three] is not None:
        return memo[three]
    if isinstance(f, Atom):
        run = _atom_code(f)
    elif isinstance(f, (Forall, Exists)):
        # eval3 never confirms a universal nor refutes an existential;
        # eval2 does at the bound
        stop = isinstance(f, Exists)
        solve = _candidates(f.body, f.var, stop)
        names = frozenset(free_vars(f.body) - {f.var}) if solve else ()
        fallback = UNKNOWN if three else not stop
        run = _binder(f.var, _compile(f.body, three), stop, fallback, solve, names)
    else:
        # parts first, so a non-formula raises TypeError, not a KeyError
        # that _run would report as an unbound variable
        compiled = [_compile(g, three) for g in parts(f)]
        run = _CONNECTIVES[three][type(f)](*compiled)
    if memo is None:
        memo = [None, None]  # indexed by mode: [eval2, eval3]
        object.__setattr__(f, "_compiled", memo)
    memo[three] = run
    return run


def eval_term(t: Term, env: dict) -> int:
    """t's value with its variables read from env."""
    code = _term_code(t)
    if isinstance(code, int):
        return code
    try:
        return code(env)
    except KeyError as e:
        raise UnboundVariable(e.args[0]) from None


def _run(f, three, env, forall_bound, exists_bound):
    run = _compile(f, three)
    try:
        return run(dict(env), forall_bound, exists_bound)
    except KeyError as e:
        raise UnboundVariable(e.args[0]) from None


def eval2(f: Formula, env: dict, forall_bound: int, exists_bound: int) -> bool:
    """Classical truth with every quantifier bounded: a universal ranges
    over 0..forall_bound, an existential over 0..exists_bound.

    env binds the free variables to naturals.  Box is read as its body:
    over a bounded domain a true body always has a mechanical witness.
    This is the decision the synthesizer trusts.  Connectives
    short-circuit left to right.  Runs f's compiled closure (see above).
    """
    return _run(f, False, env, forall_bound, exists_bound)


def eval3(f: Formula, env: dict, forall_bound: int, exists_bound: int):
    """Three-valued truth over the naturals with bounded searches.

    TRUE and FALSE are certain; UNKNOWN means the bounded search was not
    conclusive.  A universal claim is never confirmed (only refuted by a
    counterexample within forall_bound); an existential claim is never
    refuted (only confirmed by a value within exists_bound).  Box only
    propagates certain falsity of its body.  Both sides of a connective
    are evaluated, left first.  Runs f's compiled closure (see above).
    """
    return _run(f, True, env, forall_bound, exists_bound)


# convenience constructors used across the package

def eq(left: Term, right: Term) -> Formula:
    return Atom("=", left, right)


def conj_all(parts) -> Formula:
    parts = list(parts)
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
