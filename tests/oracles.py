"""Independent reference implementations the suite trusts.

Everything here judges by direct recursion over finite structures:
no streams, no budgets, no shared logic with the package beyond the
AST constructors themselves.  Expected values frozen in tests come
from these functions, written before the assertions that use them.
"""

import itertools

from ctruth.formula import (
    Add,
    And,
    Atom,
    Box,
    Exists,
    Forall,
    Implies,
    Mul,
    Not,
    One,
    Or,
    Var,
    Zero,
)
from ctruth.witness import (
    IOPair,
    Numeral,
    Prefix,
    Selector,
    ShapeMismatch,
    TRIVIAL,
    WS,
    Whitespace,
    WitnessStream,
    WitnessTextError,
    is_pair,
)
from ctruth.vm import VMError, cantor, decode_item, encode_item, uncantor


# ---------------------------------------------------------------------------
# classical truth over a finite domain


def term_value(t, env):
    if isinstance(t, Zero):
        return 0
    if isinstance(t, One):
        return 1
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Add):
        return term_value(t.left, env) + term_value(t.right, env)
    if isinstance(t, Mul):
        return term_value(t.left, env) * term_value(t.right, env)
    raise TypeError(t)


def holds(f, env, domain):
    """Truth with quantifiers relativized to the finite domain."""
    if isinstance(f, Atom):
        a, b = term_value(f.left, env), term_value(f.right, env)
        return a == b if f.rel == "=" else a < b
    if isinstance(f, Not):
        return not holds(f.body, env, domain)
    if isinstance(f, Box):
        return holds(f.body, env, domain)
    if isinstance(f, And):
        return holds(f.left, env, domain) and holds(f.right, env, domain)
    if isinstance(f, Or):
        return holds(f.left, env, domain) or holds(f.right, env, domain)
    if isinstance(f, Implies):
        return (not holds(f.left, env, domain)) or holds(f.right, env, domain)
    if isinstance(f, Forall):
        return all(holds(f.body, {**env, f.var: n}, domain) for n in domain)
    if isinstance(f, Exists):
        return any(holds(f.body, {**env, f.var: n}, domain) for n in domain)
    raise TypeError(f)


def eval3(f, env, forall_bound, exists_bound):
    """Three-valued truth with bounded searches: True and False are
    certain, None is inconclusive.  A universal is only ever refuted,
    an existential only ever confirmed, and box only passes on its
    body's certain falsity.  Both sides of a connective are evaluated."""
    def ev(g, env):
        return eval3(g, env, forall_bound, exists_bound)

    if isinstance(f, Atom):
        a, b = term_value(f.left, env), term_value(f.right, env)
        return a == b if f.rel == "=" else a < b
    if isinstance(f, Not):
        v = ev(f.body, env)
        return None if v is None else (not v)
    if isinstance(f, Box):
        return False if ev(f.body, env) is False else None
    if isinstance(f, And):
        a, b = ev(f.left, env), ev(f.right, env)
        if a is False or b is False:
            return False
        return True if a is True and b is True else None
    if isinstance(f, Or):
        a, b = ev(f.left, env), ev(f.right, env)
        if a is True or b is True:
            return True
        return False if a is False and b is False else None
    if isinstance(f, Implies):
        a, b = ev(f.left, env), ev(f.right, env)
        if a is False or b is True:
            return True
        return False if a is True and b is False else None
    if isinstance(f, Forall):
        for n in range(forall_bound + 1):
            if ev(f.body, {**env, f.var: n}) is False:
                return False
        return None
    if isinstance(f, Exists):
        for n in range(exists_bound + 1):
            if ev(f.body, {**env, f.var: n}) is True:
                return True
        return None
    raise TypeError(f)


# ---------------------------------------------------------------------------
# witness tables: every total answer strategy over a finite domain
#
# A table mirrors the formula: Forall maps each domain element to a
# subtable, Exists is a (value, subtable) choice, And carries both
# sides, Or carries (side, subtable), leaves are None.  Leaves are the
# decidable parts; their truth is settled by `holds` alone.


def all_tables(f, domain, out_range):
    if isinstance(f, (Atom, Not)):
        return [None]
    if isinstance(f, Forall):
        rows = [all_tables(subst(f.body, f.var, n), domain, out_range) for n in domain]
        return [dict(zip(domain, combo)) for combo in itertools.product(*rows)]
    if isinstance(f, Exists):
        out = []
        for n in out_range:
            for sub in all_tables(subst(f.body, f.var, n), domain, out_range):
                out.append((n, sub))
        return out
    if isinstance(f, And):
        return [
            (ta, tb)
            for ta in all_tables(f.left, domain, out_range)
            for tb in all_tables(f.right, domain, out_range)
        ]
    if isinstance(f, Or):
        out = []
        for side, g in ((0, f.left), (1, f.right)):
            for sub in all_tables(g, domain, out_range):
                out.append((side, sub))
        return out
    raise TypeError(f)


def subst(f, var, value):
    """Substitute a literal number, building the unary numeral."""
    t = numeral_term(value)

    def in_term(u):
        if isinstance(u, Var) and u.name == var:
            return t
        if isinstance(u, Add):
            return Add(in_term(u.left), in_term(u.right))
        if isinstance(u, Mul):
            return Mul(in_term(u.left), in_term(u.right))
        return u

    if isinstance(f, Atom):
        return Atom(f.rel, in_term(f.left), in_term(f.right))
    if isinstance(f, Not):
        return Not(subst(f.body, var, value))
    if isinstance(f, Box):
        return Box(subst(f.body, var, value))
    if isinstance(f, And):
        return And(subst(f.left, var, value), subst(f.right, var, value))
    if isinstance(f, Or):
        return Or(subst(f.left, var, value), subst(f.right, var, value))
    if isinstance(f, Implies):
        return Implies(subst(f.left, var, value), subst(f.right, var, value))
    if isinstance(f, (Forall, Exists)):
        if f.var == var:
            return f
        return type(f)(f.var, subst(f.body, var, value))
    raise TypeError(f)


def numeral_term(n):
    if n == 0:
        return Zero()
    t = One()
    for _ in range(n - 1):
        t = Add(t, One())
    return t


def table_correct(f, table, domain):
    """Does the table answer every demand with true content?"""
    if isinstance(f, (Atom, Not)):
        return holds(f, {}, domain)
    if isinstance(f, Forall):
        return all(
            table_correct(subst(f.body, f.var, n), table[n], domain) for n in domain
        )
    if isinstance(f, Exists):
        n, sub = table
        return table_correct(subst(f.body, f.var, n), sub, domain)
    if isinstance(f, And):
        ta, tb = table
        return table_correct(f.left, ta, domain) and table_correct(f.right, tb, domain)
    if isinstance(f, Or):
        side, sub = table
        return table_correct(f.left if side == 0 else f.right, sub, domain)
    raise TypeError(f)


def render_table(f, table, domain):
    """Flatten a table into witness items, one pair per demand path."""
    paths = _paths(f, table, domain)
    items = []
    if isinstance(f, (Forall, And)) or not paths:
        items.append(TRIVIAL)
    if paths == [((), ())]:
        return [TRIVIAL] if not items else items
    items.extend(IOPair(tuple(i), tuple(o)) for i, o in paths)
    return items


def _paths(f, table, domain):
    if isinstance(f, (Atom, Not)):
        return [((), ())]
    if isinstance(f, Forall):
        out = []
        for n in domain:
            for ins, outs in _paths(subst(f.body, f.var, n), table[n], domain):
                out.append(((Numeral(n),) + ins, outs))
        return out
    if isinstance(f, Exists):
        n, sub = table
        return [
            (ins, (Numeral(n),) + outs)
            for ins, outs in _paths(subst(f.body, f.var, n), sub, domain)
        ]
    if isinstance(f, And):
        ta, tb = table
        out = []
        for side, g, t in ((0, f.left, ta), (1, f.right, tb)):
            for ins, outs in _paths(g, t, domain):
                out.append(((Selector(side),) + ins, outs))
        return out
    if isinstance(f, Or):
        side, sub = table
        g = f.left if side == 0 else f.right
        return [
            (ins, (Selector(side),) + outs)
            for ins, outs in _paths(g, sub, domain)
        ]
    raise TypeError(f)


# ---------------------------------------------------------------------------
# pair shape along the spine
#
# The recursive walk the package's offset loops must agree with: each
# token is checked, the token lists are sliced past it, and the walk
# recurses on the rest of the statement.  Same checks, same order, same
# ShapeMismatch texts.


def _num_token(tok):
    if isinstance(tok, Numeral):
        return tok
    raise ShapeMismatch(f"expected a numeral, found {tok}")


def _sel_token(tok):
    if isinstance(tok, Selector):
        v = tok.choice
    elif isinstance(tok, Numeral):
        v = tok.value
    else:
        raise ShapeMismatch(f"expected a selector, found {tok}")
    if v not in (0, 1):
        raise ShapeMismatch(f"selector out of range: {v}")
    return Selector(v)


def shape_check(f, p):
    """The pair with its selectors tagged, or ShapeMismatch."""
    ins, outs = _shape(f, list(p.inputs), list(p.outputs))
    return IOPair(tuple(ins), tuple(outs))


def _shape(f, ins, outs):
    if isinstance(f, (Atom, Not)):
        if ins or outs:
            raise ShapeMismatch("tokens left over past the end of the statement")
        return [], []
    if isinstance(f, (Forall, And, Implies)):
        if not ins:
            if outs:
                raise ShapeMismatch("output given without the required input")
            return [], []
        if isinstance(f, Forall):
            tok = _num_token(ins[0])
            rest_i, rest_o = _shape(f.body, ins[1:], outs)
        elif isinstance(f, And):
            tok = _sel_token(ins[0])
            rest_i, rest_o = _shape((f.left, f.right)[tok.choice], ins[1:], outs)
        else:
            if not isinstance(ins[0], Prefix):
                raise ShapeMismatch(f"expected a prefix, found {ins[0]}")
            seg = []
            for it in ins[0].items:
                if is_pair(it):
                    seg.append(shape_check(f.left, it))
                elif isinstance(it, Whitespace):
                    seg.append(it)
                else:
                    raise ShapeMismatch(f"not an item inside a prefix: {it!r}")
            tok = Prefix(tuple(seg))
            rest_i, rest_o = _shape(f.right, ins[1:], outs)
        return [tok] + rest_i, rest_o
    if not isinstance(f, (Exists, Or, Box)):
        raise TypeError(f)
    if not outs:
        if ins:
            raise ShapeMismatch("input given past the available output")
        return [], []
    if isinstance(f, Exists):
        tok = _num_token(outs[0])
        rest_i, rest_o = _shape(f.body, ins, outs[1:])
    elif isinstance(f, Or):
        tok = _sel_token(outs[0])
        rest_i, rest_o = _shape((f.left, f.right)[tok.choice], ins, outs[1:])
    else:
        tok = _num_token(outs[0])
        if ins or outs[1:]:
            raise ShapeMismatch("tokens left over past a code")
        rest_i, rest_o = [], []
    return rest_i, [tok] + rest_o


def pair_complete(f, p):
    """True when the pair's walk reaches the end of its path."""
    return _complete(f, list(p.inputs), list(p.outputs))


def _complete(f, ins, outs):
    if isinstance(f, (Atom, Not)):
        return not ins and not outs
    if isinstance(f, (Forall, And, Implies)):
        if not ins:
            return False
        if isinstance(f, And):
            return _complete((f.left, f.right)[_sel_token(ins[0]).choice], ins[1:], outs)
        return _complete(f.body if isinstance(f, Forall) else f.right, ins[1:], outs)
    if not outs:
        return False
    if isinstance(f, Or):
        return _complete((f.left, f.right)[_sel_token(outs[0]).choice], ins, outs[1:])
    if isinstance(f, Box):
        return not ins and len(outs) == 1
    return _complete(f.body, ins, outs[1:])


# ---------------------------------------------------------------------------
# output discipline, pair against pair
#
# The brute-force scan the checker's indexed pass must agree with: every
# pair against every earlier one, walking the statement jointly.


def _prefix_extends(a, b):
    return a.items[: len(b.items)] == b.items


def joint_conflict(f, p, q):
    """None, or the discipline shaped pair q breaks against p.

    Wherever the inputs have agreed (a prefix may extend the other), the
    outputs must be the same tokens; one pair silent at an output slot
    where the other speaks breaks the rule too.
    """
    if (not p.inputs and not p.outputs) or (not q.inputs and not q.outputs):
        return None  # the trivial pair asserts nothing
    ins_p, outs_p = list(p.inputs), list(p.outputs)
    ins_q, outs_q = list(q.inputs), list(q.outputs)
    g = f
    extended = False
    while True:
        if isinstance(g, (Forall, And, Implies)):
            if not ins_p or not ins_q:
                return None
            a, b = ins_p.pop(0), ins_q.pop(0)
            if isinstance(g, Implies):
                if a != b:
                    if not (_prefix_extends(a, b) or _prefix_extends(b, a)):
                        return None
                    extended = True
                g = g.right
            elif a != b:
                return None
            else:
                g = g.body if isinstance(g, Forall) else (g.left, g.right)[a.choice]
            continue
        if isinstance(g, (Exists, Or, Box)):
            if not outs_p and not outs_q:
                return None
            if not outs_p or not outs_q or outs_p[0] != outs_q[0]:
                return "monotonicity" if extended else "functionality"
            a = outs_p.pop(0)
            outs_q.pop(0)
            if isinstance(g, Box):
                return None
            g = g.body if isinstance(g, Exists) else (g.left, g.right)[a.choice]
            continue
        return None  # an atom or a negation ends the walk


def first_conflict(f, pairs):
    """(j, i, kind) for the first j in scan order breaking the discipline
    against some earlier i, the least such i; else None."""
    for j in range(len(pairs)):
        for i in range(j):
            kind = joint_conflict(f, pairs[i], pairs[j])
            if kind:
                return j, i, kind
    return None


# ---------------------------------------------------------------------------
# witness text, read one character at a time
#
# The reader the package's compiled patterns must agree with.  It keeps
# two faults the package mends, and a test maps them: a backslash that
# ends the text inside a quote raises IndexError (the package: an
# unterminated quote), and a character that str.isdigit accepts but
# int() refuses, such as '²', raises ValueError (the package reads only
# decimal digits, so it is an unexpected character there).


class _WitReader:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def _skip_blanks(self):
        while self.i < len(self.text) and self.text[self.i] in " \t\r\n":
            self.i += 1

    def at_end(self):
        self._skip_blanks()
        return self.i >= len(self.text)

    def item(self):
        self._skip_blanks()
        c = self.text[self.i]
        if c == "_":
            self.i += 1
            return WS
        if c == "(":
            return self.pair()
        raise WitnessTextError(f"unexpected {c!r} at {self.i}")

    def pair(self):
        self.i += 1  # past "("
        ins = self.tokens(stop=":")
        self.i += 1  # past ":"
        outs = self.tokens(stop=")")
        self.i += 1  # past ")"
        return IOPair(tuple(ins), tuple(outs))

    def tokens(self, stop):
        toks = []
        while True:
            self._skip_blanks()
            if self.i >= len(self.text):
                raise WitnessTextError("unterminated pair")
            c = self.text[self.i]
            if c == stop:
                return toks
            if c == ",":
                self.i += 1
                continue
            if c.isdigit():
                j = self.i
                while j < len(self.text) and self.text[j].isdigit():
                    j += 1
                toks.append(Numeral(int(self.text[self.i : j])))
                self.i = j
                continue
            if c == '"':
                toks.append(self.quoted())
                continue
            raise WitnessTextError(f"unexpected {c!r} at {self.i}")

    def quoted(self):
        self.i += 1
        out = []
        while True:
            if self.i >= len(self.text):
                raise WitnessTextError("unterminated quote")
            c = self.text[self.i]
            if c == "\\":
                out.append(self.text[self.i + 1])
                self.i += 2
                continue
            if c == '"':
                self.i += 1
                return Prefix(parse_witness_text("".join(out)))
            out.append(c)
            self.i += 1


def parse_witness_text(text):
    """The items of witness text, or WitnessTextError."""
    r = _WitReader(text)
    items = []
    while not r.at_end():
        items.append(r.item())
    return tuple(items)


# ---------------------------------------------------------------------------
# small judges for the other criteria


def least_satisfying(pred, bound):
    """Brute-force minimal n < bound with pred(n), else None."""
    for n in range(bound):
        if pred(n):
            return n
    return None


def is_linear_extension(sequence, precedes, universe):
    """Every element once, and nothing before its predecessors."""
    if sorted(sequence) != sorted(universe):
        return False
    seen = set()
    for x in sequence:
        for y in universe:
            if precedes(y, x) and y not in seen:
                return False
        seen.add(x)
    return True


def propositional_leaves(f, acc=None):
    """Atoms of a propositional skeleton, tuple-coded or Formula."""
    if acc is None:
        acc = []
    if isinstance(f, tuple) and f[0] in ("and", "or", "imp"):
        propositional_leaves(f[1], acc)
        propositional_leaves(f[2], acc)
    elif isinstance(f, tuple) and f[0] == "not":
        propositional_leaves(f[1], acc)
    elif isinstance(f, (And, Or, Implies)):
        propositional_leaves(f.left, acc)
        propositional_leaves(f.right, acc)
    elif isinstance(f, Not):
        propositional_leaves(f.body, acc)
    else:
        if f not in acc:
            acc.append(f)
    return acc


def _prop_eval(f, assign):
    if isinstance(f, tuple) and f[0] in ("and", "or", "imp", "not"):
        op = f[0]
        if op == "not":
            return not _prop_eval(f[1], assign)
        a = _prop_eval(f[1], assign)
        b = _prop_eval(f[2], assign)
        return {"and": a and b, "or": a or b, "imp": (not a) or b}[op]
    if isinstance(f, And):
        return _prop_eval(f.left, assign) and _prop_eval(f.right, assign)
    if isinstance(f, Or):
        return _prop_eval(f.left, assign) or _prop_eval(f.right, assign)
    if isinstance(f, Implies):
        return (not _prop_eval(f.left, assign)) or _prop_eval(f.right, assign)
    if isinstance(f, Not):
        return not _prop_eval(f.body, assign)
    return assign[f]


def is_tautology(f):
    """Truth-table check over the skeleton's propositional leaves."""
    leaves = propositional_leaves(f)
    for bits in itertools.product((False, True), repeat=len(leaves)):
        if not _prop_eval(f, dict(zip(leaves, bits))):
            return False
    return True


# ---------------------------------------------------------------------------
# transformer application, round by round


def apply_implication(w, x):
    """The round scan: in round r, every pair among w's first r items not
    yet emitted is emitted, in index order, when it is trivial or its
    leading prefix is extended by x's first r items; then one
    whitespace closes the round."""
    wsrc, xsrc = w.copy(), x.copy()

    def gen():
        emitted = set()
        r = 0
        while True:
            observed = Prefix(xsrc.pull(r))
            for i, item in enumerate(wsrc.pull(r)):
                if i in emitted or not is_pair(item):
                    continue
                if not item.inputs and not item.outputs:
                    emitted.add(i)
                    yield TRIVIAL
                elif item.inputs and isinstance(item.inputs[0], Prefix):
                    if observed.extends(item.inputs[0]):
                        emitted.add(i)
                        yield IOPair(item.inputs[1:], item.outputs)
            yield WS
            r += 1

    return WitnessStream(gen)


# ---------------------------------------------------------------------------
# the machine, as a generator tree walker (item codes and pairing are
# the package's: they define the machine's values, not its evaluation)


class _WalkerOutOfSteps(Exception):
    pass


class _Walker:
    """The reference interpreter: every form is a generator, driven with
    `yield from`, that ticks once on entry and then runs its operands
    left to right."""

    def __init__(self, program, inputs, budget):
        expr = _lists(program.expr)
        self.defs = {d[1]: (d[2], d[3]) for d in expr[1:-1]}
        self.main = expr[-1]
        self.inputs = {str(k): v.copy() for k, v in (inputs or {}).items()}
        self.cursors = {k: 0 for k in self.inputs}
        self.budget = budget
        self.steps = 0

    def _tick(self):
        self.steps += 1
        if self.steps > self.budget:
            raise _WalkerOutOfSteps()

    def items(self):
        try:
            yield from self._eval(self.main, {})
        except _WalkerOutOfSteps:
            return

    def _query(self, name):
        stream = self.inputs.get(name)
        if stream is None:
            return 0
        i = self.cursors[name]
        item = stream.at(i)
        if item is None:
            return 0
        self.cursors[name] = i + 1
        return encode_item(item)

    def _eval(self, x, env):
        self._tick()
        if isinstance(x, int):
            return x
        if isinstance(x, str):
            if x in env:
                return env[x]
            raise VMError(f"unbound machine variable {x!r}")
        if not x:
            raise VMError("empty form")
        head = x[0]
        if head == "+":
            return (yield from self._eval(x[1], env)) + (yield from self._eval(x[2], env))
        if head == "-":
            a = yield from self._eval(x[1], env)
            b = yield from self._eval(x[2], env)
            return a - b if a > b else 0
        if head == "*":
            return (yield from self._eval(x[1], env)) * (yield from self._eval(x[2], env))
        if head == "div":
            a = yield from self._eval(x[1], env)
            b = yield from self._eval(x[2], env)
            return a // b if b else 0
        if head == "mod":
            a = yield from self._eval(x[1], env)
            b = yield from self._eval(x[2], env)
            return a % b if b else 0
        if head == "<":
            a = yield from self._eval(x[1], env)
            b = yield from self._eval(x[2], env)
            return 1 if a < b else 0
        if head == "=":
            a = yield from self._eval(x[1], env)
            b = yield from self._eval(x[2], env)
            return 1 if a == b else 0
        if head == "pair":
            a = yield from self._eval(x[1], env)
            b = yield from self._eval(x[2], env)
            return cantor(a, b)
        if head == "fst":
            return uncantor((yield from self._eval(x[1], env)))[0]
        if head == "snd":
            return uncantor((yield from self._eval(x[1], env)))[1]
        if head == "if":
            c = yield from self._eval(x[1], env)
            return (yield from self._eval(x[2] if c else x[3], env))
        if head == "let":
            _, name, val_expr, body = x
            val = yield from self._eval(val_expr, env)
            had, old = name in env, env.get(name)
            env[name] = val
            try:
                return (yield from self._eval(body, env))
            finally:
                if had:
                    env[name] = old
                else:
                    del env[name]
        if head == "set":
            val = yield from self._eval(x[2], env)
            env[x[1]] = val
            return val
        if head == "seq":
            v = 0
            for e in x[1:]:
                v = yield from self._eval(e, env)
            return v
        if head == "while":
            while True:
                c = yield from self._eval(x[1], env)
                if not c:
                    return 0
                yield from self._eval(x[2], env)
        if head == "emit":
            code = yield from self._eval(x[1], env)
            yield decode_item(code)
            return 0
        if head == "query":
            name = x[1] if isinstance(x[1], str) else str(x[1])
            return self._query(name)
        if head in self.defs:
            params, body = self.defs[head]
            if len(params) != len(x) - 1:
                raise VMError(f"{head} wants {len(params)} arguments")
            args = []
            for e in x[1:]:
                args.append((yield from self._eval(e, env)))
            return (yield from self._eval(body, dict(zip(params, args))))
        raise VMError(f"unknown operation {head!r}")


def _lists(x):
    return [_lists(e) for e in x] if isinstance(x, tuple) else x


def vm_run(program, inputs, budget, pulls=None):
    """Run a machine program under the reference interpreter, reading at
    most `pulls` items (all of them when None).  Returns the items read,
    the steps taken and the exception that ended the run, if any."""
    walker = _Walker(program, inputs, budget)
    items, error = [], None
    try:
        for item in itertools.islice(walker.items(), pulls):
            items.append(item)
    except Exception as e:
        error = e
    return items, walker.steps, error
