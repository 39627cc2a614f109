"""Independent reference implementations the suite trusts.

Everything here judges by direct recursion over finite structures:
no streams, no budgets, no shared logic with the package beyond the
AST constructors themselves.  Expected values frozen in tests come
from these functions, written before the assertions that use them.
"""

import itertools

from ctruth import checker, combinators, games, realizers, vm
from ctruth.formula import (
    NEGATIVE,
    POSITIVE,
    Add,
    And,
    Atom,
    Box,
    Classification,
    Exists,
    Forall,
    Formula,
    Implies,
    Mul,
    Not,
    Num,
    One,
    Or,
    ParseError,
    Term,
    UnboundVariable,
    Var,
    Zero,
    instantiate,
    numeral,
    peel,
    print_term,
)
from ctruth.games import DPLL_ATOM_CAP, TooManyAtoms
from ctruth.realizers import ProofError, _quantifier_free
from ctruth.witness import (
    END,
    IN_NUM,
    IN_PREFIX,
    IN_SEL,
    OUT_CODE,
    OUT_NUM,
    OUT_SEL,
    _INPUTS,
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
    _under,
    content,
    is_pair,
    slot,
)
from ctruth.vm import MAX_BITS, VMError, cantor, decode_item, encode_item, uncantor


# ---------------------------------------------------------------------------
# classical truth over a finite domain


def term_value(t, env):
    if isinstance(t, Zero):
        return 0
    if isinstance(t, One):
        return 1
    if isinstance(t, Num):
        return t.value
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
# the shape walk by helper calls
#
# The package's shape walk and completeness walk as they were before
# they read each token in line: slot() for every node, tuple membership
# for the slot kinds and one helper call per selector or numeral.  A
# prefix's pairs are shaped here on every call, with no memo on the
# prefix, by this walk itself.

_CHOICES = (IN_SEL, OUT_SEL)


def _after(s, tok):
    """The statement past a token given at slot record s."""
    return s[1 + tok.choice] if s[0] in _CHOICES else s[2]


def slot_shape_walk(f, p):
    """(shaped, path, parts) of a pair, as witness.shape_walk gives them."""
    ins, outs = p.inputs, p.outputs
    si, so, path, hyps, env = [], [], [], [], {}
    i = o = 0
    g = f
    while True:
        s = slot(g)
        kind = s[0]
        if kind == END:
            if i < len(ins) or o < len(outs):
                raise ShapeMismatch("tokens left over past the end of the statement")
            break
        if kind in _INPUTS:
            if i == len(ins):
                if o < len(outs):
                    raise ShapeMismatch("output given without the required input")
                break
            tok, toks = ins[i], si
            i += 1
        else:
            if o == len(outs):
                if i < len(ins):
                    raise ShapeMismatch("input given past the available output")
                if ins or outs:
                    path.append((kind, None))
                break
            tok, toks = outs[o], so
            o += 1
        if kind == IN_PREFIX:
            key = tok
            tok, inner = _prefix_token(s[1], tok)
            hyps.append(((), s[1], dict(env)))
            hyps.extend(_under(env, parts) for parts in inner)
        elif kind in _CHOICES:
            tok = _sel_token(tok)
            key = tok.choice
        else:
            tok = _num_token(tok)
            key = tok.value
            if kind != OUT_CODE:
                env[s[1]] = key
        toks.append(tok)
        path.append((kind, key))
        if kind == OUT_CODE:
            if i < len(ins) or o < len(outs):
                raise ShapeMismatch("tokens left over past a code")
            break
        g = s[1 + key] if kind in _CHOICES else s[2]
    return IOPair(tuple(si), tuple(so)), path, (hyps, g, env)


def _prefix_token(ante, tok):
    if not isinstance(tok, Prefix):
        raise ShapeMismatch(f"expected a prefix, found {tok}")
    seg, inner = [], []
    for it in tok.items:
        if is_pair(it):
            shaped, _, parts = slot_shape_walk(ante, it)
            seg.append(shaped)
            inner.append(parts)
        elif isinstance(it, Whitespace):
            seg.append(it)
        else:
            raise ShapeMismatch(f"not an item inside a prefix: {it!r}")
    return Prefix(tuple(seg)), inner


def slot_pair_complete(f, p):
    """witness.pair_complete as it was, one slot() call per token."""
    ins, outs = p.inputs, p.outputs
    i = o = 0
    s = slot(f)
    while True:
        kind = s[0]
        if kind == END:
            return i == len(ins) and o == len(outs)
        if kind == OUT_CODE:
            return i == len(ins) and o + 1 == len(outs)
        if kind in _INPUTS:
            if i == len(ins):
                return False
            tok = ins[i]
            i += 1
        else:
            if o == len(outs):
                return False
            tok = outs[o]
            o += 1
        if kind in _CHOICES:
            tok = _sel_token(tok)
        s = slot(_after(s, tok))


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


# The checker's indexed pass as it was before a pair dropped back from
# frontier mode: once a pair meets a prefix slot it walks a frontier of
# agreeing nodes, token by token, to its end.

_OUTPUTS = (OUT_NUM, OUT_SEL, OUT_CODE)


def frontier_index(paths):
    """(hit, edges, said, kids) as checker._index gives them."""
    edges = {}
    said = {}
    kids = {}
    for j, path in enumerate(paths):
        own = 0
        frontier = hit = None
        for kind, key in path:
            if kind == IN_PREFIX and frontier is None:
                frontier = [(own, False)]
            speaks = kind in _OUTPUTS
            if speaks:
                first = said.setdefault(own, (j, key))
            if frontier is None:
                if speaks and first[1] != key:
                    return (j, first[0], "functionality"), edges, said, kids
            else:
                after = []
                for node, ext in frontier:
                    if speaks and said[node][1] != key:
                        i = said[node][0]
                        if hit is None or i < hit[0]:
                            hit = (i, "monotonicity" if ext else "functionality")
                    elif kind == IN_PREFIX:
                        for pre, child in kids.get(node, ()):
                            if pre == key:
                                after.append((child, ext))
                            elif pre.extends(key) or key.extends(pre):
                                after.append((child, True))
                    elif (node, key) in edges:
                        after.append((edges[node, key], ext))
                frontier = after
            if key is None:
                break  # silent: the pair ends here
            child = edges.get((own, key))
            if child is None:
                child = edges[own, key] = len(edges) + 1
                if kind == IN_PREFIX:
                    kids.setdefault(own, []).append((key, child))
            own = child
        if hit is not None:
            return (j,) + hit, edges, said, kids
    return None, edges, said, kids


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
    """Atoms of a propositional skeleton, tuple-coded or Formula; a
    ("const", b) is no atom."""
    if acc is None:
        acc = []
    if isinstance(f, tuple) and f[0] == "const":
        pass
    elif isinstance(f, tuple) and f[0] in ("and", "or", "imp"):
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
    if isinstance(f, tuple) and f[0] == "const":
        return f[1]
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


def _sized(n):
    """A product or pair past MAX_BITS bits is an error, as in the package."""
    if n >> MAX_BITS:
        raise VMError(f"number past {MAX_BITS} bits")
    return n


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
            return _sized((yield from self._eval(x[1], env)) * (yield from self._eval(x[2], env)))
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
            return _sized(cantor(a, b))
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


# ---------------------------------------------------------------------------
# content parts and coverage by cursors
#
# The walks the checker used before content parts came from the shape
# walk and the coverage walk followed the discipline trie: content_parts
# walks a shaped pair's spine a second time, and _walk keeps a
# (pair, i, o) cursor for each pair.  check_witness assembles them as the
# checker did, with the discipline judged by first_conflict above.

_REJ = "rej"
_PEND = "pend"


def content_parts(f: Formula, p: IOPair, env=None):
    """A shaped pair's semantic content in parts: (hyps, rest, env).

    `rest` is the part of the statement the pair's tokens reach, still
    open; `env` maps its instantiated variables to their values, from
    the outer `env` on.  Each of `hyps` is itself such parts: a prefix
    input contributes its antecedent as `((), ante, env)` and the parts
    of each pair it holds, which shape_check already shaped.  Nothing
    is instantiated here; `content` builds the formula, which is `rest`
    under `env`, implied by the conjunction of the hypotheses if any.
    Judging `rest` under `env` leaves large numerals as integers.
    """
    hyps: list = []
    env = dict(env or ())
    ins, outs = iter(p.inputs), iter(p.outputs)
    g = f
    while True:
        s = slot(g)
        kind = s[0]
        if kind in _INPUTS:
            tok = next(ins, None)
        elif kind in (OUT_NUM, OUT_SEL):
            tok = next(outs, None)
        else:
            # END, or OUT_CODE: the specific code is not arithmetized;
            # the claim is that some mechanical witness exists, i.e. the
            # boxed body itself.
            return hyps, g, env
        if tok is None:
            return hyps, g, env
        if kind in (IN_NUM, OUT_NUM):
            env[s[1]] = tok.value
        elif kind == IN_PREFIX:
            ante = ((), s[1], dict(env))
            hyps.append(ante)
            hyps.extend(content_parts(s[1], it, ante[2]) for it in tok.items if is_pair(it))
        g = _after(s, tok)


def _walk(g, env, cursors, path, budget, probes):
    """First unmet demand or definite fault under g, else None.

    Returns (_PEND, path) or (_REJ, pair, reason).  `env` holds the
    values of g's instantiated variables; `cursors` are (pair, i, o)
    for the shaped pairs still walking this subtree, i and o being the
    offsets of their first input and output token past `path`.
    """
    s = slot(g)
    kind = s[0]
    if kind == END:
        return None if cursors else (_PEND, path)
    if kind in (IN_NUM, IN_SEL):
        branches = {}
        for pair, i, o in cursors:
            if i < len(pair.inputs):
                branches.setdefault(pair.inputs[i], []).append((pair, i + 1, o))
        if kind == IN_NUM:
            _, var, body = s
            choices = (
                (Numeral(n), body, {**env, var: n}) for n in range(budget.numeral_bound + 1)
            )
        else:
            choices = ((Selector(c), s[1 + c], env) for c in (0, 1))
        for tok, sub, sub_env in choices:
            branch = branches.get(tok)
            if not branch:
                return (_PEND, path + [tok])
            r = _walk(sub, sub_env, branch, path + [tok], budget, probes)
            if r:
                return r
        return None
    if kind == IN_PREFIX:
        ante = instantiate(s[1], env)
        for probe in probes:
            if probe.formula != ante:
                continue
            observed = Prefix(probe.stream.pull(budget.pull_limit))
            branch = [
                (pair, i + 1, o)
                for pair, i, o in cursors
                if i < len(pair.inputs) and observed.extends(pair.inputs[i])
            ]
            if not branch:
                return (_PEND, path + [observed])
            r = _walk(s[2], env, branch, path + [observed], budget, probes)
            if r:
                return r
        return None  # no probe, no demand to meet
    # output slots: follow the stream's own (unique) choice
    speaking = [(pair, i, o) for pair, i, o in cursors if o < len(pair.outputs)]
    if not speaking:
        return (_PEND, path)
    first, _, o = speaking[0]
    tok = first.outputs[o]
    if kind == OUT_CODE:
        # decode, run, and check the emitted stream against the body
        try:
            prog = vm.godel_decode(tok.value)
        except vm.DecodeError as e:
            return (_REJ, first, f"code does not decode: {e}")
        inner = vm.run_stream(prog, {}, budget.vm_steps)
        v = check_witness(inner, instantiate(s[1], env), budget)
        if v.status == "rejected":
            return (_REJ, first, f"decoded program fails: {v.line()}")
        if v.status == "pending":
            return (_PEND, list(v.missing) if v.missing else path)
        return None
    branch = [(pair, i, o + 1) for pair, i, o in speaking]
    if kind == OUT_NUM:
        return _walk(s[2], {**env, s[1]: tok.value}, branch, path, budget, probes)
    return _walk(s[1 + tok.choice], env, branch, path, budget, probes)


def check_witness(w, f, budget, probes=()):
    """The checker's verdict, from shape_check, first_conflict,
    content_parts and the cursor walk above; a decoded program that
    raises VMError ends the check with it."""
    shaped = []  # (raw, shaped pair) for each pair
    for item in w.pull(budget.pull_limit):
        if is_pair(item):
            try:
                shaped.append((item, shape_check(f, item)))
            except ShapeMismatch as e:
                return checker._rejected(budget, item, str(e))

    hit = first_conflict(f, [p for _, p in shaped])
    if hit:
        j, i, kind = hit
        return checker._rejected(budget, shaped[j][0], kind, conflict=shaped[i][0])

    key = (budget.numeral_bound, budget.search_bound)
    for raw, p in shaped:
        parts = content_parts(f, p)
        if checker._refuted(parts, budget, key):
            return checker._rejected(budget, raw, content(parts))
        if isinstance(f, Implies) and p.inputs and isinstance(p.inputs[0], Prefix):
            lead = p.inputs[0]
            rest = IOPair(p.inputs[1:], p.outputs)
            for probe in probes:
                if not probe.trusted or probe.formula != f.left:
                    continue
                observed = Prefix(probe.stream.pull(len(lead.items)))
                if not observed.extends(lead):
                    continue
                parts = content_parts(f.right, rest)
                if checker._refuted(parts, budget, key):
                    return checker._rejected(budget, raw, content(parts))

    r = _walk(f, {}, [(p, 0, 0) for _, p in shaped], [], budget, list(probes))
    if r is None:
        return checker._accepted(budget)
    if r[0] == _PEND:
        return checker._pending(budget, r[1])
    raw = next(raw for raw, p in shaped if p is r[1])
    return checker._rejected(budget, raw, r[2])


# ---------------------------------------------------------------------------
# structural walks, one isinstance case per connective
#
# The formula walks as they were before they read formula.parts and
# formula.peel: each spells out which fields of a node are subformulas
# and walks a run of `+1` steps in its own loop.  add_eq and add_hash
# are Add's __eq__ and __hash__ of that version; nested terms compare
# and hash by the package's methods.  term_str is str() of a term as
# the per-class __str__ methods gave it.


def term_str(t):
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, One):
        return "1"
    if isinstance(t, Var):
        return t.name
    return print_term(t)


def term_vars(t: Term) -> set:
    """The variables occurring in a term; a run of `+1` steps is walked
    in a loop."""
    while isinstance(t, Add) and isinstance(t.right, One):
        t = t.left
    if isinstance(t, (Zero, One, Num)):
        return set()
    if isinstance(t, Var):
        return {t.name}
    return term_vars(t.left) | term_vars(t.right)


def free_vars(f: Formula) -> set:
    if isinstance(f, Atom):
        return term_vars(f.left) | term_vars(f.right)
    if isinstance(f, Not):
        return free_vars(f.body)
    if isinstance(f, Box):
        return free_vars(f.body)
    if isinstance(f, (And, Or, Implies)):
        return free_vars(f.left) | free_vars(f.right)
    if isinstance(f, (Forall, Exists)):
        return free_vars(f.body) - {f.var}
    raise TypeError(f"not a formula: {f!r}")


def term_subst(t: Term, repl: dict) -> Term:
    """Replace each variable repl maps; t itself when none occurs.  A run
    of `+1` steps, such as a numeral's spine, is walked in a loop."""
    steps, base = 0, t
    while isinstance(base, Add) and isinstance(base.right, One):
        steps += 1
        base = base.left
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
            and f.var not in term_vars(g.right)
        ):
            return f.var, g.right, f.body.right
    if isinstance(f, Forall) and isinstance(f.body, Implies):
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


def add_eq(self, other):
    """Structural; a run of `+1` steps is walked in a loop."""
    if other.__class__ is not Add:
        return NotImplemented
    a, b = self, other
    while a.right.__class__ is One and b.right.__class__ is One:
        a, b = a.left, b.left
        if a is b:
            return True
        if a.__class__ is not Add or b.__class__ is not Add:
            return a == b
    return (a.left, a.right) == (b.left, b.right)


def add_hash(self):
    """Agrees with __eq__; a run of `+1` steps is counted in a loop, and
    a numeral base counts as One() and its value - 1 steps."""
    t, steps = self, 0
    while t.__class__ is Add and t.right.__class__ is One:
        t, steps = t.left, steps + 1
    if t.__class__ is Num:
        t, steps = One(), steps + t.value - 1
    return hash((steps, t.left, t.right) if t.__class__ is Add else (steps, t))


# ---------------------------------------------------------------------------
# the games, extraction and machine walks, each as its own copy
#
# As they were before games evaluated through formula's connectives,
# realizers walked a statement's demand space in one walk per fact and
# the machine read programs as tuples: _pe is the propositional
# evaluator games kept beside eval3, _demand_only and _effective the two
# demand walks, _vm_ins and _vm_valid the two halves of the enumerator
# item, and parse_sexpr the recursive reader that gave nested lists.


def _pe(f, env):
    """Partial evaluation of a propositional formula; None is unknown."""
    tag = f[0]
    if tag == "var":
        return env.get(f[1])
    if tag == "const":
        return f[1]
    if tag == "not":
        v = _pe(f[1], env)
        return None if v is None else not v
    a, b = _pe(f[1], env), _pe(f[2], env)
    if tag == "and":
        if a is False or b is False:
            return False
        return True if a is True and b is True else None
    if tag == "or":
        if a is True or b is True:
            return True
        return False if a is False and b is False else None
    if tag == "imp":
        if a is False or b is True:
            return True
        return False if a is True and b is False else None
    raise ValueError(f"unknown connective {tag!r}")


def _vars_of(f, acc):
    if f[0] == "var":
        acc.add(f[1])
    elif f[0] == "not":
        _vars_of(f[1], acc)
    elif f[0] != "const":
        _vars_of(f[1], acc)
        _vars_of(f[2], acc)


def dpll_tautology(f) -> bool:
    """Splitting tautology check with partial-evaluation pruning; raises
    TooManyAtoms past DPLL_ATOM_CAP atoms."""
    names = set()
    _vars_of(f, names)
    if len(names) > DPLL_ATOM_CAP:
        raise TooManyAtoms(f"{len(names)} atoms exceeds the cap of {DPLL_ATOM_CAP}")
    order = sorted(names)

    def solve(env):
        v = _pe(f, env)
        if v is not None:
            return v
        x = next(n for n in order if n not in env)
        return solve({**env, x: False}) and solve({**env, x: True})

    return solve({})


def _demand_only(f: Formula) -> bool:
    """True when the spine never produces: such statements are witnessed
    by enumerating input paths (the proof already certifies truth)."""
    s = slot(f)
    if s[0] == END:
        return True
    if s[0] in (IN_NUM, IN_PREFIX):  # a prefix is never answered, so owes no output
        return _demand_only(s[2])
    if s[0] == IN_SEL:
        return _demand_only(s[1]) and _demand_only(s[2])
    return False


def _effective(f: Formula) -> bool:
    """Demand-only up to disjunctions that bounded evaluation decides."""
    s = slot(f)
    if s[0] == END:
        return True
    if s[0] in (IN_NUM, IN_PREFIX):
        return _effective(s[2])
    if s[0] == IN_SEL:
        return _effective(s[1]) and _effective(s[2])
    if s[0] == OUT_SEL:
        return _quantifier_free(f)
    return False


def _vm_ins(f: Formula, i: int) -> str:
    s = slot(f)
    kind = s[0]
    if kind == END:
        return "0"
    if kind == IN_NUM:
        inner = _vm_ins(s[2], i + 1)
        return (
            f"(let v{i} (fst k{i}) (let k{i + 1} (snd k{i})"
            f" (+ 1 (cantor (* 3 v{i}) {inner}))))"
        )
    if kind == IN_SEL:
        left = _vm_ins(s[1], i + 1)
        right = _vm_ins(s[2], i + 1)
        return (
            f"(let b{i} (mod k{i} 2) (let k{i + 1} (div k{i} 2)"
            f" (if (= b{i} 0) (+ 1 (cantor 1 {left})) (+ 1 (cantor 4 {right})))))"
        )
    # IN_PREFIX: the empty prefix has token code 2 and consumes no index
    inner = _vm_ins(s[2], i)
    return f"(+ 1 (cantor 2 {inner}))"


def _vm_valid(f: Formula, i: int) -> str:
    s = slot(f)
    kind = s[0]
    if kind == END:
        return f"(= k{i} 0)"
    if kind == IN_NUM:
        return f"(let k{i + 1} (snd k{i}) {_vm_valid(s[2], i + 1)})"
    if kind == IN_SEL:
        left = _vm_valid(s[1], i + 1)
        right = _vm_valid(s[2], i + 1)
        return (
            f"(let b{i} (mod k{i} 2) (let k{i + 1} (div k{i} 2)"
            f" (if (= b{i} 0) {left} {right})))"
        )
    return _vm_valid(s[2], i)


def parse_sexpr(text: str):
    pos = 0

    def skip():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def rec():
        nonlocal pos
        skip()
        if pos >= len(text):
            raise VMError("unexpected end of program text")
        if text[pos] == "(":
            pos += 1
            items = []
            while True:
                skip()
                if pos >= len(text):
                    raise VMError("unbalanced parentheses")
                if text[pos] == ")":
                    pos += 1
                    return items
                items.append(rec())
        if text[pos] == ")":
            raise VMError(f"stray ')' at {pos}")
        j = pos
        while j < len(text) and not text[j].isspace() and text[j] not in "()":
            j += 1
        word = text[pos:j]
        pos = j
        if word.isdecimal():
            return int(word)
        return word

    expr = rec()
    skip()
    if pos != len(text):
        raise VMError(f"trailing program text at {pos}")
    return expr


# ---------------------------------------------------------------------------
# extraction's machine code, by its own proof walk
#
# As realizers printed machine code before one walk built one realizer
# for both the stream and the code: _item_expr re-infers each subproof's
# statement and writes the item expression of the productive forms, and
# extraction_code picks the enumerator, the search or the item loop for
# a whole proof as extract did.


def _item_expr(p, hyps: tuple, env: dict, idx: str, d: int) -> str:
    target = realizers.infer(p, hyps)
    if realizers._effective(target, decided=False):
        return f"(let k0 {idx} {realizers._enum_item(target)})"
    if isinstance(p, realizers.Exi):
        v = realizers._vm_term_env(p.term, env)
        return f"(preout (* 3 {v}) {_item_expr(p.body, hyps, env, idx, d)})"
    if isinstance(p, realizers.Inl):
        return f"(preout 1 {_item_expr(p.arg, hyps, env, idx, d)})"
    if isinstance(p, realizers.Inr):
        return f"(preout 4 {_item_expr(p.arg, hyps, env, idx, d)})"
    if isinstance(p, realizers.Pair):
        left = _item_expr(p.left, hyps, env, f"j{d}", d + 1)
        right = _item_expr(p.right, hyps, env, f"j{d}", d + 1)
        return (
            f"(let j{d} (div {idx} 2)"
            f" (if (= (mod {idx} 2) 0) (prein 1 {left}) (prein 4 {right})))"
        )
    if isinstance(p, realizers.Gen):
        sym = f"u{d}"
        inner = _item_expr(p.body, hyps, {**env, p.var: sym}, f"j{d}", d + 1)
        return (
            f"(let {sym} (fst {idx}) (let j{d} (snd {idx})"
            f" (prein (* 3 {sym}) {inner})))"
        )
    if isinstance(p, realizers.Ind):
        if realizers._uses_hyp(p.step, 0):
            raise realizers.ExtractionError("a step that consumes its hypothesis")
        sym = f"u{d}"
        base = _item_expr(p.base, hyps, env, f"j{d}", d + 1)
        step = _item_expr(p.step, (p.motive,) + hyps, {**env, p.var: sym}, f"j{d}", d + 1)
        return (
            f"(let n{d} (fst {idx}) (let j{d} (snd {idx})"
            f" (prein (* 3 n{d})"
            f" (if (= n{d} 0) {base} (let {sym} (- n{d} 1) {step})))))"
        )
    raise realizers.ExtractionError(f"no machine form for {type(p).__name__} here")


_CODE_PRELUDE = (
    vm.CANTOR
    + " (def prein (t e) (if e (+ 1 (cantor (+ 1 (cantor t (fst (- e 1)))) (snd (- e 1)))) 0)) "
    "(def preout (t e) (if e (+ 1 (cantor (fst (- e 1)) (+ 1 (cantor t (snd (- e 1)))))) 0))"
)


def extraction_code(proof):
    """The machine code of a closed proof whose statement is not an
    implication realized as a transformer, or None."""
    target = realizers.infer(proof, ())
    normal = realizers.normalize(proof)
    lead = "(emit 1) " if realizers.input_rooted(target) else ""
    if realizers._effective(target, decided=False):
        return vm.program(
            f"(prog {vm.CANTOR}"
            f" (seq {lead}(set k0 0) (while 1 (seq (emit {realizers._enum_item(target)})"
            " (set k0 (+ k0 1))))))"
        )
    if isinstance(normal, realizers.Markov) and isinstance(target, Exists):
        try:
            test = realizers._atom_test(target.body, target.var)
        except realizers.ExtractionError:
            return None
        x = target.var
        return vm.program(
            f"(prog {vm.CANTOR}"
            f" (seq (set {x} 0)"
            f" (while (= {test} 0) (seq (emit 0) (set {x} (+ {x} 1))))"
            f" (emit (+ 1 (cantor 0 (+ 1 (cantor (* 3 {x}) 0)))))))"
        )
    try:
        item = _item_expr(normal, (), {}, "i", 0)
    except realizers.ExtractionError:
        return None
    return vm.program(
        "(prog "
        + _CODE_PRELUDE
        + f" (seq {lead}(set i 0) (while 1 (seq (emit {item}) (set i (+ 1 i))))))"
    )


# ---------------------------------------------------------------------------
# formula text, read and printed one method per precedence level
#
# The reader and printer as they were before one operator table drove
# both: a character loop tokenizes, one parser method reads each
# precedence level (imp, disj, conj, neg, quant, term, summand, factor)
# and each printer spells every connective's level.  proof_tokens is the
# proof reader's character loop of that version.


_KEYWORDS = {"box", "forall", "exists"}


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
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
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
                if name in term_vars(bound_term):
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


def read_formula(text, free=()):
    p = _Parser(_tokenize(text), free)
    f = p.formula()
    if p._peek() != "eof":
        raise ParseError(f"trailing input {p._peek()!r}", p._here())
    return f


def read_term(text, free=()):
    p = _Parser(_tokenize(text), free)
    p.bound = list(free)
    t = p.term()
    if p._peek() != "eof":
        raise ParseError(f"trailing input {p._peek()!r}", p._here())
    return t


def show_term(t, level=0):
    # level 0 = sum position, 1 = product position, 2 = factor position
    base, k = peel(t)
    if base.__class__ is Zero or base.__class__ is One:
        return str(k + (base.__class__ is One))
    if k:
        s = show_term(base) + "+1" * k
        return f"({s})" if level > 0 else s
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Add):
        s = f"{show_term(t.left, 0)}+{show_term(t.right, 1)}"
        return f"({s})" if level > 0 else s
    if isinstance(t, Mul):
        s = f"{show_term(t.left, 1)}*{show_term(t.right, 2)}"
        return f"({s})" if level > 1 else s
    raise TypeError(f"not a term: {t!r}")


_LVL_IMP, _LVL_OR, _LVL_AND, _LVL_NEG, _LVL_QUANT = 0, 1, 2, 3, 4


def _show(f, level):
    if isinstance(f, Atom):
        return f"{show_term(f.left)}{f.rel}{show_term(f.right)}"
    if isinstance(f, Implies):
        s = f"{_show(f.left, _LVL_OR)} -> {_show(f.right, _LVL_IMP)}"
        return f"({s})" if level > _LVL_IMP else s
    if isinstance(f, Or):
        s = f"{_show(f.left, _LVL_OR)} \\/ {_show(f.right, _LVL_AND)}"
        return f"({s})" if level > _LVL_OR else s
    if isinstance(f, And):
        s = f"{_show(f.left, _LVL_AND)} /\\ {_show(f.right, _LVL_NEG)}"
        return f"({s})" if level > _LVL_AND else s
    if isinstance(f, Not):
        s = f"~{_show(f.body, _LVL_NEG)}"
        return f"({s})" if level > _LVL_NEG else s
    if isinstance(f, Forall):
        return f"A {f.var}. {_show(f.body, _LVL_QUANT)}"
    if isinstance(f, Exists):
        return f"E {f.var}. {_show(f.body, _LVL_QUANT)}"
    if isinstance(f, Box):
        return f"box {_show(f.body, _LVL_QUANT)}"
    raise TypeError(f"not a formula: {f!r}")


def show_formula(f):
    return _show(f, _LVL_IMP)


def proof_tokens(text):
    toks = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()":
            toks.append(c)
            i += 1
            continue
        if c == "{":
            j = text.find("}", i)
            if j < 0:
                raise ProofError(f"unclosed {{ at token {len(toks)}")
            toks.append(("brace", text[i + 1 : j].strip()))
            i = j + 1
            continue
        if c == "}":
            raise ProofError(f"stray }} at token {len(toks)}")
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in "(){}":
            j += 1
        toks.append(text[i:j])
        i = j
    return toks


# ---------------------------------------------------------------------------
# the game referee before its costs were capped, its tree tables kept and
# its verdict lines rendered on demand


def decision_cost(f: Formula, budget) -> int:
    """checker._decision_cost without a cap: every node of f priced, by
    plain recursion with no memo on the nodes."""
    if isinstance(f, Atom):
        return 1
    if isinstance(f, (Not, Box)):
        return 1 + decision_cost(f.body, budget)
    if isinstance(f, (And, Or, Implies)):
        return 1 + decision_cost(f.left, budget) + decision_cost(f.right, budget)
    bound = budget.numeral_bound if isinstance(f, Forall) else budget.search_bound
    return 1 + (bound + 1) * decision_cost(f.body, budget)


def tree_tables(nodes):
    """A tree's sorted nodes, incomparable pairs and node codes, computed
    afresh on each call as TreePresentation once did."""
    ns = sorted(nodes, key=lambda n: (len(n), n))
    pairs = [(a, b) for a in ns for b in ns if a[: len(b)] != b and b[: len(a)] != a]
    return ns, pairs, [vm.list_encode(list(n)) for n in ns]


def eager_verdict_lines(tree, labels, ante, mine, budget):
    """The referee's verdict lines for a played theorem1 game, each
    rendered as soon as its check returns."""
    a_formula, c_formula, g_formula = games._statements(tree, tuple(sorted(labels.items())))
    a_stream = WitnessStream.from_items(ante)
    d_stream = WitnessStream.from_items(mine)
    probe = checker.Probe(a_formula, a_stream, trusted=True)
    direct = checker.check_witness(d_stream, g_formula, budget, probes=(probe,))
    lines = [direct.line()]
    if direct.status != "rejected" and games._first_incomparable(
        games.delivered_nodes(ante)
    ):
        applied = combinators.apply_implication(d_stream, a_stream)
        lines.append(checker.check_witness(applied, c_formula, budget).line())
    return tuple(lines)
