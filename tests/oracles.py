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
from ctruth.witness import IOPair, Numeral, Selector, TRIVIAL


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
