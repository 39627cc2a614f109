"""Witness extraction from constructive proofs.

Proof terms are a small natural deduction calculus over the formula
language: hypotheses by index (0 is the innermost binder), lambda and
application for implication, pairing and projections, injections and
case split, generalization and instantiation, existential introduction,
induction, a search rule turning no-counterexample premises into
decidable existentials, and a fixed table of arithmetic axioms.

Extraction normalizes the proof, then walks it once into a realizer
giving item k of the witness from k, run in Python or printed as machine
code.  A statement whose spine only ever demands input (universal
quantifiers, conjunction sides, implication prefixes feeding an
input-only consequent, atoms) needs no computation: a proof of one
certifies its truth, so an enumerator of input paths is a witness.
Existential values and disjunct choices prepend output tokens, pairs and
generalizations split the index, and the forms with no index form keep
stream combinators.
"""

import itertools
import re
from dataclasses import dataclass, fields, replace
from functools import partial

from . import vm
from .checker import Budget, _synth
from .combinators import _shape_or_none, apply_implication, decompose, project_forall, select
from .formula import (
    Add,
    And,
    Atom,
    Box,
    Exists,
    Forall,
    Formula,
    Implies,
    Mul,
    Not,
    Num,
    One,
    Or,
    Term,
    Var,
    Zero,
    _contains,
    eval2,
    eval_term,
    free_vars,
    instantiate,
    numeral,
    numeral_value,
    parse,
    parse_term,
    parts,
    print_formula,
    subst_term,
    term_subst,
    term_vars,
)
from .witness import (
    END,
    IN_NUM,
    IN_PREFIX,
    IN_SEL,
    IOPair,
    Numeral,
    OUT_SEL,
    Prefix,
    Selector,
    TRIVIAL,
    WS,
    WitnessStream,
    input_rooted,
    is_pair,
    slot,
)


class ProofError(Exception):
    """The proof term does not typecheck."""


class ExtractionError(Exception):
    """The proof typechecks but falls outside the compilable forms."""


# ---------------------------------------------------------------------------
# proof terms


@dataclass(frozen=True)
class Hyp:
    index: int


@dataclass(frozen=True)
class Lam:
    ante: Formula
    body: "Proof"


@dataclass(frozen=True)
class App:
    fn: "Proof"
    arg: "Proof"


@dataclass(frozen=True)
class Pair:
    left: "Proof"
    right: "Proof"


@dataclass(frozen=True)
class Fst:
    arg: "Proof"


@dataclass(frozen=True)
class Snd:
    arg: "Proof"


@dataclass(frozen=True)
class Inl:
    arg: "Proof"
    other: Formula  # the right disjunct, not proved


@dataclass(frozen=True)
class Inr:
    other: Formula  # the left disjunct, not proved
    arg: "Proof"


@dataclass(frozen=True)
class Case:
    scrut: "Proof"
    left: "Proof"  # binds hypothesis 0 = left disjunct
    right: "Proof"  # binds hypothesis 0 = right disjunct


@dataclass(frozen=True)
class Gen:
    var: str
    body: "Proof"


@dataclass(frozen=True)
class Inst:
    fn: "Proof"
    term: Term


@dataclass(frozen=True)
class Exi:
    target: Formula  # the existential statement introduced
    term: Term
    body: "Proof"


@dataclass(frozen=True)
class Ind:
    var: str
    motive: Formula
    base: "Proof"  # proves motive[0]
    step: "Proof"  # binds hypothesis 0 = motive, proves motive[var+1]


@dataclass(frozen=True)
class Markov:
    body: "Proof"  # proves (A x. (D -> absurd)) -> absurd, D quantifier-free


@dataclass(frozen=True)
class Ax:
    name: str


Proof = (
    Hyp,
    Lam,
    App,
    Pair,
    Fst,
    Snd,
    Inl,
    Inr,
    Case,
    Gen,
    Inst,
    Exi,
    Ind,
    Markov,
    Ax,
)

# The subproof fields of each constructor, with the number of hypotheses
# each field binds; Hyp and Ax have none.  Every generic walk over proofs
# goes through this table.
_SUBPROOFS = {
    Lam: {"body": 1},
    App: {"fn": 0, "arg": 0},
    Pair: {"left": 0, "right": 0},
    Fst: {"arg": 0},
    Snd: {"arg": 0},
    Inl: {"arg": 0},
    Inr: {"arg": 0},
    Case: {"scrut": 0, "left": 1, "right": 1},
    Gen: {"body": 0},
    Inst: {"fn": 0},
    Exi: {"body": 0},
    Ind: {"base": 0, "step": 1},
    Markov: {"body": 0},
}

# the fields holding a formula or a term, which first-order substitution
# reaches; Gen and Ind bind their variable over everything below them
_FORMULAS = {Lam: "ante", Inl: "other", Inr: "other", Exi: "target", Ind: "motive"}
_TERMS = {Inst: "term", Exi: "term"}


def _map(p, fn):
    """p rebuilt with each subproof c replaced by fn(c, binds); p itself
    when fn gives back every c."""
    changes = {}
    for name, binds in _SUBPROOFS.get(type(p), {}).items():
        c = getattr(p, name)
        d = fn(c, binds)
        if d is not c:
            changes[name] = d
    return replace(p, **changes) if changes else p


_AXIOM_TEXT = {
    "refl": "A x. x=x",
    "sym": "A x. A y. (x=y -> y=x)",
    "trans": "A x. A y. A z. (x=y -> (y=z -> x=z))",
    "plus_zero": "A x. x+0=x",
    "plus_succ": "A x. A y. x+(y+1)=(x+y)+1",
    "mul_zero": "A x. x*0=0",
    "mul_succ": "A x. A y. x*(y+1)=x*y+x",
    "succ_inj": "A x. A y. (x+1=y+1 -> x=y)",
    "zero_ne_succ": "A x. (~(x+1=0))",
    "lt_succ": "A x. x<x+1",
    "lt_trans": "A x. A y. A z. (x<y -> (y<z -> x<z))",
    "add_comm": "A x. A y. x+y=y+x",
    "eq_dec": "A x. A y. (x=y \\/ ~(x=y))",
}

AXIOMS = {name: parse(text) for name, text in _AXIOM_TEXT.items()}


# ---------------------------------------------------------------------------
# typing


def _binders_over(f: Formula, var: str, bound: frozenset) -> set:
    """The variables bound above a free occurrence of var in f, besides
    those in bound."""
    if isinstance(f, Atom):
        return set(bound) if var in term_vars(f.left) | term_vars(f.right) else set()
    if isinstance(f, (Forall, Exists)):
        if f.var == var:
            return set()
        bound = bound | {f.var}
    return set().union(*(_binders_over(g, var, bound) for g in parts(f)))


def _no_capture(body: Formula, var: str, t: Term):
    hit = _binders_over(body, var, frozenset()) & term_vars(t)
    if hit:
        raise ProofError(f"instantiation would capture {sorted(hit)}")


def _quantifier_free(f: Formula) -> bool:
    # implications, boxes and quantifiers stay out of search
    return not _contains(f, (Forall, Exists, Implies, Box))


def _absurd_atom(f: Formula) -> bool:
    """A closed atom that evaluates false (the stand-in for absurdity)."""
    if not isinstance(f, Atom) or term_vars(f.left) | term_vars(f.right):
        return False
    return not eval2(f, {}, 0, 0)


def _same(a: Formula, b: Formula) -> bool:
    """Whether a and b agree up to the values of closed terms, the
    conversion rule of Heyting arithmetic: 0<0+1 is 0<1.  One loop."""
    todo = [(a, b)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if a.__class__ is not b.__class__ or isinstance(a, (Forall, Exists)) and a.var != b.var:
            return False
        if isinstance(a, Atom) and not (a.rel == b.rel and all(
            s == t or not (term_vars(s) or term_vars(t)) and eval_term(s, {}) == eval_term(t, {})
            for s, t in ((a.left, b.left), (a.right, b.right))
        )):
            return False
        todo += zip(parts(a), parts(b))
    return True


def infer(p, hyps: tuple = ()) -> Formula:
    """The statement a proof term establishes, given hypothesis types.

    hyps[0] is the innermost binder.  Statements are compared up to the
    values of closed terms (_same).  Raises ProofError on any misfit.
    """
    return _infer(p, hyps, infer)


def _infer(p, hyps: tuple, rec) -> Formula:
    """infer's rule for the form of p, rec(q, hyps) giving the statement
    of each subproof q: it is called once per subproof, in _SUBPROOFS
    order."""
    if isinstance(p, Hyp):
        if not 0 <= p.index < len(hyps):
            raise ProofError(f"hypothesis {p.index} is not in scope")
        return hyps[p.index]
    if isinstance(p, (Gen, Ind)) and any(p.var in free_vars(h) for h in hyps):
        raise ProofError(f"{p.var} is free in an open hypothesis")
    if isinstance(p, Lam):
        return Implies(p.ante, rec(p.body, (p.ante,) + hyps))
    if isinstance(p, App):
        ft = rec(p.fn, hyps)
        if not isinstance(ft, Implies):
            raise ProofError(f"applying a non-implication: {print_formula(ft)}")
        at = rec(p.arg, hyps)
        if not _same(at, ft.left):
            raise ProofError(
                f"argument proves {print_formula(at)}, wanted {print_formula(ft.left)}"
            )
        return ft.right
    if isinstance(p, Pair):
        return And(rec(p.left, hyps), rec(p.right, hyps))
    if isinstance(p, (Fst, Snd)):
        t = rec(p.arg, hyps)
        if not isinstance(t, And):
            raise ProofError("projecting a non-conjunction")
        return t.left if isinstance(p, Fst) else t.right
    if isinstance(p, Inl):
        return Or(rec(p.arg, hyps), p.other)
    if isinstance(p, Inr):
        return Or(p.other, rec(p.arg, hyps))
    if isinstance(p, Case):
        st = rec(p.scrut, hyps)
        if not isinstance(st, Or):
            raise ProofError("case split on a non-disjunction")
        lt = rec(p.left, (st.left,) + hyps)
        rt = rec(p.right, (st.right,) + hyps)
        if not _same(lt, rt):
            raise ProofError("case branches prove different statements")
        return lt
    if isinstance(p, Gen):
        return Forall(p.var, rec(p.body, hyps))
    if isinstance(p, Inst):
        t = rec(p.fn, hyps)
        if not isinstance(t, Forall):
            raise ProofError("instantiating a non-universal")
        _no_capture(t.body, t.var, p.term)
        return subst_term(t.body, t.var, p.term)
    if isinstance(p, Exi):
        if not isinstance(p.target, Exists):
            raise ProofError("existential introduction needs an existential target")
        _no_capture(p.target.body, p.target.var, p.term)
        want = subst_term(p.target.body, p.target.var, p.term)
        got = rec(p.body, hyps)
        if not _same(got, want):
            raise ProofError(
                f"body proves {print_formula(got)}, wanted {print_formula(want)}"
            )
        return p.target
    if isinstance(p, Ind):
        want0 = subst_term(p.motive, p.var, numeral(0))
        got0 = rec(p.base, hyps)
        if not _same(got0, want0):
            raise ProofError(
                f"base proves {print_formula(got0)}, wanted {print_formula(want0)}"
            )
        wants = subst_term(p.motive, p.var, Add(Var(p.var), One()))
        gots = rec(p.step, (p.motive,) + hyps)
        if not _same(gots, wants):
            raise ProofError(
                f"step proves {print_formula(gots)}, wanted {print_formula(wants)}"
            )
        return Forall(p.var, p.motive)
    if isinstance(p, Markov):
        # body : (A x. (D -> absurd)) -> absurd, for a closed false atom
        t = rec(p.body, hyps)
        ok = (
            isinstance(t, Implies)
            and isinstance(t.left, Forall)
            and isinstance(t.left.body, Implies)
            and t.left.body.right == t.right
            and _absurd_atom(t.right)
        )
        if not ok:
            raise ProofError("search needs a no-counterexample-implies-absurdity premise")
        ex = Exists(t.left.var, t.left.body.left)
        if not _quantifier_free(ex.body):
            raise ProofError("search needs a quantifier-free matrix")
        return ex
    if isinstance(p, Ax):
        if p.name not in AXIOMS:
            raise ProofError(f"unknown axiom {p.name!r}")
        return AXIOMS[p.name]
    raise ProofError(f"not a proof term: {p!r}")


# ---------------------------------------------------------------------------
# normalization


def _shift(p, d: int, cutoff: int = 0):
    if isinstance(p, Hyp):
        return Hyp(p.index + d) if p.index >= cutoff else p
    return _map(p, lambda c, binds: _shift(c, d, cutoff + binds))


def _hsubst(p, j: int, q):
    """Substitute q for hypothesis j, closing that binder."""
    if isinstance(p, Hyp):
        if p.index == j:
            return _shift(q, j)
        return Hyp(p.index - 1) if p.index > j else p
    return _map(p, lambda c, binds: _hsubst(c, j + binds, q))


def _psubst(p, var: str, t: Term, depth: int = 0):
    """Substitute a term for a free first-order variable across a proof;
    p itself when var does not occur free in it.  depth counts the
    hypotheses bound between the top of the substitution and p."""
    if isinstance(p, (Gen, Ind)) and p.var == var:
        return p
    q = _map(p, lambda c, binds: _psubst(c, var, t, depth + binds))
    changes = {}
    name = _FORMULAS.get(type(p))
    if name:
        changes[name] = subst_term(getattr(p, name), var, t)
    name = _TERMS.get(type(p))
    if name:
        changes[name] = term_subst(getattr(p, name), {var: t})
    # a substitution gives back its input when var does not occur in it
    changes = {k: v for k, v in changes.items() if v is not getattr(p, k)}
    if changes:
        q = replace(q, **changes)
    if isinstance(p, (Gen, Ind)) and p.var in term_vars(t) and _reaches_scope(p, q, depth):
        raise ProofError(f"substitution would capture {p.var}")
    return q


# the fields a Gen or Ind binds its variable over
_SCOPE = {Gen: ("body",), Ind: ("motive", "step")}


def _reaches_scope(p, q, depth: int) -> bool:
    """Whether var may occur free in the scope of binder p, which the
    substitution rebuilt as q: a field there changed, or the scope uses
    one of the depth hypotheses bound inside the substitution, whose
    statements may mention var.  Hypotheses bound further out cannot in
    a well-typed proof: _step substitutes for the variable of the Gen it
    instantiates, which they lie outside, or a closed numeral."""
    kids = _SUBPROOFS[type(p)]
    for name in _SCOPE[type(p)]:
        if getattr(q, name) is not getattr(p, name):
            return True
        if name in kids and _uses_hyp(getattr(p, name), kids[name], depth):
            return True
    return False


def _step(p):
    """One bottom-up rewrite pass: every subproof, then a redex at p."""
    p = _map(p, lambda c, _: _step(c))
    if isinstance(p, App) and isinstance(p.fn, Lam):
        return _hsubst(p.fn.body, 0, p.arg)
    if isinstance(p, Fst) and isinstance(p.arg, Pair):
        return p.arg.left
    if isinstance(p, Snd) and isinstance(p.arg, Pair):
        return p.arg.right
    if isinstance(p, Case) and isinstance(p.scrut, Inl):
        return _hsubst(p.left, 0, p.scrut.arg)
    if isinstance(p, Case) and isinstance(p.scrut, Inr):
        return _hsubst(p.right, 0, p.scrut.arg)
    if isinstance(p, Inst) and isinstance(p.fn, Gen):
        return _psubst(p.fn.body, p.fn.var, p.term)
    if isinstance(p, Inst) and isinstance(p.fn, Ind):
        ind, n = p.fn, numeral_value(p.term)
        if n is not None:
            cur = ind.base
            for k in range(n):
                cur = _hsubst(_psubst(ind.step, ind.var, numeral(k)), 0, cur)
            return cur
    return p


NORMALIZE_FUEL = 1000


def normalize(p):
    """p's normal form within NORMALIZE_FUEL reduction steps."""
    for _ in range(NORMALIZE_FUEL):
        q = _step(p)
        if q == p:
            return p
        p = q
    raise ProofError("proof does not normalize within the fuel bound")


# ---------------------------------------------------------------------------
# input-only statements and their enumerators


def _effective(f: Formula, decided: bool = True) -> bool:
    """True when the spine never produces, up to disjunctions that bounded
    evaluation decides if `decided`.  A demand-only statement (decided False)
    is witnessed by enumerating input paths: its proof certifies truth.
    The answer is kept on f per mode, so nested statements are each
    judged once."""
    memo = f._effective
    if memo is None:
        memo = [None, None]  # indexed by decided
        object.__setattr__(f, "_effective", memo)
    elif memo[decided] is not None:
        return memo[decided]
    s = slot(f)
    if s[0] == END:
        answer = True
    elif s[0] in (IN_NUM, IN_PREFIX):  # a prefix is never answered, so owes no output
        answer = _effective(s[2], decided)
    elif s[0] == IN_SEL:
        answer = _effective(s[1], decided) and _effective(s[2], decided)
    else:
        answer = decided and s[0] == OUT_SEL and _quantifier_free(f)
    memo[decided] = answer
    return answer


def _enum_pair(f: Formula, k: int, env: dict):
    """Decode index k into the k-th answered pair of f, or whitespace.

    Input slots branch on k; a decided disjunction contributes the true
    side's selector as output.  env holds the values of f's instantiated
    variables.
    """
    s = slot(f)
    kind = s[0]
    if kind == END:
        return WS if k else TRIVIAL
    if kind == IN_NUM:
        v, rest = vm.uncantor(k)
        return _tagged(Numeral(v), _enum_pair(s[2], rest, {**env, s[1]: v}))
    if kind == IN_SEL:
        return _tagged(Selector(k % 2), _enum_pair(s[1 + (k % 2)], k // 2, env))
    if kind == IN_PREFIX:
        return _tagged(Prefix(()), _enum_pair(s[2], k, env))
    # OUT_SEL over a decidable matrix: assert the side that holds
    choice = 0 if eval2(s[1], env, 0, 0) else 1
    return _answered(Selector(choice), _enum_pair(s[1 + choice], k, env))


def _vm_enum(f: Formula, i: int):
    """Machine expressions (valid, ins) over the index k{i} of a
    demand-only statement's enumeration: whether k{i} names a pair, and
    the code of that pair's input list."""
    s = slot(f)
    kind = s[0]
    if kind == END:
        return f"(= k{i} 0)", "0"
    if kind == IN_NUM:
        valid, ins = _vm_enum(s[2], i + 1)
        return (
            f"(let k{i + 1} (snd k{i}) {valid})",
            f"(let v{i} (fst k{i}) (let k{i + 1} (snd k{i})"
            f" (+ 1 (cantor (* 3 v{i}) {ins}))))",
        )
    if kind == IN_SEL:
        (lv, li), (rv, ri) = _vm_enum(s[1], i + 1), _vm_enum(s[2], i + 1)
        split = f"(let b{i} (mod k{i} 2) (let k{i + 1} (div k{i} 2) (if (= b{i} 0)"
        return (
            f"{split} {lv} {rv})))",
            f"{split} (+ 1 (cantor 1 {li})) (+ 1 (cantor 4 {ri})))))",
        )
    # IN_PREFIX: the empty prefix has token code 2 and consumes no index
    valid, ins = _vm_enum(s[2], i)
    return valid, f"(+ 1 (cantor 2 {ins}))"


def _enum_item(f: Formula) -> str:
    """The enumerator's item at index k0: its pair's code, or 0."""
    if not _effective(f, decided=False):
        raise ExtractionError("a decided disjunction has no enumerator code")
    valid, ins = _vm_enum(f, 0)
    return f"(if {valid} (+ 1 (cantor {ins} 0)) 0)"


# ---------------------------------------------------------------------------
# the realizer: one walk over a normal proof, two back ends
#
# The walk gives each subproof a node: "enum", the enumerator of a
# statement that is demand-only, or decided at a form with no index form;
# "index", a form giving item k from k (Exi, Inl and Inr prepend an output
# token, Pair splits k by parity and Gen and Ind by Cantor pairing, each
# prepending the input token it splits on); or "stream", a form with no
# index form, realized by the stream combinators.  The Python back end
# runs a node as a function of (k, env); the machine back end prints it
# as an expression over a machine index, and has no form for a stream
# node.  A node consumed as a stream, at the root or by a combinator,
# leads with the trivial pair where its statement is input-rooted; one
# composed by index has no lead.  So a proof's stream and code agree.


@dataclass(frozen=True)
class _Node:
    how: str  # "enum", "index" or "stream"
    statement: Formula  # as written, over the variables generalized above
    proof: object
    kids: tuple  # the nodes of the subproofs, in _SUBPROOFS order

    @property
    def lead(self) -> tuple:
        """What the node starts with when consumed as a stream."""
        return (TRIVIAL,) if input_rooted(self.statement) else ()


def _walk(p, hyps: tuple) -> _Node:
    """The realizer node of a normal proof p under the hypothesis
    statements hyps, innermost first.  infer's rule for p's form gives its
    statement from the nodes of its subproofs, each walked once."""
    kids = []

    def rec(q, q_hyps):
        kids.append(_walk(q, q_hyps))
        return kids[-1].statement

    f = _infer(p, hyps, rec)
    if _effective(f, decided=False):
        return _Node("enum", f, p, ())
    if isinstance(p, (Exi, Inl, Inr, Pair, Gen)) or (
            isinstance(p, Ind) and not _uses_hyp(p.step, 0)):
        return _Node("index", f, p, tuple(kids))
    return _Node("enum" if _effective(f) else "stream", f, p, tuple(kids))


def _uses_hyp(p, j: int, n: int = 1) -> bool:
    """Whether p uses one of the hypotheses j, ..., j + n - 1."""
    if isinstance(p, Hyp):
        return j <= p.index < j + n
    kids = _SUBPROOFS.get(type(p), {})
    return any(_uses_hyp(getattr(p, name), j + binds, n) for name, binds in kids.items())


# -- the Python back end


def _stream(node: _Node, env: dict, ctx: tuple) -> WitnessStream:
    """node consumed as a stream.  env holds the values of the variables
    generalized above it, ctx the hypotheses' streams, innermost first."""
    if node.how == "stream":
        return _leaf(node, env, ctx)
    found = map(_items(node, ctx), itertools.count(), itertools.repeat(env))
    return WitnessStream(
        itertools.chain(node.lead, itertools.takewhile(lambda it: it is not None, found))
    )


def _tagged(tok, item):
    """item with tok as its first input: whitespace for no item."""
    if item is None:
        return WS
    return IOPair((tok,) + item.inputs, item.outputs) if is_pair(item) else item


def _by_index(w: WitnessStream, k: int):
    """Item k of a stream composed by index, where a trivial pair is a lead
    passed on: it commits to nothing, so it reads as whitespace."""
    item = w.at(k)
    return WS if item == TRIVIAL else item


def _answered(tok, item):
    """item with tok as its first output."""
    return IOPair(item.inputs, (tok,) + item.outputs) if is_pair(item) else item


def _items(node: _Node, ctx: tuple):
    """node as a function of (k, env) giving its item k, or None past the
    end of a finite stream."""
    p, how = node.proof, node.how
    if how == "enum":
        return partial(_enum_pair, node.statement)
    if how == "stream":
        instances = {}  # a stream per instance of the variables above

        def leaf(k, env):
            key = tuple(env.items())
            if key not in instances:
                instances[key] = _leaf(node, env, ctx)
            return _by_index(instances[key], k)
        return leaf
    # an Ind step binds a hypothesis, which it does not use
    binds = _SUBPROOFS[type(p)].values()
    kids = [_items(kid, (None,) * b + ctx) for kid, b in zip(node.kids, binds)]
    if isinstance(p, (Gen, Ind)):
        shift = 1 if isinstance(p, Ind) else 0  # Ind: instance 0 is the base

        def cantor(k, env):
            n, r = vm.uncantor(k)
            item = kids[0](r, env) if n < shift else kids[-1](r, {**env, p.var: n - shift})
            return _tagged(Numeral(n), item)
        return cantor
    if isinstance(p, Pair):

        def parity(k, env):
            j, side = divmod(k, 2)
            item = kids[side](j, env)
            if item is None:  # the pair ends where both sides end
                return None if kids[1 - side](j, env) is None else WS
            return _tagged(Selector(side), item)
        return parity

    def out(k, env):  # Exi, Inl, Inr
        if isinstance(p, Exi):
            return _answered(Numeral(eval_term(p.term, env)), kids[0](k, env))
        return _answered(Selector(0 if isinstance(p, Inl) else 1), kids[0](k, env))
    return out


def _leaf(node: _Node, env: dict, ctx: tuple) -> WitnessStream:
    """A form with no index form, realized with the stream combinators."""
    p, kids = node.proof, node.kids
    if isinstance(p, Hyp):
        return ctx[p.index]
    if isinstance(p, App):
        return apply_implication(*(_stream(kid, env, ctx) for kid in kids))
    if isinstance(p, (Fst, Snd)):
        left, right = decompose(_stream(kids[0], env, ctx), instantiate(kids[0].statement, env))
        return left if isinstance(p, Fst) else right
    if isinstance(p, Inst):
        f = instantiate(kids[0].statement, env)
        return project_forall(_stream(kids[0], env, ctx), f, eval_term(p.term, env))
    if isinstance(p, Case):
        return _case_stream(node, env, ctx)
    if isinstance(p, Ind):
        return _ind_stream(node, env, ctx)
    if isinstance(p, Markov):
        return _search_stream(instantiate(node.statement, env))
    # a Lam: only a whole proof realizes as a transformer, which extract builds
    raise ExtractionError("an implication value cannot be used as a stream here")


def _case_stream(node: _Node, env: dict, ctx: tuple) -> WitnessStream:
    scrut_node, *branches = node.kids
    whole = instantiate(scrut_node.statement, env)
    scrut = _stream(scrut_node, env, ctx)

    def items():
        for item in scrut:
            norm = _shape_or_none(whole, item) if is_pair(item) else None
            if norm is not None and norm.outputs:
                choice = norm.outputs[0].choice
                break
            yield WS
        else:
            return  # the scrutinee never commits; nothing to emit

        def chosen(q):
            if q.outputs[:1] == (Selector(choice),):
                return IOPair(q.inputs, q.outputs[1:])
            return None

        side = select(scrut, whole, chosen)
        yield from _stream(branches[choice], env, (side,) + ctx)

    return WitnessStream(items)


def _ind_stream(node: _Node, env: dict, ctx: tuple) -> WitnessStream:
    """An induction whose step uses its hypothesis: the motive at n + 1 is
    realized with the motive's stream at n as that hypothesis."""
    p, (base, step) = node.proof, node.kids
    cores = []  # cores[n] realizes the motive at n

    def core(n: int) -> WitnessStream:
        for k in range(len(cores), n + 1):
            cores.append(_stream(step, {**env, p.var: k - 1}, (cores[-1],) + ctx) if k
                         else _stream(base, env, ctx))
        return cores[n]

    instances = map(vm.uncantor, itertools.count())
    return WitnessStream(_tagged(Numeral(n), _by_index(core(n), r)) for n, r in instances)


def _search_stream(ex: Exists) -> WitnessStream:
    """Unbounded least-value search for a decidable existential."""
    tiny = Budget(pull_limit=4, numeral_bound=4, vm_steps=100)

    def items():
        for v in itertools.count():
            env = {ex.var: v}
            if not eval2(ex.body, env, tiny.numeral_bound, tiny.search_bound):
                yield WS
                continue
            # a true quantifier-free matrix is always answered
            for i, o in _synth(ex.body, env, tiny):
                yield IOPair(tuple(i), (Numeral(v),) + tuple(o))
            return

    return WitnessStream(items)


# -- the machine back end

_CODE_PRELUDE = (
    vm.CANTOR
    + " (def prein (t e) (if e (+ 1 (cantor (+ 1 (cantor t (fst (- e 1)))) (snd (- e 1)))) 0)) "
    "(def preout (t e) (if e (+ 1 (cantor (fst (- e 1)) (+ 1 (cantor t (snd (- e 1)))))) 0))"
)


def _machine(node: _Node) -> vm.WCode:
    """A program emitting node's stream: its lead, then item i for i = 0,
    1, ...; an enumerator counts its own index and a search, over an
    atomic or negated-atomic matrix, runs its own loop.  Raises
    ExtractionError where a node has no machine form."""
    if node.how == "stream" and isinstance(node.proof, Markov):
        x, test = node.statement.var, _atom_test(node.statement.body, node.statement.var)
        return vm.program(
            f"(prog {vm.CANTOR} (seq (set {x} 0)"
            f" (while (= {test} 0) (seq (emit 0) (set {x} (+ {x} 1))))"
            f" (emit (+ 1 (cantor 0 (+ 1 (cantor (* 3 {x}) 0)))))))"
        )
    lead = "(emit 1) " if node.lead else ""
    if node.how == "enum":
        return vm.program(
            f"(prog {vm.CANTOR} (seq {lead}(set k0 0)"
            f" (while 1 (seq (emit {_enum_item(node.statement)}) (set k0 (+ k0 1))))))"
        )
    item = _code(node, {}, "i", 0)
    return vm.program(
        "(prog "
        + _CODE_PRELUDE
        + f" (seq {lead}(set i 0) (while 1 (seq (emit {item}) (set i (+ 1 i))))))"
    )


def _code(node: _Node, syms: dict, idx: str, d: int) -> str:
    """node's item at the machine index idx, as an expression.  syms maps
    the generalized variables to the machine symbols holding their
    instances; d keeps generated names fresh."""
    p, kids = node.proof, node.kids
    if node.how == "enum":
        return f"(let k0 {idx} {_enum_item(node.statement)})"
    if node.how == "stream":
        raise ExtractionError(f"no machine form for {type(p).__name__} here")
    if isinstance(p, Exi):
        v = _vm_term_env(p.term, syms)
        return f"(preout (* 3 {v}) {_code(kids[0], syms, idx, d)})"
    if isinstance(p, (Inl, Inr)):
        return f"(preout {1 if isinstance(p, Inl) else 4} {_code(kids[0], syms, idx, d)})"
    j, u = f"j{d}", f"u{d}"
    if isinstance(p, Pair):
        left, right = (_code(kid, syms, j, d + 1) for kid in kids)
        return (f"(let {j} (div {idx} 2)"
                f" (if (= (mod {idx} 2) 0) (prein 1 {left}) (prein 4 {right})))")
    body = _code(kids[-1], {**syms, p.var: u}, j, d + 1)
    n = u if isinstance(p, Gen) else f"n{d}"
    if isinstance(p, Ind):  # instance 0 is the base, n + 1 the step at n
        body = f"(if (= {n} 0) {_code(kids[0], syms, j, d + 1)} (let {u} (- {n} 1) {body}))"
    return f"(let {n} (fst {idx}) (let {j} (snd {idx}) (prein (* 3 {n}) {body})))"


def _vm_term_env(t: Term, env: dict) -> str:
    if isinstance(t, (Zero, One, Num)):  # unary, as in every CODE line: (+ (+ 1 1) 1)
        n = numeral_value(t) - 1
        return "(+ " * n + "1" + " 1)" * n if n >= 0 else "0"
    if isinstance(t, Var):
        if t.name not in env:
            raise ExtractionError(f"term mentions {t.name}, which no loop binds")
        return env[t.name]
    if isinstance(t, Add):
        return f"(+ {_vm_term_env(t.left, env)} {_vm_term_env(t.right, env)})"
    if isinstance(t, Mul):
        return f"(* {_vm_term_env(t.left, env)} {_vm_term_env(t.right, env)})"
    raise ExtractionError(f"no machine form for {t!r}")


def _atom_test(matrix: Formula, var: str) -> str:
    """A machine expression in var that is 1 where an atomic or
    negated-atomic matrix holds and 0 where it fails."""
    body, negated = matrix, False
    if isinstance(body, Not):
        body, negated = body.body, True
    if not isinstance(body, Atom):
        raise ExtractionError("only atoms and their negations decide this way")
    a = _vm_term_env(body.left, {var: var})
    b = _vm_term_env(body.right, {var: var})
    test = f"(= {a} {b})" if body.rel == "=" else f"(< {a} {b})"
    return f"(- 1 {test})" if negated else test


def identity_code(horizon: int = 16) -> vm.WCode:
    """An implication transformer as machine code.

    Echoes input stream 0, leading every answer with the exact
    transcript prefix that prompted it, so applying the emitted stream
    to the same antecedent gives the antecedent back, item for item.
    The transcript is carried as a coded list whose size doubles per
    recorded item, so the echo stops listening after horizon items and
    pads with whitespace; answers prompted earlier stay good.
    """
    return vm.program(
        "(prog (def app (l e)"
        " (if l (+ 1 (pair (fst (- l 1)) (app (snd (- l 1)) e))) (+ 1 (pair e 0))))"
        " (seq (emit 1) (set tr 0) (set k 0)"
        f" (while (< k {horizon}) (seq (let e (query 0)"
        " (seq (set tr (app tr e))"
        " (if e"
        " (emit (+ 1 (pair (+ 1 (pair (+ 2 (* 3 tr)) (fst (- e 1)))) (snd (- e 1)))))"
        " (emit 0))))"
        " (set k (+ k 1))))"
        " (while 1 (emit 0))))"
    )


# ---------------------------------------------------------------------------
# the public face


@dataclass
class Extraction:
    """What a proof yields: the statement, and its realizer.

    .stream and .code are the two back ends of the one realizer the proof
    walk builds, and emit the same items; .code is None where a node has
    no machine form.  A proof of an implication that computes realizes as
    a transformer from antecedent to consequent streams (use .apply).
    """

    formula: Formula
    stream: WitnessStream
    transform: object
    code: vm.WCode

    def apply(self, xs: WitnessStream) -> WitnessStream:
        if self.transform is None:
            raise ExtractionError("this realizer is not a transformer")
        return self.transform(xs)


def extract(proof) -> Extraction:
    """Typecheck, normalize and realize a closed proof."""
    target = infer(proof, ())
    normal = normalize(proof)
    node = _walk(normal, ())
    if isinstance(normal, Lam) and node.how == "stream":  # an implication that computes
        code = identity_code() if normal == Lam(normal.ante, Hyp(0)) else None
        return Extraction(target, None, lambda xs: _stream(node.kids[0], {}, (xs,)), code)
    try:
        code = _machine(node)
    except ExtractionError:
        code = None
    return Extraction(target, _stream(node, {}, ()), None, code)


def decider_code(matrix: Formula, var: str) -> vm.WCode:
    """Code answering every n with a selector: (n : 0) when the atomic
    (or negated-atomic) property holds there, (n : 1) when it fails."""
    test = _atom_test(matrix, var)
    return vm.program(
        f"(prog {vm.CANTOR}"
        f" (seq (emit 1) (set {var} 0) (while 1 (seq"
        f" (emit (+ 1 (cantor (+ 1 (cantor (* 3 {var}) 0))"
        f" (+ 1 (cantor (if {test} 1 4) 0)))))"
        f" (set {var} (+ {var} 1))))))"
    )


def markov_realizer(decider, vm_steps: int = 10000) -> WitnessStream:
    """Unbounded search over a decidability witness.

    The decider is machine code (or a ready stream) for a statement of
    the form A x. (A(x) \\/ ~A(x)): pairs (n : c, ...) with c = 0
    meaning the property holds at n, the remaining outputs witnessing
    it.  The search asks about n = 0, 1, 2, ... in order and, at the
    first hit, re-emits that instance's pairs with the selector shed
    and the found value prepended, witnessing E x. A(x).
    """
    src = vm.run_stream(decider, {}, vm_steps) if isinstance(decider, vm.WCode) else decider

    def verdict_of(item):
        if (
            is_pair(item)
            and item.inputs
            and isinstance(item.inputs[0], Numeral)
            and item.outputs
            and isinstance(item.outputs[0], Selector)
        ):
            return item.inputs[0].value, item.outputs[0].choice
        return None

    def items():
        # one pass over the decider transcript, advancing the candidate
        # past every refusal, until the candidate itself gets a yes
        target = 0
        verdicts = {}
        for item in src:
            seen = verdict_of(item)
            if seen is not None:
                verdicts.setdefault(seen[0], seen[1])
                while verdicts.get(target) == 1:
                    target += 1
                if verdicts.get(target) == 0:
                    break
            yield WS
        else:
            return  # the decider fell silent; nothing to assert
        tag = Numeral(target)
        for item in src:
            if not (is_pair(item) and item.inputs[:1] == (tag,)):
                yield WS
            elif item.outputs and item.outputs[0] == Selector(0):
                yield IOPair(item.inputs[1:], (tag,) + item.outputs[1:])
            elif not item.outputs:
                yield IOPair(item.inputs[1:], (tag,))
            else:
                yield WS

    return WitnessStream(items)


def ti_realizer(tasks) -> WitnessStream:
    """Schedule demand-driven tasks into a stream of answers.

    Each task exposes demands(round, answered) returning ("answer", v)
    or ("need", ids).  The scheduler sweeps the unanswered tasks in
    index order, records answers as (index : value) pairs, and keeps
    sweeping until everything is answered; the emission order is then a
    linear extension of the demand order.  A sweep with no progress
    emits one whitespace and retries with a larger round; after as many
    stalled sweeps as there are tasks, the stream ends unfinished.
    """
    tasks = list(tasks)

    def items():
        answered: dict = {}
        rounds = 0
        stalls = 0
        while len(answered) < len(tasks):
            progress = False
            for i, task in enumerate(tasks):
                if i in answered:
                    continue
                got = task.demands(rounds, dict(answered))
                if got[0] == "answer":
                    answered[i] = got[1]
                    progress = True
                    yield IOPair((Numeral(i),), (Numeral(got[1]),))
            rounds += 1
            if progress:
                stalls = 0
                continue
            stalls += 1
            if stalls > len(tasks):
                return
            yield WS

    return WitnessStream(items)


# ---------------------------------------------------------------------------
# proof text


def parse_proof_text(text: str):
    """Read a proof file: first line the statement, then one proof term.

    Proof syntax: (hyp N), (lam {A} p), (app p q), (pair p q), (fst p),
    (snd p), (inl p {B}), (inr {A} p), (case p l r), (gen x p),
    (inst p {t}), (exi {E} {t} p), (ind x {B} base step), (markov p),
    (ax name): the head is the constructor's name in lower case, then
    its fields in order.  Braces hold formula or term text; the name
    bound by gen is in scope in its body, the one bound by ind in its
    motive and step.  The parsed proof is checked to prove the stated
    line.
    """
    lines = text.strip().splitlines()
    if not lines:
        raise ProofError("empty proof text")
    claimed = parse(lines[0])
    toks = _proof_tokens("\n".join(lines[1:]))
    proof, pos = _parse_proof(toks, 0, ())
    if pos != len(toks):
        raise ProofError(f"trailing proof text: {toks[pos:]}")
    got = infer(proof, ())
    if not _same(got, claimed):
        raise ProofError(
            f"proof establishes {print_formula(got)}, file claims {print_formula(claimed)}"
        )
    return claimed, proof


# one proof token: a parenthesis (group 1), a brace's text up to the
# first "}" (group 2), a "{" no "}" closes or a stray "}" (group 3), or
# a word (group 4); blanks between tokens match nothing
_PROOF_TOKEN = re.compile(r"([()])|\{([^}]*)\}|([{}])|([^\s(){}]+)")


def _proof_tokens(text: str):
    toks = []
    for m in _PROOF_TOKEN.finditer(text):
        paren, brace, lone, word = m.groups()
        if lone:
            what = "unclosed {" if lone == "{" else "stray }"
            raise ProofError(f"{what} at token {len(toks)}")
        toks.append(("brace", brace.strip()) if brace is not None else paren or word)
    return toks


# the proof forms by head word; a form's fields are read in order
_FORMS = {cls.__name__.lower(): cls for cls in Proof}


def _token(toks, pos):
    if pos >= len(toks):
        raise ProofError("unexpected end of proof")
    return toks[pos]


def _parse_proof(toks, pos, bound):
    """Read one (head field ...) form: a "Proof" field is a subproof, a
    Formula or Term field a {...} brace, an int field a hypothesis index
    and a str field a bare name.  A Gen or Ind variable is in scope over
    that form's _SCOPE fields."""
    if _token(toks, pos) != "(":
        raise ProofError(f"expected ( at token {pos}, found {toks[pos]!r}")
    head = _token(toks, pos + 1)
    cls = _FORMS.get(head)
    if cls is None:
        raise ProofError(f"unknown proof form {head!r}")
    pos += 2
    values = {}
    for field in fields(cls):
        scope = bound + (values["var"],) if field.name in _SCOPE.get(cls, ()) else bound
        if field.type == "Proof":
            values[field.name], pos = _parse_proof(toks, pos, scope)
            continue
        if field.type in (Formula, Term):
            if pos >= len(toks) or not isinstance(toks[pos], tuple):
                raise ProofError(f"expected {{...}} at token {pos}")
            read = parse if field.type is Formula else parse_term
            values[field.name] = read(toks[pos][1], free=scope)
        else:
            tok = _token(toks, pos)
            if not isinstance(tok, str) or tok in ("(", ")"):
                raise ProofError(f"expected {field.name} at token {pos}")
            try:
                values[field.name] = field.type(tok)  # int for an index, str for a name
            except ValueError:
                raise ProofError(f"expected {field.name} at token {pos}, found {tok!r}") from None
        pos += 1
    if pos >= len(toks) or toks[pos] != ")":
        raise ProofError(f"expected ) after {head} at token {pos}")
    return cls(**values), pos + 1
