import copy
import itertools
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ctruth import realizers
from ctruth.checker import Budget, Probe, check_realizability, check_witness
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
    UnboundVariable,
    Var,
    Zero,
    eval_term,
    numeral,
    parse,
    parts,
    term_vars,
)
from ctruth.realizers import (
    AXIOMS,
    App,
    Ax,
    Case,
    Exi,
    ExtractionError,
    Fst,
    Gen,
    Hyp,
    Ind,
    Inl,
    Inr,
    Inst,
    Lam,
    Markov,
    Pair,
    ProofError,
    Snd,
    _effective,
    _psubst,
    _same,
    _shift,
    _vm_enum,
    decider_code,
    extract,
    identity_code,
    infer,
    markov_realizer,
    normalize,
    parse_proof_text,
    ti_realizer,
)
from ctruth.combinators import apply_implication
from ctruth.vm import VM, run_stream
from ctruth.witness import IOPair, Numeral, Selector, TRIVIAL, WS, WitnessStream

from conftest import FIXTURES
import oracles
from oracles import is_linear_extension, least_satisfying

PROOFS = FIXTURES / "proofs"


def _load(name):
    return parse_proof_text((PROOFS / f"{name}.prf").read_text())


def test_axioms_are_closed_formulas():
    assert "refl" in AXIOMS and "add_comm" in AXIOMS
    for f in AXIOMS.values():
        parse(str(f)) if isinstance(f, str) else f  # formulas already


def test_corpus_proofs_infer_their_statements():
    for path in sorted(PROOFS.glob("*.prf")):
        stmt, proof = parse_proof_text(path.read_text())
        assert infer(proof, ()) == stmt, path.name


def test_proof_errors():
    with pytest.raises(ProofError):
        parse_proof_text("0=0\n(hyp 0)")
    with pytest.raises(ProofError):
        parse_proof_text("E x. x=1\n(exi {E x. x=1} {2} (ax refl))")
    with pytest.raises(ProofError):
        parse_proof_text("0=0\n(app (ax refl) (ax refl))")
    for truncated in ["0=0\n(", "0=0\n(gen", "0=0\n(ax", "0=0\n(hyp", "0=0\n(hyp {0})"]:
        with pytest.raises(ProofError):
            parse_proof_text(truncated)
    with pytest.raises(ProofError, match="unclosed { at token 6"):
        parse_proof_text("0=0\n(inst (ax refl) {0)")
    with pytest.raises(ProofError, match="stray } at token 3"):
        parse_proof_text("A x. x=x\n(ax refl})")
    with pytest.raises(ProofError, match="expected index at token 2, found 'x'"):
        parse_proof_text("0=0\n(hyp x)")


_PROOF_PIECES = ("(", ")", "{", "}", " ", "\n", "\t", "　", "ax", "refl", "hyp", "0", "x",
                 "{0=0}", "{ E x. x=1 }", "é", "²", "(}", "{}", "}{")


def _tokens(tokenize, text):
    try:
        return tokenize(text)
    except ProofError as e:
        return ProofError, str(e)


@given(st.lists(st.sampled_from(_PROOF_PIECES), max_size=20).map("".join))
@example("(inst (ax refl) {0)")
@example("(ax refl})")
@settings(max_examples=300, deadline=None)
def test_proof_tokens_agree_with_the_character_loop(text):
    assert _tokens(realizers._proof_tokens, text) == _tokens(oracles.proof_tokens, text)


def test_proof_text_follows_the_constructor_fields():
    # all 15 forms; the variable of gen and ind is in scope over the body,
    # the motive and the step, and not over the base
    text = """((E x. x=17) /\\ (0=0 \\/ ~(0=0))) /\\ ((A x. x=x) /\\ (A n. (n=0 \\/ E y. y+1=n)))
    (pair
      (pair
        (markov (lam {A x. (x=17 -> 0=1)} (app (inst (hyp 0) {17}) (inst (ax refl) {17}))))
        (case (inst (inst (ax eq_dec) {0}) {0}) (inl (hyp 0) {~(0=0)}) (inr {0=0} (hyp 0))))
      (pair
        (gen x (fst (pair (inst (ax refl) {x}) (ax refl))))
        (snd (pair (ax refl)
          (ind n {n=0 \\/ E y. y+1=n}
            (inl (inst (ax refl) {0}) {E y. y+1=0})
            (inr {n+1=0} (exi {E y. y+1=n+1} {n} (inst (ax refl) {n+1}))))))))"""
    n = ("n",)
    search = Markov(
        Lam(
            parse("A x. (x=17 -> 0=1)"),
            App(Inst(Hyp(0), numeral(17)), Inst(Ax("refl"), numeral(17))),
        )
    )
    split = Case(
        Inst(Inst(Ax("eq_dec"), numeral(0)), numeral(0)),
        Inl(Hyp(0), parse("~(0=0)")),
        Inr(parse("0=0"), Hyp(0)),
    )
    gen = Gen("x", Fst(Pair(Inst(Ax("refl"), Var("x")), Ax("refl"))))
    ind = Ind(
        "n",
        parse("n=0 \\/ E y. y+1=n", free=n),
        Inl(Inst(Ax("refl"), numeral(0)), parse("E y. y+1=0")),
        Inr(
            parse("n+1=0", free=n),
            Exi(parse("E y. y+1=n+1", free=n), Var("n"), Inst(Ax("refl"), _N1)),
        ),
    )
    stmt, proof = parse_proof_text(text)
    assert proof == Pair(Pair(search, split), Pair(gen, Snd(Pair(Ax("refl"), ind))))
    assert stmt == infer(proof)
    with pytest.raises(UnboundVariable, match="unbound variable: n"):
        parse_proof_text("A n. n=n\n(ind n {n=n} (inst (ax refl) {n}) (inst (ax refl) {n+1}))")


_A, _B = parse("0=0"), parse("1=1")
_AA = parse("0=0 \\/ 0=0")
_N1 = Add(Var("n"), One())


def _refl(t):
    return Inst(Ax("refl"), t)


def _grow(t, hyp):
    # from 0<t and t<t+1 conclude 0<t+1
    trans = Inst(Inst(Inst(Ax("lt_trans"), numeral(0)), t), Add(t, One()))
    return App(App(trans, hyp), Inst(Ax("lt_succ"), t))


_IND = Ind(
    "n", parse("0<n+1", free=("n",)), Inst(Ax("lt_succ"), numeral(0)), _grow(_N1, Hyp(0))
)
_AB = parse("0=0 \\/ 1=1")
_FLIP = Ind(
    "n",
    _AB,
    Inl(_refl(numeral(0)), _B),
    Case(Hyp(0), Inr(_A, _refl(numeral(1))), Inl(_refl(numeral(0)), _B)),
)

# one redex per rewrite rule, several under binders so that the de
# Bruijn shifting of substituted proofs is exercised
_REDEXES = [
    (  # beta under a Lam, the argument naming the outer hypothesis
        "beta",
        Lam(_A, App(Lam(_A, Lam(_B, Pair(Hyp(1), Hyp(2)))), Hyp(0))),
        Lam(_A, Lam(_B, Pair(Hyp(1), Hyp(1)))),
    ),
    (  # beta into both Case branches: the argument shifts past their binder
        "beta_into_case",
        Lam(_AA, App(
            Lam(_A, Case(Hyp(1), Pair(Hyp(0), Hyp(1)), Pair(Hyp(1), Hyp(0)))),
            Case(Hyp(0), Hyp(0), Hyp(0)),
        )),
        Lam(_AA, Case(
            Hyp(0),
            Pair(Hyp(0), Case(Hyp(1), Hyp(0), Hyp(0))),
            Pair(Case(Hyp(1), Hyp(0), Hyp(0)), Hyp(0)),
        )),
    ),
    (  # beta into an induction step, past its binder
        "beta_into_ind",
        Lam(_A, App(Lam(_A, Ind("n", _A, Hyp(0), Hyp(1))), Hyp(0))),
        Lam(_A, Ind("n", _A, Hyp(0), Hyp(1))),
    ),
    (  # projections under both Case binders
        "fst_snd",
        Lam(_AA, Case(Hyp(0), Fst(Pair(Hyp(0), Hyp(1))), Snd(Pair(Hyp(1), Hyp(0))))),
        Lam(_AA, Case(Hyp(0), Hyp(0), Hyp(0))),
    ),
    (
        "case_inl",
        Lam(_A, Case(Inl(Hyp(0), _B), Pair(Hyp(0), Hyp(1)), Pair(Hyp(1), Hyp(1)))),
        Lam(_A, Pair(Hyp(0), Hyp(0))),
    ),
    (
        "case_inr",
        Lam(_A, Case(
            Inr(_B, _refl(numeral(2))), Pair(_refl(numeral(2)), Hyp(1)), Pair(Hyp(0), Hyp(1))
        )),
        Lam(_A, Pair(_refl(numeral(2)), Hyp(0))),
    ),
    (
        "inst_gen",
        Inst(Gen("y", _refl(Var("y"))), numeral(4)),
        _refl(numeral(4)),
    ),
    (  # beta under the Ind binder, consuming the induction hypothesis
        "under_ind",
        Ind("n", _IND.motive, _IND.base, App(Lam(_IND.motive, _grow(_N1, Hyp(0))), Hyp(0))),
        _IND,
    ),
    (  # unrolling an instance of induction: each step flips the disjunct
        "inst_ind",
        Inst(_FLIP, numeral(3)),
        Inr(_A, _refl(numeral(1))),
    ),
]


@pytest.mark.parametrize("name,proof,normal", _REDEXES, ids=[r[0] for r in _REDEXES])
def test_normalize_pins_each_rewrite_rule(name, proof, normal):
    assert normalize(proof) == normal
    assert infer(normal) == infer(proof)


def test_instantiation_past_a_binder_it_does_not_reach_normalizes():
    # x is instantiated at y, and the inner Gen binds y, but x does not
    # occur below that binder, so nothing is captured
    ante = parse("(A y. y=y) -> 0=0")
    inner = Gen("y", Inst(Ax("refl"), Var("y")))
    p = Lam(ante, Gen("y", Inst(Gen("x", App(Hyp(0), inner)), Var("y"))))
    normal = normalize(p)
    assert normal == Lam(ante, Gen("y", App(Hyp(0), inner)))
    assert infer(normal) == infer(p) == parse("((A y. y=y) -> 0=0) -> A y. 0=0")
    # the inner Gen uses a hypothesis bound outside the instantiated Gen,
    # whose statement cannot mention x
    ante = parse("(A y. 0=0) -> 0=0")
    inner = Gen("y", Hyp(1))
    p = Lam(parse("0=0"), Lam(ante, Gen("y", Inst(Gen("x", App(Hyp(0), inner)), Var("y")))))
    normal = normalize(p)
    assert normal == Lam(parse("0=0"), Lam(ante, Gen("y", App(Hyp(0), inner))))
    assert infer(normal) == infer(p)


def test_substitution_under_a_binder_that_would_capture_is_refused():
    # x occurs free under the Gen binding y: substituting y for it captures
    with pytest.raises(ProofError, match="capture y"):
        _psubst(Gen("y", Inst(Ax("refl"), Var("x"))), "x", Var("y"))
    with pytest.raises(ProofError, match="capture y"):
        normalize(Inst(Gen("x", Gen("y", Inst(Ax("refl"), Var("x")))), Var("y")))
    # x reaches the inner Gen only through the hypothesis x=x, which is
    # bound inside the instantiated Gen: no field under the binder changes
    x, y = Var("x"), Var("y")
    h = parse("A z. ((A y. z=z) -> 0=0)")
    body = Lam(parse("x=x", free=("x",)), App(Inst(Hyp(1), x), Gen("y", Hyp(0))))
    p = Lam(h, Gen("y", Inst(Gen("x", body), y)))
    assert infer(p) == parse("A z. ((A y. z=z) -> 0=0) -> A y. (y=y -> 0=0)")
    with pytest.raises(ProofError, match="capture y"):
        normalize(p)
    with pytest.raises(ProofError, match="capture y"):
        _psubst(body, "x", y)


def test_extract_enumerates_demand_only_statements():
    stmt, proof = _load("refl")
    ext = extract(proof)
    assert ext.formula == stmt
    b = Budget(48, 6, 6000)
    assert check_witness(ext.stream, stmt, b).status == "accepted_up_to"
    assert ext.code is not None
    assert check_realizability(stmt, ext.code, b).status == "accepted_up_to"


def test_extract_compiles_successor_statement():
    stmt, proof = _load("succ_total")
    ext = extract(proof)
    pairs = [p for p in run_stream(ext.code, {}, 9000).pull(40) if isinstance(p, IOPair)]
    assert IOPair((Numeral(0),), (Numeral(1),)) in pairs
    assert IOPair((Numeral(3),), (Numeral(4),)) in pairs


def test_extract_identity_transformer():
    stmt, proof = _load("identity")
    ext = extract(proof)
    ante = WitnessStream.from_text("(: 2)")
    out = ext.apply(ante.copy())
    got = [p for p in out.pull(16) if isinstance(p, IOPair)]
    assert IOPair((), (Numeral(2),)) in got
    # the compiled form answers through the machine as well
    fed = run_stream(ext.code, {"0": ante.copy()}, 10000)
    applied = apply_implication(fed, ante.copy())
    assert IOPair((), (Numeral(2),)) in [
        p for p in applied.pull(32) if isinstance(p, IOPair)
    ]


def test_extract_induction_flag():
    stmt, proof = _load("pred_flag")
    ext = extract(proof)
    b = Budget(48, 6, 6000)
    assert check_witness(ext.stream, stmt, b).status == "accepted_up_to"
    assert ext.code is not None
    assert check_realizability(stmt, ext.code, b).status == "accepted_up_to"


def test_search_realizer_finds_markov_witness():
    stmt, proof = _load("markov17")
    ext = extract(proof)
    got = [p for p in ext.stream.pull(64) if isinstance(p, IOPair)]
    assert IOPair((), (Numeral(17),)) in got


def test_decider_code_scans_atomic_matrix():
    code = decider_code(parse("x=17", free=("x",)), "x")
    w = markov_realizer(code, vm_steps=60000)
    pairs = [p for p in w.pull(64) if isinstance(p, IOPair) and p.outputs]
    assert pairs and pairs[0].outputs[0] == Numeral(17)


def test_decider_code_rejects_quantified_matrix():
    with pytest.raises(ExtractionError):
        decider_code(parse("E y. y=x", free=("x",)), "x")


def test_markov_realizer_on_stream_decider():
    # hand-rolled verdicts: refuse 0..4, affirm 5
    items = [TRIVIAL]
    for n in range(8):
        items.append(IOPair((Numeral(n),), (Selector(0 if n == 5 else 1),)))
    w = markov_realizer(WitnessStream.from_items(items))
    pairs = [p for p in w.pull(32) if isinstance(p, IOPair) and p.outputs]
    assert pairs[0].outputs[0] == Numeral(5)
    # matches the brute-force least witness
    assert least_satisfying(lambda n: n == 5, 8) == 5


def test_markov_realizer_stays_quiet_without_witness():
    items = [IOPair((Numeral(n),), (Selector(1),)) for n in range(6)]
    w = markov_realizer(WitnessStream.from_items(items))
    assert [p for p in w.pull(32) if isinstance(p, IOPair) and p.outputs] == []
    assert w.pull(32) == (WS,) * 6


def test_case_split_realizer_follows_the_committed_side():
    a = parse("E x. x=1 \\/ E x. x=2")
    swap = Lam(a, Case(Hyp(0), Inr(parse("E x. x=2"), Hyp(0)), Inl(Hyp(0), parse("E x. x=1"))))
    ex = extract(swap)
    # two uncommitted items, then the right disjunct with 2: the stream
    # echoes the wait, then replays the right side as the new left side
    out = ex.apply(WitnessStream.from_text("_ _ (:1,2)"))
    assert out.pull(64) == (WS, WS, WS, WS, IOPair((), (Selector(0), Numeral(2))))
    # a scrutinee that never commits yields one whitespace per item, then ends
    assert ex.apply(WitnessStream.from_text("_ _ _")).pull(64) == (WS, WS, WS)


def test_instantiation_capture_looks_at_occurrences_of_the_variable():
    x, y = "x", "y"
    vacuous = Inst(Gen(x, Gen(y, Inst(Ax("refl"), numeral(0)))), Var(y))
    assert infer(vacuous) == parse("A y. 0=0")
    assert infer(normalize(vacuous)) == parse("A y. 0=0")
    capturing = Inst(Gen(x, Gen(y, Inst(Ax("refl"), Var(x)))), Var(y))
    with pytest.raises(ProofError, match=r"instantiation would capture \['y'\]"):
        infer(capturing)
    # an inner binder of x hides the occurrence from the instantiation
    shadowed = Inst(Gen(x, Gen(y, Gen(x, Inst(Ax("refl"), Var(x))))), Var(y))
    assert infer(shadowed) == parse("A y. A x. x=x")


class _Node:
    def __init__(self, preds, value):
        self.preds = preds
        self.value = value

    def demands(self, rounds, answered):
        if all(p in answered for p in self.preds):
            return ("answer", self.value)
        return ("need", tuple(self.preds))


def test_ti_realizer_linearizes_a_diamond():
    # 0 < 1, 0 < 2, 1 < 3, 2 < 3 with tasks listed in reverse;
    # demands name other tasks by their scheduler index
    preds = {0: [], 1: [0], 2: [0], 3: [1, 2]}
    perm = [3, 2, 1, 0]
    task_of = {node: idx for idx, node in enumerate(perm)}
    tasks = [_Node([task_of[p] for p in preds[node]], node * 10) for node in perm]
    w = ti_realizer(tasks)
    pairs = [p for p in w.pull(64) if isinstance(p, IOPair)]
    order = [perm[p.inputs[0].value] for p in pairs]
    assert sorted(order) == [0, 1, 2, 3]
    assert is_linear_extension(
        order, lambda a, b: a in preds[b], [0, 1, 2, 3]
    )


def test_ti_realizer_gives_up_on_cycles():
    preds = {0: [1], 1: [0]}
    tasks = [_Node(preds[i], i) for i in (0, 1)]
    w = ti_realizer(tasks)
    assert [p for p in w.pull(32) if isinstance(p, IOPair)] == []


def test_identity_code_echoes_within_horizon():
    code = identity_code(horizon=8)
    ante = WitnessStream.from_text("(:) (0:0) (1:2)")
    out = run_stream(code, {"0": ante.copy()}, 50000)
    applied = apply_implication(out, ante.copy())
    got = [p for p in applied.pull(40) if isinstance(p, IOPair)]
    assert IOPair((Numeral(1),), (Numeral(2),)) in got


_ATOMS = [parse(t, free=("x", "y")) for t in ("x=y", "0<x+1", "y*y=x", "1=0")]
# a disjunct under a quantifier is not decided by bounded evaluation
_DISJUNCTS = st.sampled_from(_ATOMS + [parse("A x. x=y", free=("y",))])


@st.composite
def _demand_statements(draw, depth=3):
    """Statements over A, /\\, ->, atoms and \\/ of atoms or universals."""
    kind = draw(st.sampled_from(("atom", "or") + (("forall", "and", "imp") if depth else ())))
    if kind == "atom":
        return draw(st.sampled_from(_ATOMS))
    if kind == "or":
        return Or(draw(_DISJUNCTS), draw(_DISJUNCTS))
    if kind == "forall":
        return Forall(draw(st.sampled_from("xy")), draw(_demand_statements(depth - 1)))
    cls = And if kind == "and" else Implies
    return cls(draw(_demand_statements(depth - 1)), draw(_demand_statements(depth - 1)))


@given(_demand_statements())
@settings(max_examples=300, deadline=None)
def test_one_demand_walk_and_one_enumerator_walk_agree_with_their_copies(f):
    assert _effective(f, False) is oracles._demand_only(f)
    assert _effective(f) is oracles._effective(f)
    assert _vm_enum(f, 0) == (oracles._vm_valid(f, 0), oracles._vm_ins(f, 0))


# Proof forms the fixture corpus does not reach, each with the antecedent
# witness its transformer is applied to (None for a stream): a pair of
# existentials, projections from a hypothesis, an instantiated
# hypothesis, an application of a projected implication, a pair of two
# finite streams, and the enumerator's selector and prefix inputs.
EXTRACTION_FORMS = [
    ("E x. x=1 /\\ E y. y=2",
     "(pair (exi {E x. x=1} {1} (inst (ax refl) {1})) (exi {E y. y=2} {2} (inst (ax refl) {2})))",
     None),
    ("((E x. x=1) /\\ 0=0) -> E x. x=1",
     "(lam {(E x. x=1) /\\ 0=0} (fst (hyp 0)))",
     "(0:1) (1:)"),
    ("(A x. E y. y=x) -> E y. y=3",
     "(lam {A x. E y. y=x} (inst (hyp 0) {3}))",
     "(:) (0:0) (1:1) (2:2) (3:3) (4:4)"),
    ("(((E x. x=1) -> E y. y=1) /\\ E x. x=1) -> E y. y=1",
     "(lam {((E x. x=1) -> E y. y=1) /\\ E x. x=1} (app (fst (hyp 0)) (snd (hyp 0))))",
     '(0,"_ (:1)":1) (1:1)'),
    ("A x. x=x /\\ 0=0", "(pair (ax refl) (inst (ax refl) {0}))", None),
    ("(E x. x=1) -> (E x. x=1) /\\ (E x. x=1)",
     "(lam {E x. x=1} (pair (hyp 0) (hyp 0)))",
     "(:1)"),
    ("0=0 -> 0=0", "(lam {0=0} (hyp 0))", None),
]

_FORMS_BUDGET = Budget(32, 4, 10000)


def _extracted(statement, proof, ante):
    """The extracted witness and the statement it is judged against: the
    consequent, for a transformer applied to the antecedent witness."""
    f, p = parse_proof_text(f"{statement}\n{proof}")
    ext = extract(p)
    if ante is None:
        return ext.stream, f
    return ext.apply(WitnessStream.from_text(ante)), f.right


@pytest.mark.parametrize("statement, proof, ante", EXTRACTION_FORMS)
def test_each_proof_form_extracts_an_accepted_witness(statement, proof, ante):
    w, f = _extracted(statement, proof, ante)
    assert check_witness(w, f, _FORMS_BUDGET).status == "accepted_up_to"


def test_a_decided_disjunction_enumerates_the_true_side():
    w, f = _extracted("A x. A y. (x=y \\/ ~(x=y))", "(ax eq_dec)", None)
    # the enumerator is sparse: 32 items do not reach every bounded input
    assert check_witness(w, f, _FORMS_BUDGET).line() == "VERDICT pending missing=(0,4)"
    assert check_witness(w, f, Budget(256, 4, 10000)).status == "accepted_up_to"


def test_a_hypothesis_lead_composed_by_index_commits_to_nothing():
    # the projected antecedent passes on its lead (:); tagged with the
    # instance, (0:) was refuted against (0:0) by functionality
    w, f = _extracted("(A x. E y. y=x) -> A z. E y. y=z",
                      "(lam {A x. E y. y=x} (gen z (inst (hyp 0) {z})))",
                      "(:) (0:0) (1:1) (2:2) (3:3)")
    assert check_witness(w, f, Budget(48, 3, 1000)).status == "accepted_up_to"


_CURRIED = "(E x. x=1) -> (E y. y=2) -> E y. y=2\n(lam {E x. x=1} (lam {E y. y=2} (hyp 0)))"


def test_a_curried_implication_is_not_a_stream():
    w = WitnessStream.from_text("(:1)")
    ext = extract(parse_proof_text(_CURRIED)[1])
    with pytest.raises(ExtractionError, match="an implication value cannot be used as a stream here"):
        ext.apply(w)


def induction_text(n):
    """0<n+1 by induction on the motive 0<m+1, whose step chains 0<m+1
    and m+1<m+1+1 through lt_trans: unrolled, step 0 proves the motive at
    0+1 and step 1 assumes it at 1."""
    step = ("(app (app (inst (inst (inst (ax lt_trans) {0}) {n+1}) {n+1+1}) (hyp 0))"
            " (inst (ax lt_succ) {n+1}))")
    return f"0<{n}+1\n(inst (ind n {{0<n+1}} (inst (ax lt_succ) {{0}}) {step}) {{{n}}})"


def test_statements_are_compared_up_to_closed_term_values():
    zero_lt_one = Inst(Ax("lt_succ"), numeral(0))  # proves 0<0+1
    assert infer(App(Lam(parse("0<1"), Hyp(0)), zero_lt_one)) == parse("0<1")
    with pytest.raises(ProofError, match="argument proves"):
        infer(App(Lam(parse("0<2"), Hyp(0)), zero_lt_one))


def _same_recursively(a, b):
    """The recursive comparison realizers._same's loop replaced."""
    if a == b:
        return True
    if a.__class__ is not b.__class__:
        return False
    if isinstance(a, Atom):
        return a.rel == b.rel and all(
            s == t or not (term_vars(s) or term_vars(t)) and eval_term(s, {}) == eval_term(t, {})
            for s, t in ((a.left, b.left), (a.right, b.right))
        )
    if isinstance(a, (Forall, Exists)) and a.var != b.var:
        return False
    return all(map(_same_recursively, parts(a), parts(b)))


# spellings of one term: closed ones of the values 0, 1 and 2, which
# compare by value, and open ones, which compare as written
_SPELLINGS = [[Zero(), Add(Zero(), Zero())], [One(), Add(Zero(), One())],
              [numeral(2), Add(One(), One()), Mul(numeral(2), One())],
              [Var("x"), Add(Var("x"), Zero())], [Add(Var("x"), One())]]
_TERM_TWINS = (
    st.sampled_from(_SPELLINGS).flatmap(lambda g: st.tuples(*[st.sampled_from(g)] * 2))
    | st.tuples(*[st.sampled_from(sum(_SPELLINGS, []))] * 2))


@st.composite
def _twins(draw, depth=3):
    """Two statements of much the same shape: each node of the second
    mostly keeps the first's class, variable, relation and term values;
    "same" shares one subformula, "equal" rebuilds it."""
    kind = draw(st.sampled_from(("atom", "same", "equal", "not", "box", "and", "or", "imp",
                                 "forall", "exists") if depth else ("atom",)))
    if kind in ("same", "equal"):
        a = draw(_twins(depth - 1))[0]
        return a, a if kind == "same" else copy.deepcopy(a)
    if kind == "atom":
        rel, (s, s2), (t, t2) = draw(st.sampled_from("=<")), draw(_TERM_TWINS), draw(_TERM_TWINS)
        return Atom(rel, s, t), Atom(draw(st.sampled_from((rel, rel, "<"))), s2, t2)
    if kind in ("forall", "exists"):
        cls, var = Forall if kind == "forall" else Exists, draw(st.sampled_from("xy"))
        a, b = draw(_twins(depth - 1))
        return cls(var, a), draw(st.sampled_from((cls, cls, Forall)))(
            draw(st.sampled_from((var, var, "x"))), b)
    if kind in ("not", "box"):
        cls = Not if kind == "not" else Box
        a, b = draw(_twins(depth - 1))
        return cls(a), draw(st.sampled_from((cls, cls, Not)))(b)
    cls = {"and": And, "or": Or, "imp": Implies}[kind]
    (a, b), (c, d) = draw(_twins(depth - 1)), draw(_twins(depth - 1))
    return cls(a, c), draw(st.sampled_from((cls, cls, And)))(b, d)


@given(_twins())
@settings(max_examples=400, deadline=None)
def test_same_agrees_with_the_recursive_comparison(pair):
    assert _same(*pair) == _same_recursively(*pair)


def test_same_compares_a_deep_statement():
    # 400 conjunctions deep, past what dataclass equality can recurse
    a = b = parse("E x. x=1")
    for _ in range(400):
        a, b = And(a, parse("E x. x=1")), And(b, parse("E x. x=0+1"))
    assert _same(a, b)
    assert not _same(a, And(b.left, parse("E x. x=2")))


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_induction_whose_motive_mentions_its_variable_extracts(n):
    stmt, proof = parse_proof_text(induction_text(n))
    assert _same(infer(normalize(proof)), parse(f"0<{n + 1}"))
    ext = extract(proof)
    assert ext.code is not None
    assert check_witness(ext.stream, stmt, Budget(8, 4, 1000)).status == "accepted_up_to"


def _with_code():
    """The corpus and proof-form extractions that have both a stream and code."""
    texts = [path.read_text() for path in sorted(PROOFS.glob("*.prf"))]
    texts += [f"{statement}\n{proof}" for statement, proof, _ in EXTRACTION_FORMS]
    for text in texts:
        ext = extract(parse_proof_text(text)[1])
        if ext.stream is not None and ext.code is not None:
            yield text.splitlines()[0], ext


def _agree(ext, pulls=40):
    machine = VM(ext.code, step_budget=10**6)
    return ext.stream.pull(pulls) == tuple(itertools.islice(machine.items(), pulls))


def test_the_stream_and_the_code_of_a_proof_emit_the_same_items():
    agreed = {name: _agree(ext) for name, ext in _with_code()}
    assert len(agreed) == 12 and all(agreed.values()), agreed


def _inl_chain(k):
    """A k-deep chain of inl around 0=0, paired with an exi."""
    p = Inst(Ax("refl"), numeral(0))
    for _ in range(k):
        p = Inl(p, parse("0=1"))
    return Pair(p, Exi(parse("E y. y=0"), numeral(0), Inst(Ax("refl"), numeral(0))))


def test_extraction_infers_each_subproof_once(monkeypatch):
    # re-inferring each node's statement made 147, 362, 1,092 and 3,752
    # calls at k = 10, 20, 40 and 80
    from ctruth import realizers

    calls = []
    infer_ = realizers.infer
    monkeypatch.setattr(realizers, "infer", lambda *a: calls.append(1) or infer_(*a))
    counts = {}
    for k in (10, 20, 40, 80):
        calls.clear()
        extract(_inl_chain(k))
        counts[k] = len(calls)
    assert counts[80] - counts[40] == 2 * (counts[40] - counts[20]) == 4 * (counts[20] - counts[10])
    assert counts[80] <= 2 * 80


def _pair_chain(k):
    """A k-deep left-nested pair chain of exi proofs of E x. x=1."""
    e = parse("E x. x=1")
    p = Exi(e, numeral(1), Inst(Ax("refl"), numeral(1)))
    for _ in range(k):
        p = Pair(p, Exi(e, numeral(1), Inst(Ax("refl"), numeral(1))))
    return p


def test_extraction_reads_each_statement_spine_once(monkeypatch):
    # judging each node's statement afresh read 5,756 and 21,506 spine
    # records at k = 100 and 200
    calls = []
    slot_ = realizers.slot
    monkeypatch.setattr(realizers, "slot", lambda f: calls.append(1) or slot_(f))
    counts = {}
    for k in (50, 100, 200):
        calls.clear()
        extract(_pair_chain(k))
        counts[k] = len(calls)
    assert counts[100] <= 2.2 * counts[50] and counts[200] <= 2.2 * counts[100]


# Well-typed proofs, built rule by rule: each rule draws the subproofs it
# needs under the hypotheses and first-order variables it puts in scope.
# Generalized variables come from _NAMES, which no axiom and no other
# binder here uses, so an instance never captures.
_NAMES = "abcd"
_OTHERS = [parse(t) for t in ("0=1", "E y. y=2", "A y. y=y")]
_RULES = ("pair", "inl", "inr", "exi", "gen", "inst", "beta", "proj", "case", "ind",
          "ind_hyp", "markov")


@st.composite
def _terms(draw, scope):
    n = numeral(draw(st.integers(0, 3)))
    if not scope:
        return n
    v = Var(draw(st.sampled_from(scope)))
    return draw(st.sampled_from([n, v, Add(v, One())]))


@st.composite
def _proofs(draw, hyps=(), scope=(), depth=3):
    """A proof well typed under the hypothesis statements hyps, innermost
    first, with the variables of scope generalized above it."""
    fresh = [x for x in _NAMES if x not in scope]
    rule = draw(st.sampled_from(("refl", "lt", "ax") + ("hyp",) * bool(hyps)
                                + (_RULES if depth and fresh else ())))

    def sub(hyps=hyps, scope=scope):
        return draw(_proofs(hyps, scope, depth - 1))

    if rule == "refl" or rule == "lt":
        return Inst(Ax("refl" if rule == "refl" else "lt_succ"), draw(_terms(scope)))
    if rule == "ax":
        return Ax(draw(st.sampled_from(sorted(AXIOMS))))
    if rule == "hyp":
        return Hyp(draw(st.integers(0, len(hyps) - 1)))
    if rule == "pair":
        return Pair(sub(), sub())
    if rule in ("inl", "inr"):
        other = draw(st.sampled_from(_OTHERS))
        return Inl(sub(), other) if rule == "inl" else Inr(other, sub())
    if rule == "exi":
        p = sub()
        f = infer(p, hyps)
        if isinstance(f, Atom):  # abstract the left side
            return Exi(Exists("e", Atom(f.rel, Var("e"), f.right)), f.left, p)
        return Exi(Exists("e", f), draw(_terms(scope)), p)
    x = fresh[0]
    if rule == "gen":
        return Gen(x, sub(scope=scope + (x,)))
    if rule == "inst":
        return Inst(Gen(x, sub(scope=scope + (x,))), draw(_terms(scope)))
    if rule == "beta":
        arg = sub()
        return App(Lam(infer(arg, hyps), sub(hyps=(infer(arg, hyps),) + hyps)), arg)
    if rule == "proj":
        return (Fst if draw(st.booleans()) else Snd)(Pair(sub(), sub()))
    if rule == "case":
        left, right = draw(st.sampled_from(_OTHERS)), draw(st.sampled_from(_OTHERS))
        scrut = draw(st.sampled_from([
            Inl(sub(), right), Inr(left, sub()),
            Inst(Inst(Ax("eq_dec"), draw(_terms(scope))), draw(_terms(scope))),
        ]))
        sides = infer(scrut, hyps)
        if draw(st.booleans()):  # both branches rebuild the disjunction
            return Case(scrut, Inl(Hyp(0), sides.right), Inr(sides.left, Hyp(0)))
        q = _shift(sub(), 1)
        return Case(scrut, q, q)
    if rule == "ind":  # the motive holds at every instance by one proof
        q = sub(scope=scope + (x,))
        step = _shift(_psubst(q, x, Add(Var(x), One())), 1)
        return Ind(x, infer(q, hyps), _psubst(q, x, numeral(0)), step)
    if rule == "ind_hyp":  # the step passes its hypothesis on
        q = sub()
        return Ind(x, infer(q, hyps), q, Hyp(0))
    c = draw(st.integers(0, 3))  # markov: search for c
    return Markov(Lam(
        parse(f"A v. (v={c} -> 0=1)"),
        App(Inst(Hyp(0), numeral(c)), Inst(Ax("refl"), numeral(c))),
    ))


@given(_proofs())
@example(parse_proof_text(induction_text(3))[1])
@example(parse_proof_text(_CURRIED)[1])
@example(_FLIP)
@settings(max_examples=200, deadline=None)
def test_extraction_of_generated_proofs(p):
    f = infer(p)
    assert _same(infer(normalize(p)), f)
    ext = extract(p)
    if ext.stream is None:
        return  # a transformer; its code is the identity's echo or none
    assert check_witness(ext.stream, f, Budget(12, 3, 2000)).status != "rejected"
    want = oracles.extraction_code(p)
    assert (ext.code and ext.code.text()) == (want and want.text())
    if ext.code is not None:
        assert _agree(ext)


@st.composite
def _implications(draw):
    """A proof of an antecedent, and a Lam over it whose body uses it."""
    ante = draw(_proofs(depth=2))
    return ante, Lam(infer(ante), draw(_proofs(hyps=(infer(ante),), depth=2)))


@given(_implications())
@settings(max_examples=100, deadline=None)
def test_transformers_of_generated_proofs(proofs):
    ante, p = proofs
    ext = extract(p)
    if ext.transform is not None:
        w = ext.apply(extract(ante).stream)
        assert check_witness(w, ext.formula.right, Budget(12, 3, 2000)).status != "rejected"
