import functools
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from ctruth import checker
from ctruth.checker import (
    Budget,
    Probe,
    SynthesisFailed,
    check_realizability,
    check_witness,
    synthesize_sigma03,
)
from ctruth.formula import Implies, conj_all, parse
from ctruth.vm import VMError, godel_encode, program
from ctruth.witness import (
    IOPair,
    Numeral,
    Prefix,
    ShapeMismatch,
    TRIVIAL,
    WS,
    WitnessStream,
    content,
    semantic_content,
    shape_check,
    shape_walk,
)

from golden import _emitter
from oracles import all_tables, first_conflict, holds, render_table, table_correct
from test_acceptance import _FAMILY
from test_witness import _walked_pair

DOUBLING = parse("A x. E y. y=2*x")
B = Budget(pull_limit=64, numeral_bound=3, vm_steps=4000)


def _check(text, f, budget=B):
    return check_witness(WitnessStream.from_text(text), f, budget)


def test_sample_witness_accepted():
    v = _check("(:) (0:0) (1:2) (2:4) (3:6)", DOUBLING)
    assert v.status == "accepted_up_to"


def test_missing_instance_pends():
    v = _check("(:) (0:0) (1:2)", DOUBLING)
    assert v.status == "pending"


def test_wrong_content_rejected():
    v = _check("(:) (0:0) (1:2) (2:5) (3:6)", DOUBLING)
    assert v.status == "rejected"
    assert "(2:5)" in v.line()


def test_functionality_conflict_rejected():
    extending = parse("(E x. x=5) -> (E x. x=9)")
    for text, f, kind in [
        ("(:) (0:0) (0:1)", DOUBLING, "functionality"),
        # the second pair's prefix extends the first's, its answer differs
        ('(:) ("":9) ("(:5)":8)', extending, "monotonicity"),
    ]:
        v = _check(text, f)
        assert v.status == "rejected", text
        assert v.line().endswith(f"reason={kind}"), text


def test_shape_error_rejected():
    v = _check("(: 12)", DOUBLING)
    assert v.status == "rejected"


def test_budget_fields_reported():
    v = _check("(:) (0:0) (1:2) (2:4) (3:6)", DOUBLING)
    assert "pulls=64" in v.line() and "numerals=3" in v.line()


def test_implication_unprobed_is_vacuous():
    f = parse("(E x. x=5) -> (E x. x=9)")
    v = _check("(:)", f)
    assert v.status == "accepted_up_to"


def test_trusted_probe_refutes_transformer():
    f = parse("(E x. x=5) -> (E x. x=9)")
    lead = Prefix(tuple(WitnessStream.from_text("(:5)").pull(1)))
    w = WitnessStream.from_items([TRIVIAL, IOPair((lead,), (Numeral(8),))])
    probe = Probe(parse("E x. x=5"), WitnessStream.from_text("(:5)"), trusted=True)
    v = check_witness(w, f, B, probes=(probe,))
    assert v.status == "rejected"


def test_trusted_probe_passes_honest_transformer():
    f = parse("(E x. x=5) -> (E x. x=9)")
    lead = Prefix(tuple(WitnessStream.from_text("(:5)").pull(1)))
    w = WitnessStream.from_items([TRIVIAL, IOPair((lead,), (Numeral(9),))])
    probe = Probe(parse("E x. x=5"), WitnessStream.from_text("(:5)"), trusted=True)
    v = check_witness(w, f, B, probes=(probe,))
    assert v.status == "accepted_up_to"


def test_check_code_runs_a_machine():
    p = program(
        "(prog (seq (emit 1) (set n 0) (while 1 (seq"
        " (emit (+ 1 (pair (+ 1 (pair (* 3 n) 0)) (+ 1 (pair (* 3 (* 2 n)) 0)))))"
        " (set n (+ n 1))))))"
    )
    assert check_realizability(DOUBLING, p, B).status == "accepted_up_to"


def test_check_realizability_feeds_named_inputs():
    ident = program(
        "(prog (seq (emit 1) (set k 0) (while (< k 8) (seq"
        " (let e (query 0) (if e (emit (+ 1 (pair (+ 1 (pair 2 (fst (- e 1))))"
        " (snd (- e 1))))) (emit 0))) (set k (+ k 1))))))"
    )
    f = parse("(E x. x=2) -> (E x. x=2)")
    ante = WitnessStream.from_text("(: 2)")
    probe = Probe(parse("E x. x=2"), ante.copy(), trusted=True)
    v = check_realizability(f, ident, B, inputs={"0": ante.copy()}, probes=(probe,))
    assert v.status == "accepted_up_to"


def test_synthesize_matches_oracle_on_samples():
    budget = Budget(32, 3, 4000)
    # relativized=True marks sentences whose truth survives cutting the
    # domain at 40 (the successor one needs one value past any cut)
    samples = [
        ("E x. x=3", True),
        ("A x. E y. y=x+1", False),
        ("A x. (x=0 \\/ 0<x)", True),
        ("0=0", True),
    ]
    for text, relativized in samples:
        f = parse(text)
        if relativized:
            assert holds(f, {}, range(40)), text
        w = synthesize_sigma03(f, budget)
        assert check_witness(w, f, budget).status == "accepted_up_to", text


def test_synthesize_false_exhausts():
    for text in ["0=1", "E x. x=x+1", "A x. x<3"]:
        f = parse(text)
        assert not holds(f, {}, range(40)), text
        with pytest.raises(SynthesisFailed):
            synthesize_sigma03(f, Budget(16, 3, 2000))


def test_synthesize_rejects_wrong_shape():
    with pytest.raises(ValueError):
        synthesize_sigma03(parse("A x. E y. A z. z=z"), B)
    with pytest.raises(ValueError):
        synthesize_sigma03(parse("(0=0) -> (0=0)"), B)


def test_synthesized_leads_with_trivial_on_universal_root():
    w = synthesize_sigma03(parse("A x. E y. y=x"), Budget(16, 2, 1000))
    assert w.pull(1) == (TRIVIAL,)


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
@settings(max_examples=30, deadline=None)
def test_synthesis_check_agreement_on_linear_family(a, b):
    # E x. a*x = b style sentences: solvable iff oracle says so
    f = parse(f"E x. {a}*x={b}")
    budget = Budget(24, 4, 2000)
    truth = holds(f, {}, range(25))
    if truth:
        w = synthesize_sigma03(f, budget)
        assert check_witness(w, f, budget).status == "accepted_up_to"
    else:
        with pytest.raises(SynthesisFailed):
            synthesize_sigma03(f, budget)


# ---------------------------------------------------------------------------
# long streams and large numerals


def test_long_doubling_stream_accepted():
    items = [TRIVIAL] + [IOPair((Numeral(x),), (Numeral(2 * x),)) for x in range(1600)]
    v = check_witness(WitnessStream.from_items(items), DOUBLING, Budget(1601, 1599, 4000))
    assert v.status == "accepted_up_to"


def test_large_input_numeral_accepted():
    f = parse("A x. E y. y=x+1")
    items = [TRIVIAL] + [IOPair((Numeral(x),), (Numeral(x + 1),)) for x in (0, 1, 2, 1050)]
    v = check_witness(WitnessStream.from_items(items), f, Budget(5, 2, 4000))
    assert v.status == "accepted_up_to"


# ---------------------------------------------------------------------------
# the indexed discipline pass against the pairwise scan in oracles.py

_DOMAIN = range(3)
_NUMS = st.integers(min_value=0, max_value=2)


@functools.lru_cache(maxsize=None)
def _family_tables(text):
    return all_tables(parse(text), list(_DOMAIN), list(range(4)))


def _walked_or_none(f, items):
    try:
        return [shape_walk(f, it) for it in items if isinstance(it, IOPair)]
    except ShapeMismatch:
        return None


def _fields(v):
    return v.status, v.pair, v.conflict, v.reason, v.missing


def _assert_same_as_scan(f, items, budget):
    index = checker._index
    walked = _walked_or_none(f, items)
    if walked is not None:
        shaped = [p for p, _, _ in walked]
        scanned = first_conflict(f, shaped)
        assert index([path for _, path, _ in walked])[0] == scanned

        def scan(paths):
            assert len(paths) == len(shaped)
            return (scanned, *index(paths)[1:])
    else:
        def scan(paths):
            raise AssertionError("a stream with a shape error reached the discipline check")
    got = check_witness(WitnessStream.from_items(items), f, budget)
    with mock.patch.object(checker, "_index", scan):
        want = check_witness(WitnessStream.from_items(items), f, budget)
    assert _fields(got) == _fields(want)


@st.composite
def _mixed(draw, pool):
    """Items drawn from pool with repeats, some cut short, some trivial."""
    items = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        pick = draw(st.sampled_from(["pair", "pair", "pair", "cut", "trivial", "ws"]))
        p = draw(st.sampled_from(pool)) if pool else TRIVIAL
        if pick == "cut" and p.outputs:
            p = IOPair(p.inputs, p.outputs[: draw(st.integers(0, len(p.outputs) - 1))])
        items.append({"trivial": TRIVIAL, "ws": WS}.get(pick, p))
    return items


@st.composite
def _family_streams(draw):
    text = draw(st.sampled_from(_FAMILY))
    f = parse(text)
    tables = draw(st.lists(st.sampled_from(_family_tables(text)), min_size=1, max_size=3))
    pool = [it for t in tables for it in render_table(f, t, list(_DOMAIN)) if isinstance(it, IOPair)]
    return f, draw(_mixed(pool))


@given(_family_streams())
@settings(max_examples=150, deadline=None)
def test_discipline_matches_scan_on_criterion_2_family(case):
    f, items = case
    _assert_same_as_scan(f, items, Budget(len(items) + 1, 2, 1000))


_SPINES = [
    parse("A x. E y. y=2*x"),
    parse("A x. E y. (x=2*y \\/ x=2*y+1)"),
    parse("A x. A y. E z. z=x+y"),
    parse("(A x. E y. y=x) /\\ E z. z=1"),
    parse("E x. A y. E z. z=x+y"),
]


@st.composite
def _random_streams(draw):
    f = draw(st.sampled_from(_SPINES))
    raw = draw(st.lists(
        st.builds(IOPair,
                  st.lists(st.builds(Numeral, _NUMS), max_size=2).map(tuple),
                  st.lists(st.builds(Numeral, _NUMS), max_size=2).map(tuple)),
        min_size=1, max_size=12))
    pool = [p for p in raw if _walked_or_none(f, [p]) is not None]
    return f, draw(_mixed(pool))


@given(_random_streams())
@settings(max_examples=200, deadline=None)
def test_discipline_matches_scan_on_random_streams(case):
    f, items = case
    _assert_same_as_scan(f, items, Budget(len(items) + 1, 2, 1000))


_ANTE_E = ("(:1) _ (:1) (:2)", "(:1) (:3) _")
_ANTE_A = ("(:) (0:1) (1:2) (2:3) (3:4)", "(:) (0:1) _ (1:5) (2:3)")
# each statement with what its inputs are drawn from: the antecedent
# streams whose leads serve as prefix inputs, or None for a numeral; and
# the right answer to the inputs
_IMPLICATIONS = [
    (parse("(E x. x=1) -> E y. y=2"), (_ANTE_E,), lambda ins: 2),
    (parse("(A x. E y. y=x+1) -> A x. E y. y=x+2"), (_ANTE_A, None), lambda ins: ins[1].value + 2),
    (parse("(E x. x=1) -> (E x. x=1) -> E y. y=3"), (_ANTE_E, _ANTE_E), lambda ins: 3),
    # a code past a prefix: the walk reports the least pair at its nodes
    (parse("(E x. x=1) -> A z. box E y. y=z"), (_ANTE_E, None), lambda ins: _CODES[ins[1].value]),
]


@st.composite
def _implication_streams(draw, honest=False):
    f, sources, answer = draw(st.sampled_from(_IMPLICATIONS))

    def token(bases):
        if bases is None:
            return Numeral(draw(_NUMS))
        items = WitnessStream.from_text(draw(st.sampled_from(bases))).pull(5)
        return Prefix(items[: draw(st.integers(0, len(items)))])

    def pair(ins):
        return IOPair(ins, (Numeral(answer(ins) if honest else draw(_NUMS)),))

    pool = [
        pair(tuple(token(b) for b in sources))
        for _ in range(draw(st.integers(min_value=1, max_value=8)))
    ]
    return f, draw(_mixed(pool))


# the last pair conflicts with the second via equal prefixes and with the
# third via extended ones; the third's subtree comes first in the trie
_NESTED = '("","(:1)":3) ("(:1)","(:2)":3) ("","(:2) _":3) ("(:1)","(:2)":4)'


@given(_implication_streams())
@example((_IMPLICATIONS[2][0], list(WitnessStream.from_text(_NESTED).pull(4))))
@settings(max_examples=200, deadline=None)
def test_discipline_matches_scan_on_extending_prefixes(case):
    f, items = case
    _assert_same_as_scan(f, items, Budget(len(items) + 1, 2, 1000))


# the coverage walk over the discipline trie against the cursor walk in
# oracles.py, on streams the discipline lets through


_BOX = parse("A x. box E y. y=x")
_CODES = [_emitter(IOPair((), (Numeral(v),))) for v in range(3)] + [
    _emitter(),  # emits nothing
    _emitter(TRIVIAL, IOPair((), (Numeral(1),))),
    0,  # no program has this code
    255,  # not program text
    godel_encode("(prog (seq (emit 1) (frob 2)))"),  # fails when run
]


@st.composite
def _box_streams(draw):
    """Codes for each instance and some more, the right one half the time."""
    pool = []
    for x in [0, 1, 2] + draw(st.lists(_NUMS, max_size=3)):
        code = draw(st.one_of(st.just(_CODES[x]), st.sampled_from(_CODES)))
        pool.append(IOPair((Numeral(x),), (Numeral(code),)))
    return _BOX, draw(_mixed(pool)) + [TRIVIAL] + pool


@st.composite
def _correct_family_streams(draw):
    text = draw(st.sampled_from(_FAMILY))
    f = parse(text)
    tables = [t for t in _family_tables(text) if table_correct(f, t, list(_DOMAIN))]
    assume(tables)
    pool = [it for it in render_table(f, draw(st.sampled_from(tables)), list(_DOMAIN))
            if isinstance(it, IOPair)]
    return f, draw(_mixed(pool))


@st.composite
def _probed_streams(draw):
    """A stream with probes for its statement's antecedent, if any."""
    f, items = draw(st.one_of(
        _family_streams(), _correct_family_streams(), _random_streams(),
        _implication_streams(), _implication_streams(honest=True), _box_streams(),
    ))
    probes = []
    for g, sources, _ in _IMPLICATIONS:
        if f is g:
            for _ in range(draw(st.integers(0, 2))):
                text = draw(st.sampled_from(sources[0]))
                probes.append(Probe(f.left, WitnessStream.from_text(text), draw(st.booleans())))
    return f, items, tuple(probes)


def _clean(f, items):
    """The items without the pairs that break the discipline against an
    earlier pair kept, or do not fit the statement."""
    kept, shaped = [], []
    for it in items:
        if isinstance(it, IOPair):
            try:
                p = oracles.shape_check(f, it)
            except ShapeMismatch:
                continue
            if any(oracles.joint_conflict(f, q, p) for q in shaped):
                continue
            shaped.append(p)
        kept.append(it)
    return kept


@given(_probed_streams())
@example((parse("0=0"), [], ()))  # nothing pulled: the root is not reached
@example((parse("A x. x=x"), [TRIVIAL, WS, TRIVIAL], ()))
@example((_BOX, [TRIVIAL, IOPair((Numeral(0),), (Numeral(_CODES[-1]),))], ()))
# two pairs fail at z=0 on one code, reached through two prefix nodes;
# the node of the later pair comes first
@example((_IMPLICATIONS[3][0], list(WitnessStream.from_text(
    '(:) ("",1:0) ("(:1)",0:0) ("",0:0)').pull(4)),
    (Probe(parse("E x. x=1"), WitnessStream.from_text("(:1)")),)))
@settings(max_examples=400, deadline=None)
def test_coverage_walk_matches_the_cursor_walk(case):
    f, items, probes = case
    items = _clean(f, items)
    budget = Budget(len(items) + 1, 2, 1000)
    got = check_witness(WitnessStream.from_items(items), f, budget, probes)
    try:
        want = oracles.check_witness(WitnessStream.from_items(items), f, budget, probes)
    except VMError as e:
        # the cursor walk let a failing program end the check
        assert got.status == "rejected"
        assert got.reason == f"decoded program fails: {e}"
        return
    assert _fields(got) == _fields(want)


# the cost _refuted gates on is read off the spine before the claim is
# built; it must be the cost of the claim it would build
_COSTED = [
    parse("(A x. E y. y=x+1) -> A x. E y. y=x+2"),
    parse("((E x. x=1) -> E y. y=2) -> A z. E w. (w=z \\/ z<w)"),
    parse("A n. ((E x. x=n) -> E y. y=n+1)"),
    DOUBLING,
]
_LEAD = Prefix((IOPair((Numeral(2),), (Numeral(3),)),))
_WITH_LEAD = (_COSTED[0], IOPair((_LEAD, Numeral(2)), (Numeral(4),)))


@given(
    st.sampled_from(_COSTED).flatmap(lambda f: st.tuples(st.just(f), _walked_pair(f))),
    st.integers(min_value=1, max_value=600),
    st.integers(min_value=0, max_value=600),
)
@example(_WITH_LEAD, 32, 8)  # within the allowance: the claim costs 311
@example(_WITH_LEAD, 500, 500)  # over it: the claim costs 251,507
@settings(max_examples=200, deadline=None)
def test_refutation_is_costed_on_the_spine(case, pulls, numerals):
    f, raw = case
    try:
        p = shape_check(f, raw)
    except (ShapeMismatch, TypeError):
        assume(False)
    budget = Budget(pulls, numerals, 100)
    parts = shape_walk(f, p)[2]
    hyps, rest, env = parts
    claim = Implies(conj_all(content(h) for h in hyps), rest) if hyps else rest
    cost = checker._content_cost(parts, budget)
    assert cost == checker._decision_cost(claim, budget)
    assert cost == checker._decision_cost(semantic_content(f, p), budget)
    if cost > checker._DECISION_ALLOWANCE:
        # declined before any of the claim is built or judged
        with mock.patch.object(checker, "content", side_effect=AssertionError), \
                mock.patch.object(checker, "eval3", side_effect=AssertionError):
            assert not checker._refuted(parts, budget)


def test_long_successor_stream_accepted():
    # the trivial pair's whole-statement decision tries one y per x
    f = parse("A x. E y. y=x+1")
    items = [TRIVIAL] + [IOPair((Numeral(x),), (Numeral(x + 1),)) for x in range(400)]
    v = check_witness(WitnessStream.from_items(items), f, Budget(401, 399, 4000))
    assert v.status == "accepted_up_to"
