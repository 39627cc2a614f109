import pytest

from ctruth.combinators import (
    apply_implication,
    box_decode,
    compose,
    decompose,
    normalize_strict,
    project_forall,
)
from ctruth.checker import Budget, check_witness
from ctruth.formula import parse
from ctruth.vm import godel_encode, run_stream
from ctruth.witness import (
    IOPair,
    Numeral,
    Prefix,
    Selector,
    TRIVIAL,
    WS,
    WitnessStream,
    serialize_items,
)

DOUBLING = parse("A x. E y. y=2*x")


def _pairs(stream, n=32):
    return [it for it in stream.pull(n) if isinstance(it, IOPair)]


def test_project_forall_picks_one_instance():
    w = WitnessStream.from_text("(:) (0:0) (1:2) (2:4) (3:6)")
    got = project_forall(w, DOUBLING, 3)
    assert _pairs(got) == [TRIVIAL, IOPair((), (Numeral(6),))]


def test_project_forall_missing_instance_is_silent():
    w = WitnessStream.from_text("(:) (0:0)")
    assert _pairs(project_forall(w, DOUBLING, 5)) == [TRIVIAL]


def test_project_forall_malformed_pair_is_whitespace():
    # (1,2:) gives an input past the output the statement wants next
    w = WitnessStream.from_text("(:) (1,2:) (1:2)")
    got = project_forall(w, DOUBLING, 1).pull(8)
    assert got == (TRIVIAL, WS, IOPair((), (Numeral(2),)))


def test_apply_implication_fires_on_observed_prefix():
    # the transformer answers once its expected antecedent prefix shows up
    ante = WitnessStream.from_text("(:2)")
    lead = Prefix(tuple(WitnessStream.from_text("(:2)").pull(1)))
    w = WitnessStream.from_items([TRIVIAL, IOPair((lead,), (Numeral(7),))])
    out = _pairs(apply_implication(w, ante))
    assert out == [TRIVIAL, IOPair((), (Numeral(7),))]


def test_apply_implication_empty_lead_fires_immediately():
    ante = WitnessStream.from_text("_")
    w = WitnessStream.from_items([TRIVIAL, IOPair((Prefix(()),), (Numeral(3),))])
    assert IOPair((), (Numeral(3),)) in _pairs(apply_implication(w, ante))


def test_apply_implication_wrong_prefix_never_fires():
    ante = WitnessStream.from_text("(:2)")
    lead = Prefix(tuple(WitnessStream.from_text("(:5)").pull(1)))
    w = WitnessStream.from_items([TRIVIAL, IOPair((lead,), (Numeral(7),))])
    assert _pairs(apply_implication(w, ante)) == [TRIVIAL]


def test_decompose_compose_round_trip():
    f = parse("(E x. x=3) /\\ (A x. x+0=x)")
    w = WitnessStream.from_text("(:) (0:3) (1,0:) (1,1:) (1,2:)")
    left, right = decompose(w, f)
    assert _pairs(left) == [TRIVIAL, IOPair((), (Numeral(3),))]
    assert _pairs(right)[1] == IOPair((Numeral(0),), ())
    back = compose(*decompose(w, f))
    merged = _pairs(back)
    assert IOPair((Selector(0),), (Numeral(3),)) in merged
    assert IOPair((Selector(1), Numeral(2)), ()) in merged
    assert merged.count(TRIVIAL) == 1


def test_decompose_wants_a_conjunction():
    with pytest.raises(TypeError):
        decompose(WitnessStream.from_items([]), parse("0=0"))


def test_box_decode_runs_the_coded_machine():
    code = godel_encode("(prog (emit 1))")
    p = box_decode(Numeral(code))
    assert run_stream(p, {}, 100).pull(1) == (TRIVIAL,)
    with pytest.raises(TypeError):
        box_decode(Selector(0))


def test_normalize_strict_sorts_and_drops_noise():
    w = WitnessStream.from_text("_ (2:4) (:) (0:0) (0:0) (1:2)")
    got = normalize_strict(w, DOUBLING)
    assert serialize_items(got.pull(8)) == "(:) (0:0) (1:2) (2:4)"


def test_normalize_strict_stalls_at_gaps():
    w = WitnessStream.from_text("(:) (0:0) (2:4)")
    got = normalize_strict(w, DOUBLING)
    assert serialize_items(got.pull(8)) == "(:) (0:0)"


def test_normalize_strict_drops_bare_trivial_on_output_root():
    f = parse("E x. x=2")
    w = WitnessStream.from_text("(:) (:2)")
    assert normalize_strict(w, f).pull(4) == (IOPair((), (Numeral(2),)),)


def test_applied_stream_checks_for_consequent():
    # doubling witness pushed through a doubling-to-successor transformer
    succ = parse("A x. E y. y=x+1")
    ante = WitnessStream.from_text("(:) (0:0) (1:2) (2:4)")
    pairs = [TRIVIAL]
    for n in range(4):
        lead = Prefix(tuple(ante.copy().pull(1 + n)))
        pairs.append(IOPair((lead, Numeral(n)), (Numeral(n + 1),)))
    out = apply_implication(WitnessStream.from_items(pairs), ante)
    v = check_witness(out, succ, Budget(64, 3, 4000))
    assert v.status == "accepted_up_to"
