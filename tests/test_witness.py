import pytest
from hypothesis import given, settings, strategies as st

from ctruth.formula import parse
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
    pair_complete,
    semantic_content,
    serialize_item,
    serialize_items,
    shape_check,
)

PARITY = parse("A x. E y. (x=2*y \\/ x=2*y+1)")


def test_text_parses_paper_pair():
    (p,) = WitnessStream.from_text("(25: 12, 1)").pull(1)
    assert p.inputs == (Numeral(25),)
    # the bare 1 reads as a numeral; the shape walk makes it a selector
    shaped = shape_check(PARITY, p)
    assert shaped.outputs == (Numeral(12), Selector(1))
    assert pair_complete(PARITY, shaped)


def test_insufficient_output_is_shaped_but_incomplete():
    (p,) = WitnessStream.from_text("(25: 12)").pull(1)
    assert not pair_complete(PARITY, shape_check(PARITY, p))


def test_too_much_output_is_a_shape_error():
    (p,) = WitnessStream.from_text("(: 12)").pull(1)
    with pytest.raises(ShapeMismatch):
        shape_check(PARITY, p)


def test_trivial_pair_always_fits():
    assert shape_check(PARITY, TRIVIAL) == TRIVIAL
    assert not pair_complete(PARITY, TRIVIAL)


def test_whitespace_and_trivial_tokens():
    items = WitnessStream.from_text("_ (:) _ (0:0)").pull(4)
    assert isinstance(items[0], Whitespace)
    assert items[1] == TRIVIAL
    assert items[3] == IOPair((Numeral(0),), (Numeral(0),))


def test_text_errors():
    for bad in ["(", "(0:0", ")", "(0;0)", "(0:0))"]:
        with pytest.raises(WitnessTextError):
            WitnessStream.from_text(bad).pull(4)


def test_serialization_round_trip_on_sample():
    text = '(:) (0:0) (1:2) (25:12,1) _ ("(:2)":4)'
    items = WitnessStream.from_text(text).pull(6)
    assert serialize_items(items) == text


def test_prefix_token_round_trip():
    inner = tuple(WitnessStream.from_text("(:) (2:3)").pull(2))
    p = IOPair((Prefix(inner), Numeral(2)), (Numeral(4),))
    text = serialize_item(p)
    (q,) = WitnessStream.from_text(text).pull(1)
    assert q == p


def test_prefix_extends_is_positional():
    a = tuple(WitnessStream.from_text("(:) (2:3)").pull(2))
    b = tuple(WitnessStream.from_text("(:) (2:3) (3:4)").pull(3))
    c = tuple(WitnessStream.from_text("(2:3) (:)").pull(2))
    assert Prefix(b).extends(Prefix(a))
    assert Prefix(a).extends(Prefix(a))
    assert not Prefix(a).extends(Prefix(b))
    assert not Prefix(c).extends(Prefix(a))


def test_semantic_content_paper_example():
    f = parse("(A x. E y. y=x+1) -> (A x. E y. y=x+2)")
    lead = Prefix(tuple(WitnessStream.from_text("(2:3) (3:4)").pull(2)))
    pair = IOPair((lead, Numeral(2)), (Numeral(4),))
    want = parse("((A x. E y. y=x+1) /\\ 3=2+1 /\\ 4=3+1) -> 4=2+2")
    assert semantic_content(f, pair) == want


def test_semantic_content_of_trivial_is_the_statement():
    f = parse("A x. E y. y=2*x")
    assert semantic_content(f, TRIVIAL) == f


def test_stream_pull_is_stable_and_extending():
    w = WitnessStream.from_text("(:) (0:0) (1:2)")
    first = w.pull(2)
    again = w.pull(4)
    assert again[:2] == first
    assert w.copy().pull(4) == again


_token = st.one_of(
    st.integers(min_value=0, max_value=60).map(Numeral),
    st.sampled_from((Selector(0), Selector(1))),
)


_items = st.lists(
    st.one_of(
        st.just(WS),
        st.just(TRIVIAL),
        st.builds(
            IOPair,
            st.lists(_token, max_size=3).map(tuple),
            st.lists(_token, max_size=3).map(tuple),
        ),
    ),
    max_size=8,
)


@given(_items)
@settings(max_examples=120, deadline=None)
def test_serialize_parse_round_trip(items):
    text = serialize_items(items)
    back = WitnessStream.from_text(text).pull(len(items))
    # selectors print as their digit and read back as numerals
    norm = []
    for it in items:
        if isinstance(it, IOPair):
            fix = lambda ts: tuple(
                Numeral(t.choice) if isinstance(t, Selector) else t for t in ts
            )
            norm.append(IOPair(fix(it.inputs), fix(it.outputs)))
        else:
            norm.append(it)
    assert list(back) == norm
