import itertools
import re

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from ctruth import checker
from ctruth.formula import (
    And,
    Atom,
    Box,
    Forall,
    Implies,
    Not,
    Or,
    Var,
    Zero,
    disj_all,
    eq,
    exists,
    parse,
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
    content,
    input_rooted,
    pair_complete,
    parse_witness_text,
    semantic_content,
    serialize_item,
    serialize_items,
    shape_check,
    shape_walk,
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


def test_input_rooted_statements_are_those_led_by_an_input():
    led = ["A x. x=x", "(0=0 /\\ 0=1)", "(0=0 -> 0=1)"]
    unled = ["E x. x=2", "(0=0 \\/ 0=1)", "box 0=0", "0=0", "~(0=1)"]
    assert all(input_rooted(parse(t)) for t in led)
    assert not any(input_rooted(parse(t)) for t in unled)


def test_whitespace_and_trivial_tokens():
    items = WitnessStream.from_text("_ (:) _ (0:0)").pull(4)
    assert isinstance(items[0], Whitespace)
    assert items[1] == TRIVIAL
    assert items[3] == IOPair((Numeral(0),), (Numeral(0),))


def test_text_errors():
    for bad in ["(", "(0:0", ")", "(0;0)", "(0:0))"]:
        with pytest.raises(WitnessTextError):
            WitnessStream.from_text(bad).pull(4)


def test_reader_faults_are_text_errors():
    # a backslash that ends the text inside a quote, and a character that
    # str.isdigit accepts but int() refuses
    for text, error in [('(:"\\', "unterminated quote"), ('("(:\\', "unterminated quote"),
                        ("(²:)", "unexpected '²' at 1"), ("(1²:)", "unexpected '²' at 2")]:
        with pytest.raises(WitnessTextError) as e:
            parse_witness_text(text)
        assert str(e.value) == error
    # decimal digits of other scripts still read as numerals
    assert parse_witness_text("(٣:٤٢) (1٣:)") == (
        IOPair((Numeral(3),), (Numeral(42),)), IOPair((Numeral(13),), ()))


def _read(parse, text):
    try:
        return "ok", parse(text)
    except WitnessTextError as e:
        return "error", str(e)
    except (IndexError, ValueError) as e:
        return type(e).__name__, None


def _quoted(text):
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


_PIECES = st.sampled_from(list('():,_"\\') + [" ", "\t", "\n", "0", "7", "٣", "²", "x",
                                                 "(0:1)", "(:)", "_", "(12,0:3)", " _ "])
_TEXTS = st.recursive(
    st.lists(_PIECES, max_size=12).map("".join),
    lambda inner: st.lists(st.one_of(_PIECES, inner.map(_quoted)), max_size=8).map("".join),
    max_leaves=24,
)


@given(_TEXTS)
@example('(:"\\')  # the character reader: IndexError
@example('("(\\"(:\\\\":)')  # the same, one quote further in
@example("(1²:)")  # the character reader: ValueError
@example('(0:"(:) (٣:2)" ,1) _')
@example('(0, x:)')  # the offset of a fault past blanks and commas
@example('("\\\n":)')  # an escaped line end
@settings(max_examples=400, deadline=None)
def test_reader_matches_the_character_reader(text):
    got, want = _read(parse_witness_text, text), _read(oracles.parse_witness_text, text)
    if want[0] == "IndexError":
        assert got == ("error", "unterminated quote")
    elif want[0] == "ValueError":
        c = re.fullmatch(r"unexpected '(.)' at \d+", got[1]).group(1)
        assert c.isdigit() and not c.isdecimal()
    else:
        assert got == want


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


# the offset walks against the recursive oracles, on five spines
_SPINES = [
    parse("A x. E y. y=x+1"),
    exists("x", disj_all(eq(Var("x"), Zero()) for _ in range(6))),
    parse("A x. (E y. y=x /\\ A z. E w. w=z+x)"),
    parse("(A x. E y. y=x+1) -> A x. E y. y=x+2"),
    parse("A x. box E y. y=x"),
]

_spine_token = st.deferred(
    lambda: st.one_of(
        st.integers(min_value=0, max_value=3).map(Numeral),
        st.sampled_from((Selector(0), Selector(1))),
        st.lists(
            st.one_of(
                st.just(WS),
                st.builds(_pair, st.lists(_spine_token, max_size=3), st.lists(_spine_token, max_size=3)),
                st.integers(min_value=0, max_value=1).map(Numeral),
            ),
            max_size=3,
        ).map(lambda items: Prefix(tuple(items))),
    )
)


def _pair(ins, outs):
    return IOPair(tuple(ins), tuple(outs))


@st.composite
def _walked_pair(draw, f):
    """A pair walked along f's spine: mostly the tokens it asks for (as
    text gives them), now and then a random token, cut short or padded."""
    ins, outs = [], []
    g = f
    while not isinstance(g, (Atom, Not)) and draw(st.integers(0, 9)) < 9:
        takes_input = isinstance(g, (Forall, And, Implies))
        if draw(st.integers(0, 19)) == 19:
            tok = draw(_spine_token)
        elif isinstance(g, Implies):
            items = st.one_of(st.just(WS), _walked_pair(g.left))
            tok = Prefix(tuple(draw(st.lists(items, max_size=3))))
        else:
            tok = Numeral(draw(st.integers(0, 1 if isinstance(g, (And, Or)) else 3)))
        (ins if takes_input else outs).append(tok)
        if isinstance(g, (And, Or)):
            if tok not in (Numeral(0), Numeral(1)):
                break
            g = (g.left, g.right)[tok.value]
        elif isinstance(g, Box):
            break
        else:
            g = g.right if isinstance(g, Implies) else g.body
    for toks in (ins, outs):
        if draw(st.integers(0, 3)) == 3:
            toks.append(draw(_spine_token))
    return _pair(ins, outs)


def _outcome(fn, *args):
    # a prefix holding a bare numeral cannot be printed into a message
    try:
        return "ok", fn(*args)
    except (ShapeMismatch, TypeError) as e:
        return type(e).__name__, str(e)


_loose_pair = st.builds(_pair, st.lists(_spine_token, max_size=7), st.lists(_spine_token, max_size=7))


@given(
    st.sampled_from(_SPINES).flatmap(
        lambda f: st.tuples(st.just(f), st.one_of(_walked_pair(f), _loose_pair))
    )
)
@example((_SPINES[4], _pair([Numeral(1), Numeral(2)], [Numeral(3)])))  # input past a code
@example((_SPINES[3], _pair([Prefix((_pair([Numeral(0)], [Numeral(1)]), WS)), Numeral(0)], [Numeral(2)])))
@settings(max_examples=400, deadline=None)
def test_offset_walks_match_the_recursive_oracle(case):
    f, p = case
    got = _outcome(shape_check, f, p)
    assert got == _outcome(oracles.shape_check, f, p)
    # a second pair holding the same token objects, prefixes included,
    # is shaped after p and so may meet a prefix p already shaped
    twin = IOPair(p.inputs, p.outputs[:-1])
    assert _outcome(shape_check, f, twin) == _outcome(oracles.shape_check, f, twin)
    assert _outcome(pair_complete, f, p) == _outcome(oracles.pair_complete, f, p)
    if got[0] == "ok":
        assert pair_complete(f, got[1]) == oracles.pair_complete(f, got[1])


def test_a_prefix_is_shaped_once_per_antecedent_object():
    statements = [
        parse("(A x. E y. y=x+1) -> A x. E y. y=x+2"),  # (0:1) gives a numeral
        parse("(A x. (x=0 \\/ x=1)) -> A x. E y. y=x+2"),  # (0:1) gives a selector
        parse("(E y. y=1) -> A x. E y. y=x+2"),  # (0:1) has no input slot
    ]
    for order in itertools.permutations(statements, 2):
        lead = Prefix((_pair([Numeral(0)], [Numeral(1)]), WS))
        p = _pair([lead, Numeral(0)], [Numeral(2)])
        for f in order:
            kept = lead._shaped
            got = _outcome(shape_check, f, p)
            assert got == _outcome(oracles.shape_check, f, p)
            if got[0] == "ok":
                assert lead._shaped[0] is f.left
                assert shape_check(f, p).inputs[0] is got[1].inputs[0]
            else:
                assert lead._shaped is kept  # a failed shaping stores nothing
    # an equal statement that is another object does not reuse the memo
    lead = Prefix((_pair([Numeral(0)], [Numeral(1)]),))
    p = _pair([lead], [])
    first = shape_check(statements[0], p)
    twin = parse("(A x. E y. y=x+1) -> A x. E y. y=x+2")
    assert shape_check(twin, p) == first
    assert lead._shaped[0] is twin.left


def test_long_selector_path_needs_no_recursion():
    # E x. over a left-folded run of 5,001 disjuncts: the leftmost one is
    # 5,000 selectors deep
    f = exists("x", disj_all(eq(Var("x"), Zero()) for _ in range(5001)))
    p = IOPair((), (Numeral(0),) * 5001)
    shaped = shape_check(f, p)
    assert len(shaped.outputs) == 5001
    assert shaped.outputs[1:] == (Selector(0),) * 5000
    assert pair_complete(f, shaped)
    _, path, _ = shape_walk(f, p)
    assert checker._index([path, path])[0] is None
    assert oracles.first_conflict(f, [shaped, shaped]) is None


# content parts come from the shape walk; the prefix under a binder and
# the nested prefixes put a prefix's memoized parts under an outer env
_CONTENT_SPINES = _SPINES + [
    parse("A x. ((E y. y=x) -> E z. z=x+1)"),
    parse("((E x. x=1) -> E y. y=2) -> A z. E w. w=z+1"),
    parse("A n. (((E x. x=n) -> E y. y=n) -> E w. w=n+1)"),
    parse("A x. ((E x. x=2) -> E z. z=x+1)"),  # the prefix's x shadows the outer one
]
_SHARED = Prefix((_pair([], [Numeral(1)]), WS, _pair([], [Numeral(2)])))
_NESTED_LEAD = Prefix((TRIVIAL, _pair([Prefix((_pair([], [Numeral(1)]),))], [Numeral(2)])))


@given(st.sampled_from(_CONTENT_SPINES).flatmap(lambda f: st.tuples(st.just(f), _walked_pair(f))))
@example((_CONTENT_SPINES[5], _pair([Numeral(2), _SHARED], [Numeral(3)])))
@example((_CONTENT_SPINES[6], _pair([_NESTED_LEAD, Numeral(4)], [Numeral(5)])))
@example((_CONTENT_SPINES[7], _pair([Numeral(3), _NESTED_LEAD], [Numeral(4)])))
@example((_CONTENT_SPINES[8], _pair([Numeral(3), _SHARED], [Numeral(4)])))
@settings(max_examples=400, deadline=None)
def test_content_parts_come_from_the_shape_walk(case):
    f, p = case
    try:
        shaped = shape_check(f, p)
    except (ShapeMismatch, TypeError):
        assume(False)
    want = oracles.content_parts(f, shaped)
    assert shape_walk(f, p)[2] == want
    assert semantic_content(f, p) == content(want)
    # the same token objects under other numerals: the prefixes' parts
    # now come from their memo, put under the new bindings
    twin = IOPair(tuple(Numeral(t.value + 1) if isinstance(t, Numeral) else t for t in p.inputs),
                  p.outputs)
    try:
        shaped = shape_check(f, twin)
    except ShapeMismatch:
        return
    assert shape_walk(f, twin)[2] == oracles.content_parts(f, shaped)
