import pytest
from hypothesis import given, settings, strategies as st

from ctruth.witness import IOPair, Numeral, Prefix, Selector, TRIVIAL, WS, WitnessStream
from ctruth.vm import (
    DecodeError,
    VMError,
    cantor,
    decode_item,
    decode_token,
    doubling_program,
    encode_item,
    encode_token,
    godel_decode,
    godel_encode,
    list_decode,
    list_encode,
    program,
    run_stream,
    successor_program,
    trivial_program,
    uncantor,
)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_cantor_pairing_bijects(a, b):
    assert uncantor(cantor(a, b)) == (a, b)


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=5))
def test_list_encoding_round_trip(xs):
    assert list_decode(list_encode(xs)) == xs


def test_token_encoding_frozen():
    assert encode_token(Numeral(0)) == 0
    assert encode_token(Numeral(2)) == 6
    assert encode_token(Selector(0)) == 1
    assert encode_token(Selector(1)) == 4
    for tok in (Numeral(9), Selector(1), Prefix((TRIVIAL,))):
        assert decode_token(encode_token(tok)) == tok


def test_item_encoding_frozen():
    assert encode_item(WS) == 0
    assert encode_item(TRIVIAL) == 1
    pair = IOPair((Numeral(1),), (Numeral(2),))
    assert decode_item(encode_item(pair)) == pair


def test_program_parses_and_prints():
    p = program("(prog (seq (emit 1) (emit 0)))")
    assert run_stream(p, {}, 100).pull(2) == (TRIVIAL, WS)


def test_bad_programs_rejected():
    for bad in ["(prog)", "(prog (emit 1) extra)", "(prog (frob 1))", "(seq)",
                "(prog (+ 1))", "(prog ((+ 1 2) 3))", "(prog (seq (emit (+ 1))))"]:
        with pytest.raises(VMError):
            run_stream(program(bad), {}, 100).pull(1)
    with pytest.raises(DecodeError):
        godel_decode(godel_encode("(prog (+ 1))"))


def test_emit_loop_and_arithmetic():
    p = program(
        "(prog (seq (set n 0) (while 1 (seq"
        " (emit (+ 1 (pair (+ 1 (pair (* 3 n) 0)) (+ 1 (pair (* 3 (* 2 n)) 0)))))"
        " (set n (+ n 1))))))"
    )
    items = run_stream(p, {}, 5000).pull(3)
    assert items[0] == IOPair((Numeral(0),), (Numeral(0),))
    assert items[2] == IOPair((Numeral(2),), (Numeral(4),))


def test_if_let_div_mod():
    p = program(
        "(prog (seq"
        " (emit (if (< 1 2) 1 0))"
        " (let h (div 7 2) (emit (+ 1 (pair (+ 1 (pair (* 3 h) 0)) (+ 1 (pair (* 3 (mod 7 2)) 0))))))))"
    )
    items = run_stream(p, {}, 1000).pull(2)
    assert items[0] == TRIVIAL
    assert items[1] == IOPair((Numeral(3),), (Numeral(1),))


def test_user_definitions_recurse():
    p = program(
        "(prog (def tri (n) (if n (+ n (tri (- n 1))) 0))"
        " (emit (+ 1 (pair (+ 1 (pair (* 3 (tri 4)) 0)) 0))))"
    )
    (item,) = run_stream(p, {}, 5000).pull(1)
    assert item == IOPair((Numeral(10),), ())


def test_query_reads_named_input():
    src = WitnessStream.from_text("(:) (2:3)")
    p = program(
        "(prog (seq (emit (query 0)) (emit (query 0)) (emit (query 0))))"
    )
    items = run_stream(p, {"0": src}, 2000).pull(3)
    assert items[0] == TRIVIAL
    assert items[1] == IOPair((Numeral(2),), (Numeral(3),))
    assert items[2] == WS  # exhausted input reads as whitespace


def test_step_budget_cuts_the_stream():
    p = program("(prog (seq (set n 0) (while 1 (set n (+ n 1)))))")
    assert run_stream(p, {}, 500).pull(3) == ()


def test_emitted_garbage_is_whitespace():
    # an emit whose code decodes to nothing falls back to whitespace
    p = program("(prog (emit 0))")
    assert run_stream(p, {}, 100).pull(1) == (WS,)


def test_godel_round_trip():
    text = "(prog (seq (emit 1) (emit 0)))"
    code = godel_encode(text)
    p = godel_decode(code)
    assert run_stream(p, {}, 100).pull(2) == (TRIVIAL, WS)


def test_library_programs():
    assert run_stream(trivial_program(), {}, 100).pull(1) == (TRIVIAL,)
    d = run_stream(doubling_program(), {}, 4000).pull(4)
    assert d[0] == TRIVIAL
    assert d[3] == IOPair((Numeral(2),), (Numeral(4),))
    s = run_stream(successor_program(), {}, 4000).pull(3)
    assert s[1] == IOPair((Numeral(0),), (Numeral(1),))
    assert s[2] == IOPair((Numeral(1),), (Numeral(2),))
