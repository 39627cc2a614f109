import itertools
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from ctruth.formula import parse
from ctruth.realizers import decider_code
from ctruth.witness import IOPair, Numeral, Prefix, Selector, TRIVIAL, WS, WitnessStream
from ctruth.vm import (
    CANTOR,
    VM,
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
    parse_sexpr,
    program,
    run_stream,
    successor_program,
    trivial_program,
    uncantor,
)

import ctruth.vm as vm_module
import oracles
from oracles import vm_run


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


@given(st.integers(min_value=1, max_value=10**40))
@example(encode_item(IOPair((Prefix((TRIVIAL, WS)), Selector(1)), (Numeral(3),))))
def test_item_decoding_reads_each_token_as_decode_token_does(code):
    ins, outs = uncantor(code - 1)
    want = IOPair(tuple(map(decode_token, list_decode(ins))),
                  tuple(map(decode_token, list_decode(outs))))
    assert decode_item(code) == want


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


def test_a_list_where_a_name_belongs_is_rejected_at_load():
    for bad in ["(prog (seq (emit 1) (let (a) 1 2)))", "(prog (seq (set (a) 1)))",
                "(prog (def f ((a)) 0) (seq (emit 1) (f 2)))"]:
        with pytest.raises(VMError):
            program(bad)
        with pytest.raises(DecodeError):
            godel_decode(godel_encode(bad))


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


def test_doubling_step_counts_are_frozen():
    m = VM(doubling_program(), {}, 400000)
    assert len(list(itertools.islice(m.items(), 400))) == 400
    assert m.steps == 28730
    m = VM(doubling_program(), {}, 20000)
    assert len(list(m.items())) == 278
    assert m.steps == 20001


def test_decider_and_successor_step_counts_are_frozen():
    # every item of both is one fused emit operand, calls of cantor,
    # lone and mkpair and the decider's (if test 1 4) included
    decider = decider_code(parse("2*x=12", free=("x",)), "x")
    m = VM(decider, {}, 400000)
    items = list(itertools.islice(m.items(), 400))
    assert len(items) == 400 and m.steps == 36311 and not m.cut
    assert items[7] == IOPair((Numeral(6),), (Selector(0),))
    assert (items, m.steps) == vm_run(decider, {}, 400000, 400)[:2]
    m = VM(successor_program(), {}, 20000)
    items = list(m.items())
    assert len(items) == 278 and m.steps == 20001 and m.cut
    assert (items, m.steps) == vm_run(successor_program(), {}, 20000)[:2]


def test_cut_flag_tells_a_spent_budget_apart():
    m = VM(doubling_program(), {}, 400000)
    list(itertools.islice(m.items(), 400))
    assert not m.cut
    m = VM(doubling_program(), {}, 20000)
    list(m.items())
    assert m.cut
    m = VM(trivial_program(), {}, 100)
    assert list(m.items()) == [TRIVIAL] and not m.cut


def test_recursion_329_deep_runs_at_the_default_limit():
    # a fresh thread starts from a shallow stack, whatever runs the suite
    got = []
    tri = program("(prog (def tri (n) (if n (+ n (tri (- n 1))) 0))"
                  " (seq (emit 1) (emit (tri 329))))")
    worker = threading.Thread(target=lambda: got.extend(VM(tri, {}, 10**6).items()))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert got == [TRIVIAL, decode_item(329 * 330 // 2)]


# -- the compiled machine against the reference walker of tests/oracles.py

_VARS = ("a", "n", "b")
_HEADS = ("+", "-", "div", "mod", "<", "=")
_INPUTS = {"0": WitnessStream.from_text("(:) (2:3) (1:1)")}
_ATOMS = st.one_of(st.integers(0, 12).map(str), st.sampled_from(_VARS))


def _form(*parts):
    return "(" + " ".join(parts) + ")"


# operators over atoms: pure forms that call no definition
_ARITH = st.recursive(_ATOMS, lambda kids: st.tuples(st.sampled_from(_HEADS), kids, kids)
                      .map(lambda t: _form(*t)), max_leaves=4)


def _compound(kids):
    def call(name, arity):
        return st.lists(kids, min_size=arity, max_size=arity).map(lambda t: _form(name, *t))

    return st.one_of(
        st.tuples(st.sampled_from(_HEADS), kids, kids).map(lambda t: _form(*t)),
        # * and pair square their operands' size; fed back through set or a
        # recursive call they would outgrow memory within the budget, so
        # they only see operands below 16
        st.tuples(st.sampled_from(("*", "pair")), kids, kids)
        .map(lambda t: _form(t[0], f"(mod {t[1]} 16)", f"(mod {t[2]} 16)")),
        st.tuples(st.sampled_from(("fst", "snd", "emit", "emit")), kids).map(lambda t: _form(*t)),
        st.tuples(kids, kids, kids).map(lambda t: _form("if", *t)),
        # arms of equal count, literals or names, and pure arms of any count
        st.tuples(kids, _ATOMS, _ATOMS).map(lambda t: _form("if", *t)),
        st.tuples(kids, _ARITH, _ARITH).map(lambda t: _form("if", *t)),
        st.tuples(st.sampled_from(_VARS), kids, kids).map(lambda t: _form("let", *t)),
        st.tuples(st.sampled_from(_VARS), kids).map(lambda t: _form("set", *t)),
        st.lists(kids, max_size=3).map(lambda t: _form("seq", *t)),
        # a loop on n, which the main form counts up from 0
        st.tuples(kids, kids).map(lambda t: f"(while (< n {t[0]}) (seq {t[1]} (set n (+ n 1))))"),
        st.sampled_from(("0", "9")).map(lambda s: _form("query", s)),
        call("f", 1),
        call("g", 2),
        call("h", 1),
        kids.map(lambda k: f"(f (- a {k}))"),
        st.tuples(st.sampled_from(("f", "g", "frob")), st.lists(kids, max_size=3))
        .map(lambda t: _form(t[0], *t[1])),
    )


_FORMS = st.recursive(_ATOMS, _compound, max_leaves=12)


@st.composite
def _programs(draw):
    """f's body branches on its argument, g's is free, h's calls g and no
    other definition, so that a pure g makes a chain, and pair is shadowed
    by the built-in of that name."""
    f = f"(def f (a) (if a {draw(_FORMS)} {draw(_FORMS)}))"
    g = f"(def g (a n) {draw(_FORMS)})"
    h = f"(def h (a) (+ 1 (g {draw(_ARITH)} (- a 1))))"
    shadowed = f"(def pair (a b) {draw(_FORMS)})"
    body = " ".join(draw(_FORMS) for _ in range(2))
    main = f"(seq (set a 3) (set n 0) (set b 7) (emit {draw(_FORMS)}) {body})"
    return f"(prog {f} {g} {h} {shadowed} {main})"


@given(_programs(), st.integers(1, 400), st.one_of(st.none(), st.integers(0, 6)))
@example("(prog (seq (emit 1) x))", 3, None)  # unbound name
@example("(prog (seq (emit 1) (frob 2)))", 3, None)  # unknown head
@example("(prog (def f (a) a) (seq (emit 1) (f 1 2)))", 3, None)  # arity
@example("(prog (seq (set a 1) (let a 5 (set a 7)) (emit a)"
         " (let b 2 (set b 3)) (emit b)))", 400, None)  # let restores, or unbinds
@example("(prog (seq (set n 0) (while (< n 4) (seq (emit (query 0)) (set n (+ n 1))))"
         " (emit (query 9))))", 400, None)  # an input read past its end, and a missing one
@example("(prog (def f (a) (if a (g (- a 1)) (emit 4)))"
         " (def g (a) (if a (f (- a 1)) 0))"
         " (seq (emit (+ 1 (f 5))) (emit (pair (f 2) (g 3)))))", 400, None)  # mutual recursion
# an emit under a form that fails never runs, so f stays a pure definition
@example("(prog (def f (a) (if a (frob (emit 1)) 0)) (seq (emit 1) (emit (f 0))))", 400, None)
@example("(prog (def g (a b) (emit a)) (def f (a) (if a (g (emit 1)) 0))"
         " (seq (emit 1) (emit (f 0)) (emit (f 1))))", 400, None)  # wrong arity
# the fused path's fallbacks: an unbound name deep in a pure block, a
# product past MAX_BITS inside one, and a budget that ends inside one
@example("(prog (seq (emit 1) (emit (+ 1 (* 2 x)))))", 400, None)
@example("(prog (seq (set a 3) (set n 0) (while (< n 19) (seq (set a (* a a)) (set n (+ n 1))))"
         " (emit (+ 1 (* a a)))))", 400, None)
@example(f"(prog {CANTOR} (seq (emit 1) (emit (cantor 2 3))))", 12, None)
# the same inside a pure definition's body: a name it does not bind, a
# product past MAX_BITS, a budget that ends two calls down, and a call
# with the wrong argument count, which leaves its caller impure
@example("(prog (def f (a) (+ a x)) (seq (emit 1) (emit (+ 1 (f 2)))))", 400, None)
@example("(prog (def sq (a) (* a a)) (seq (set a 3) (set n 0)"
         " (while (< n 19) (seq (set a (sq a)) (set n (+ n 1)))) (emit (+ 1 (sq a)))))", 400, None)
@example(f"(prog {CANTOR} (def lone (t) (+ 1 (cantor t 0)))"
         " (seq (emit 1) (emit (+ 1 (lone 5)))))", 20, None)
@example("(prog (def g (a) (+ a 1)) (def f (a) (+ 1 (g a a))) (seq (emit 1) (emit (f 2))))",
         400, None)
# an if whose arms differ in count is no block; it runs its arms fused
@example("(prog (seq (emit 1) (set n 0) (emit (if 0 (+ 1 2) 5)) (emit (if n 5 (+ 1 2)))))",
         400, None)
# a parameter named twice reads the last of its arguments
@example("(prog (def f (a a) (+ a 1)) (seq (emit 1) (emit (f 2 5))))", 400, None)
@settings(max_examples=600, deadline=None)
def test_compiled_machine_agrees_with_the_walker(text, budget, pulls):
    prog = program(text)
    want_items, want_steps, want_error = vm_run(prog, _INPUTS, budget, pulls)
    m = VM(prog, _INPUTS, budget)
    got, error = [], None
    try:
        for item in itertools.islice(m.items(), pulls):
            got.append(item)
    except Exception as e:
        error = e
    assert got == want_items
    assert m.steps == want_steps
    assert (type(error), str(error)) == (type(want_error), str(want_error))
    assert m.cut == (m.steps > budget)


@pytest.mark.parametrize("depth, steps", [(250, 502), (400, 802)])
def test_deep_pure_nest_runs_as_the_walker_does(depth, steps):
    # deeper than one compiled expression may nest
    prog = program("(prog (emit " + "(+ 1 " * depth + "0" + ")" * depth + "))")
    m = VM(prog, {}, 10000)
    assert (list(m.items()), m.steps) == vm_run(prog, {}, 10000)[:2]
    assert m.steps == steps


def test_a_block_means_what_its_own_program_defines():
    # one main form, two meanings of f: each program compiles its own block
    for body, value in (("(+ a 1)", 4), ("(* a 5)", 11)):
        prog = program(f"(prog (def f (a) {body}) (seq (emit 1) (emit (+ 1 (f 2)))))")
        m = VM(prog, {}, 1000)
        items = list(m.items())
        assert (items, m.steps) == vm_run(prog, {}, 1000)[:2]
        assert (items, m.steps) == ([TRIVIAL, decode_item(value)], 11)


def _chain(links):
    """Definitions f0 ... f<links>, each adding 1 to the one below, and a
    main form emitting the trivial pair and then f<links> at 0."""
    defs = "(def f0 (a) (+ 1 a))" + "".join(
        f" (def f{k} (a) (+ 1 (f{k - 1} a)))" for k in range(1, links + 1))
    return program(f"(prog {defs} (seq (emit 1) (emit (f{links} 0))))")


def test_a_chain_of_pure_definitions_runs_as_the_walker_does():
    # the lowest links fuse, each counting its callees' depth, and the
    # rest run form by form
    prog = _chain(400)
    m = VM(prog, {}, 10**6)
    items = list(m.items())
    assert (len(items), m.steps) == (2, 1609)
    assert (items, m.steps) == vm_run(prog, {}, 10**6)[:2]


def test_a_chain_too_deep_to_run_fails_where_unfused_closures_do(monkeypatch):
    # A fused block nests no more Python frames than its forms run one by
    # one, so a chain that overflows the stack overflows at the same step
    from ctruth import vm

    def run(prog):
        m, got = VM(prog, {}, 10**6), []
        worker = threading.Thread(target=lambda: got.append(_drain(m)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        return got[0], m.steps

    prog = _chain(999)
    fused = run(prog)
    # nothing spelt, nothing fused; a fresh WCode, since the shared one
    # keeps the closures its first run compiled
    monkeypatch.setattr(vm, "_spell", lambda *a: None)
    assert fused == run(vm.WCode(prog.expr))
    assert fused[0] == (1, RecursionError)


def _drain(m):
    """How many items m yields, and the type of the error that ends it."""
    n = 0
    try:
        for _ in m.items():
            n += 1
    except Exception as e:
        return n, type(e)
    return n, None


def _balanced_sum(lo, depth):
    """A balanced tree of + with the distinct literals lo, ..., lo + 2**depth - 1."""
    if not depth:
        return str(lo)
    half = 1 << (depth - 1)
    return f"(+ {_balanced_sum(lo, depth - 1)} {_balanced_sum(lo + half, depth - 1)})"


def test_a_pure_form_past_the_block_cap_is_spelt_once(monkeypatch):
    # 32,767 forms, each spelt about twice: once under the cap while a
    # block over it is tried, once as part of its own block.  Spelling
    # every over-cap subtree whole took 261,889 calls.
    from ctruth import vm

    calls = []
    spell = vm._spell
    monkeypatch.setattr(vm, "_spell", lambda *a: calls.append(1) or spell(*a))
    prog = program(f"(prog (emit {_balanced_sum(0, 14)}))")
    m = VM(prog, {}, 40000)
    (item,) = m.items()
    assert len(calls) <= 3 * 32767
    assert m.steps == 32768
    assert item == decode_item(sum(range(1 << 14)))


def test_a_program_is_read_once_per_text():
    text = "(prog (seq (emit 1) (emit 4)))"
    assert program(text) is program(text)


def test_a_second_run_of_a_program_compiles_nothing(monkeypatch):
    from ctruth import vm

    prog = program(f"(prog {CANTOR} (def lone (t) (+ 1 (cantor t 0))) (seq (emit 1) (set n 0)"
                   " (while (< n 3) (seq (emit (lone (* 3 n))) (set n (+ n 1))))))")
    first = list(VM(prog, {}, 10**4).items())
    calls = []
    for name in ("_compile", "_spell"):
        real = getattr(vm, name)
        monkeypatch.setattr(vm, name, lambda *a, real=real: calls.append(1) or real(*a))
    again = list(VM(prog, {}, 10**4).items())
    assert (again, calls) == (first, [])
    assert len(first) == 4


def test_interleaved_runs_of_one_program_keep_their_own_state():
    # two runs share the compiled closures, each with its own inputs'
    # cursors, steps and cut: the first is cut by its budget
    prog = program("(prog (seq (emit 1) (set n 0) (while (< n 12)"
                   " (seq (emit (+ (query 0) n)) (set n (+ n 1))))))")
    budgets = (60, 10**4)

    def alone(budget):
        m = VM(prog, _INPUTS, budget)
        return list(m.items()), m.steps, m.cut

    want = [alone(b) for b in budgets]
    runs = [VM(prog, _INPUTS, b) for b in budgets]
    got = [[], []]
    for pulled in itertools.zip_longest(*(m.items() for m in runs)):
        for items, item in zip(got, pulled):
            if item is not None:
                items.append(item)
    assert [(items, m.steps, m.cut) for items, m in zip(got, runs)] == want
    assert [cut for _, _, cut in want] == [True, False]
    assert [len(items) for items, _, _ in want] == [5, 13]


# the recursive walks vm's validation and printing loops replaced
def _validate_recursively(x):
    if not isinstance(x, tuple):
        return
    if not x:
        raise VMError("empty form")
    head = x[0]
    if not isinstance(head, str):
        raise VMError(f"a form starts with a name, not {_print_recursively(head)}")
    if head in vm_module._ARITY and len(x) - 1 != vm_module._ARITY[head]:
        raise VMError(f"{head} wants {vm_module._ARITY[head]} arguments")
    if head in ("let", "set") and not isinstance(x[1], str):
        raise VMError(f"{head} binds a name, not {_print_recursively(x[1])}")
    for e in vm_module._operands(x):
        _validate_recursively(e)


def _print_recursively(x):
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    return "(" + " ".join(_print_recursively(e) for e in x) + ")"


def _fault(validate, x):
    try:
        validate(x)
    except VMError as e:
        return str(e)


_SEXPRS = st.recursive(
    st.one_of(st.integers(0, 3), st.sampled_from(("a", "n", "let", "set", "+", "emit", "seq",
                                                  "query", "if", "f"))),
    lambda kids: st.lists(kids, max_size=4).map(tuple), max_leaves=16)


@given(_SEXPRS)
@example(("seq", ("let", ("a",), 1, ()), ("+", 1)))  # the first of three faults
@settings(max_examples=400, deadline=None)
def test_validation_and_printing_agree_with_the_recursive_walks(x):
    assert vm_module.print_sexpr(x) == _print_recursively(x)
    assert _fault(vm_module._validate_form, x) == _fault(_validate_recursively, x)


def test_a_deep_program_reads_validates_and_prints():
    text = "(prog " + "(seq " * 5000 + "(emit 1)" + ")" * 5000 + ")"
    assert program(text).text() == text


def _reading(read, text, seq):
    """read(text) as a token list, its lists (of type seq) spelt with
    parentheses, or its error as (type, text)."""
    try:
        x = read(text)
    except (VMError, RecursionError) as e:
        return type(e), str(e)
    todo, out = [x], []  # a loop, so that deep nesting compares too
    while todo:
        x = todo.pop()
        if type(x) is seq:
            out.append("(")
            todo.append(")")
            todo += reversed(x)
        else:
            out.append(x)
    return out


@given(st.lists(st.sampled_from(["(", ")", "a", "bc", "1", "23", "²", "٣", "x_1", " ", "\n"]),
                max_size=16).map("".join))
@example("(" * 5000 + "a" + ")" * 5000)
@settings(max_examples=500, deadline=None)
def test_reader_agrees_with_the_recursive_reader(text):
    want = _reading(oracles.parse_sexpr, text, list)
    if want[0] is RecursionError:  # too deep for the recursive reader, not for the loop
        words = text.replace("(", " ( ").replace(")", " ) ").split()
        want = [int(w) if w.isdecimal() else w for w in words]
    assert _reading(parse_sexpr, text, tuple) == want
