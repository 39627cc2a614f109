from dataclasses import asdict

import pytest
from hypothesis import example, given, settings, strategies as st

from ctruth.formula import (
    Add,
    And,
    Atom,
    Box,
    Exists,
    FALSE,
    Forall,
    Formula,
    Implies,
    Mul,
    Not,
    Num,
    One,
    Or,
    ParseError,
    TRUE,
    Term,
    UNKNOWN,
    UnboundVariable,
    Var,
    Zero,
    classify,
    eval2,
    eval3,
    eval_term,
    free_vars,
    instantiate,
    numeral,
    numeral_value,
    parse,
    parse_term,
    print_formula,
    print_term,
    subst_term,
    term_subst,
)

import oracles
from oracles import holds


def test_numerals_are_left_leaning_one_chains():
    assert numeral(0) == Zero()
    assert numeral(1) == One()
    assert numeral(3) == Add(Add(One(), One()), One())
    assert numeral_value(numeral(7)) == 7
    # the decimal literal and the explicit sum build the same tree
    assert parse("3=2+1") == parse("3=3")
    assert parse("4=2+2") != parse("4=4")


def test_large_numerals_read_and_substitute_without_recursion():
    assert numeral_value(numeral(5000)) == 5000
    assert numeral_value(Add(numeral(3), Var("x"))) is None
    f = parse("E x. x=2*y", free=("y",))
    got = instantiate(f, {"y": 5000, "x": 1})
    assert print_formula(got) == "E x. x=2*5000"
    # nothing to replace: the formula itself comes back
    assert instantiate(f, {"z": 3}) is f


def test_large_literals_evaluate_and_substitute_without_recursion():
    big = numeral(5000)
    assert eval_term(big, {}) == 5000
    assert eval_term(Add(Var("x"), big), {"x": 2}) == 5002
    assert term_subst(big, {"x": One()}) is big
    f = parse("E x. x=3000")
    assert eval3(f, {}, 0, 3000) is TRUE
    assert eval3(f, {}, 0, 2999) is UNKNOWN
    assert eval2(f, {}, 0, 2999) is False
    assert print_formula(subst_term(f.body, "x", numeral(2999))) == "2999=3000"
    # a run of +1 steps over a variable is walked in a loop, too
    t = Var("y")
    for _ in range(5000):
        t = Add(t, One())
    assert eval_term(t, {"y": 2}) == 5002
    assert eval2(Atom("=", t, numeral(5002)), {"y": 2}, 0, 0) is True
    assert term_subst(t, {"x": One()}) is t
    assert numeral_value(term_subst(t, {"y": numeral(3)})) == 5003


def test_large_literals_hash_without_recursion():
    assert hash(numeral(3000)) == hash(numeral(3000))
    f = parse("E x. x=3000")
    assert hash(f) == hash(parse("E x. x=3000"))
    # equal terms hash alike, however they were built
    assert hash(numeral(3)) == hash(Add(Add(One(), One()), One()))
    assert {f: "big"}[parse("E x. x=2999+1")] == "big"
    t, u = Var("y"), Var("y")
    for _ in range(5000):
        t, u = Add(t, One()), Add(u, One())
    assert t == u and hash(t) == hash(u)
    assert hash(Add(numeral(4), Var("x"))) == hash(Add(numeral(4), Var("x")))
    assert len({numeral(4000), numeral(4000), Add(numeral(3999), One())}) == 1


def test_parse_precedence():
    f = parse("0=0 /\\ 0=1 \\/ 1=1 -> 0=0")
    assert isinstance(f, Implies)
    assert isinstance(f.left, Or)
    assert isinstance(f.left.left, And)


def test_quantifier_scope_is_tight():
    # the matrix must be parenthesized to fall under the binder
    with pytest.raises(UnboundVariable):
        parse("E x. x=2 /\\ x<3")
    f = parse("E x. (x=2 /\\ x<3)")
    assert isinstance(f, Exists) and isinstance(f.body, And)


def test_bounded_quantifiers_desugar():
    f = parse("A x < 3. x=x")
    assert isinstance(f, Forall) and isinstance(f.body, Implies)
    g = parse("E x < 3. x=x")
    assert isinstance(g, Exists) and isinstance(g.body, And)


def test_box_parses_and_prints():
    f = parse("box E x. x=2")
    assert isinstance(f, Box) and isinstance(f.body, Exists)
    assert parse(print_formula(f)) == f


# a `+1` run after its base, and where the run stands as a factor
@pytest.mark.parametrize("text,shown", [
    ("x+1+1=0+1+1", "x+1+1=2"),
    ("(x+1+1)*2=2*(x*y+1)", "(x+1+1)*2=2*(x*y+1)"),
    ("x+(y+1)=(x+y)+1", "x+(y+1)=x+y+1"),
    ("x*(y+1)+1<x+y*1+1", "x*(y+1)+1<x+y*1+1"),
])
def test_a_run_of_steps_prints_after_its_base(text, shown):
    assert print_formula(parse(text, free=("x", "y"))) == shown


def test_parse_errors():
    for bad in ["", "E x.", "0=", "(0=0", "0 ? 1", "A . x=x"]:
        with pytest.raises(ParseError):
            parse(bad)
    with pytest.raises(UnboundVariable):
        parse("x=0")


def test_free_variables_allowed_when_declared():
    f = parse("x=2*y", free=("x", "y"))
    assert free_vars(f) == {"x", "y"}
    t = parse_term("x+1", free=("x",))
    assert subst_term(parse("E y. y=x", free=("x",)), "x", t) == parse(
        "E y. y=x+1", free=("x",)
    )


def test_classify_sigma03_shapes():
    yes = ["E x. x=2", "A x. E y. y=x", "E x. A y. E z. z=x+y", "0=0",
           "A x. (x=0 \\/ 0<x)"]
    no = ["A x. E y. A z. z=z", "(E x. x=1) -> 0=0", "A x. box x=x"]
    for s in yes:
        assert classify(parse(s)).sigma03_shape, s
    for s in no:
        assert not classify(parse(s)).sigma03_shape, s


def test_classify_counts_and_polarity():
    c = classify(parse("(E x. x=1) -> (A y. y=y)"))
    assert not c.implication_free
    assert c.impl_nesting_depth == 1
    assert c.occurrence_polarity[(0,)] != c.occurrence_polarity[(1,)]


# frozen against the independent evaluator in oracles.py
_EVAL_CASES = [
    ("0=0", TRUE),
    ("0=1", FALSE),
    ("A x. x<5", UNKNOWN),  # true up to the bound but open beyond it
    ("E x. x=3", TRUE),
    ("E x. x=8", TRUE),  # the search bound itself is scanned
    ("E x. x=9", UNKNOWN),  # just beyond it
    ("A x. x<3", FALSE),  # refuted inside the bound
    ("A x. x=x", UNKNOWN),
    ("E x. x=x+1", UNKNOWN),
]


def test_eval3_frozen_cases():
    for text, want in _EVAL_CASES:
        f = parse(text)
        assert eval3(f, {}, 4, 8) is want, text
        # definite answers agree with classical truth on the finite domain
        if want is not UNKNOWN:
            assert holds(f, {}, range(9)) is want, text


_NAMES = ("x", "y", "z")


def _terms(bound):
    # Zero stays a bare leaf: inside an Add chain the printer may fold
    # it away (0+1 prints as 1), which is fine for texts but breaks
    # exact AST round-trips.
    leaves = [st.just(One())]
    if bound:
        leaves.append(st.sampled_from(sorted(bound)).map(Var))
    inner = st.recursive(
        st.one_of(*leaves),
        lambda ch: st.builds(Add, ch, ch) | st.builds(Mul, ch, ch),
        max_leaves=4,
    )
    return st.just(Zero()) | inner


@st.composite
def _sentences(draw, bound=frozenset(), depth=3):
    opts = ["atom"]
    if depth > 0:
        opts += ["not", "and", "or", "imp", "forall", "exists", "box"]
    kind = draw(st.sampled_from(opts))
    if kind == "atom":
        rel = draw(st.sampled_from(("=", "<")))
        return Atom(rel, draw(_terms(bound)), draw(_terms(bound)))
    if kind == "not":
        return Not(draw(_sentences(bound, depth - 1)))
    if kind == "box":
        return Box(draw(_sentences(bound, depth - 1)))
    if kind in ("and", "or", "imp"):
        cls = {"and": And, "or": Or, "imp": Implies}[kind]
        return cls(
            draw(_sentences(bound, depth - 1)), draw(_sentences(bound, depth - 1))
        )
    var = draw(st.sampled_from(_NAMES))
    body = draw(_sentences(bound | {var}, depth - 1))
    return (Forall if kind == "forall" else Exists)(var, body)


@given(_sentences())
@settings(max_examples=150, deadline=None)
def test_print_parse_round_trip(f):
    assert parse(print_formula(f)) == f


@given(_sentences())
@settings(max_examples=60, deadline=None)
def test_printing_is_stable(f):
    assert print_formula(parse(print_formula(f))) == print_formula(f)


@given(_sentences(), st.integers(min_value=0, max_value=3))
@settings(max_examples=150, deadline=None)
def test_eval2_is_truth_over_the_bounded_domain(f, k):
    assert eval2(f, {}, k, k) == holds(f, {}, range(k + 1))


@st.composite
def _open_sentences(draw):
    """A sentence over some free names, and an env binding them."""
    free = draw(st.sets(st.sampled_from(_NAMES)))
    env = {name: draw(st.integers(min_value=0, max_value=5)) for name in sorted(free)}
    return draw(_sentences(frozenset(free))), env


_BOUNDS = st.integers(min_value=0, max_value=3)


def _run(t, k):
    """t followed by k `+1` steps."""
    for _ in range(k):
        t = Add(t, One())
    return t


def _fresh(t):
    """A term equal to t that shares no node with it."""
    k = 0
    while isinstance(t, Add) and isinstance(t.right, One):
        t, k = t.left, k + 1
    if isinstance(t, (Add, Mul)):
        t = type(t)(_fresh(t.left), _fresh(t.right))
    elif isinstance(t, Num):
        t = Num(t.value)
    else:
        t = Var(t.name) if isinstance(t, Var) else type(t)()
    return _run(t, k)


def _terms_of(f):
    """The terms at f's atoms, left to right."""
    if isinstance(f, Atom):
        return [f.left, f.right]
    return [t for g in vars(f).values() if isinstance(g, Formula) for t in _terms_of(g)]


def _text(show, x):
    """show(x), or the RecursionError a deep term gives both printers."""
    try:
        return show(x)
    except RecursionError:
        return RecursionError


@given(st.one_of(_sentences().map(lambda f: (f, {})), _open_sentences()).map(
    lambda case: (print_formula(case[0]), case[1])
))
# a 3,000-step `+1` run over a variable and over a numeral, in an atom
# and under a bounded quantifier; formulas come as text, since hypothesis
# prints a failing case's arguments by a recursion that a 3,000-step term
# overflows
@example(("y" + "+1" * 3000 + "=3000", {"y": 2}))
@example(("E x<3000. x" + "+1" * 3000 + "=y", {"y": 1}))
@settings(max_examples=150, deadline=None)
def test_walks_over_parts_and_peel_agree_with_the_per_class_walks(case):
    text, env = case
    f = parse(text, free=tuple(env))
    assert asdict(classify(f)) == asdict(oracles.classify(f))
    assert free_vars(f) == oracles.free_vars(f)
    got = instantiate(f, env)
    want = oracles._subst(f, {v: numeral(n) for v, n in env.items()}) if env else f
    assert got == want and (got is f) == (want is f)
    assert _text(str, f) == _text(print_formula, f)
    terms = _terms_of(f)
    terms += [_fresh(t) for t in terms]
    for a in terms:
        assert _text(str, a) == _text(oracles.term_str, a)
        if isinstance(a, Add):
            assert hash(a) == oracles.add_hash(a)
            for b in terms:
                assert (a == b) is (oracles.add_eq(a, b) is True)


@given(_open_sentences(), _BOUNDS, _BOUNDS)
# the inner binder shadows the outer x, whose value the right conjunct
# must see again: with x=0 the body holds and the universal stays open
@example((parse("A x. ((E x. x=1) /\\ x=0)"), {}), 0, 1)
@example((parse("(E x. x=2) /\\ x=1", free=("x",)), {"x": 1}), 0, 2)
@settings(max_examples=150, deadline=None)
def test_eval3_agrees_with_the_interpreter(case, forall_bound, exists_bound):
    f, env = case
    before = dict(env)
    want = oracles.eval3(f, env, forall_bound, exists_bound)
    assert eval3(f, env, forall_bound, exists_bound) is want
    assert env == before


@given(_sentences())
@settings(max_examples=100, deadline=None)
def test_compiled_form_bakes_in_no_bound_or_mode(f):
    # one formula object, run in both modes at two bound pairs in turn
    for fb, eb in ((1, 3), (3, 1)):
        assert eval3(f, {}, fb, eb) is oracles.eval3(f, {}, fb, eb)
        assert eval2(f, {}, fb, fb) == holds(f, {}, range(fb + 1))


def test_eval3_judges_both_sides_and_eval2_short_circuits():
    f = parse("0=1 /\\ y=0", free=("y",))
    with pytest.raises(UnboundVariable, match="y"):
        eval3(f, {}, 1, 1)
    assert eval2(f, {}, 1, 1) is False
    # the first unbound name met, left to right
    with pytest.raises(UnboundVariable, match="x"):
        eval3(parse("x=y", free=("x", "y")), {}, 0, 0)
    # a binder's value does not outlive its scope
    g = parse("(E x. x=1) /\\ x=0", free=("x",))
    with pytest.raises(UnboundVariable, match="x"):
        eval2(g, {}, 1, 1)


# ---------------------------------------------------------------------------
# binders solved for their variable


def _outcome(run, *args):
    """A run's value, or the name it found unbound (the oracles raise
    KeyError, the package UnboundVariable)."""
    try:
        return "value", run(*args)
    except UnboundVariable as e:
        return "unbound", e.name
    except KeyError as e:
        return "unbound", e.args[0]


@st.composite
def _solvable(draw, names, depth=2):
    """A body for a binder over y, biased toward atoms it can be solved
    for: y=t, t=y and k*y+c=t, under the connectives."""
    kinds = ["solvable"] * 3 + ["any"]
    if depth:
        kinds += ["not", "and", "or", "imp"]
    kind = draw(st.sampled_from(kinds))
    if kind == "solvable":
        y = Var("y")
        t = draw(_terms(names))
        k, c = (numeral(draw(st.integers(min_value=0, max_value=3))) for _ in "kc")
        return draw(st.sampled_from((
            Atom("=", y, t), Atom("=", t, y), Atom("=", Add(Mul(k, y), c), t),
        )))
    if kind == "any":
        return draw(_sentences(names, 1))
    if kind == "not":
        return Not(draw(_solvable(names, depth - 1)))
    cls = {"and": And, "or": Or, "imp": Implies}[kind]
    return cls(draw(_solvable(names, depth - 1)), draw(_solvable(names, depth - 1)))


@st.composite
def _solvable_cases(draw):
    """Q y. body, perhaps under a binder over x, and an env binding some
    of the other names: a name left unbound must raise as before."""
    outer = draw(st.sampled_from((None, Forall, Exists)))
    free = {"x", "z"} - ({"x"} if outer else set())
    f = draw(st.sampled_from((Forall, Exists)))("y", draw(_solvable(frozenset({"x", "y", "z"}))))
    if outer:
        f = outer("x", f)
    bound = draw(st.sets(st.sampled_from(sorted(free))))
    return f, {name: draw(st.integers(min_value=0, max_value=6)) for name in sorted(bound)}


def _case(text, **env):
    return parse(text, free=("x", "z")), env


@given(_solvable_cases(), st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
# the solution at the bound and just past it
@example(_case("E y. y=x", x=3), 0, 3)
@example(_case("E y. y=x", x=4), 0, 3)
@example(_case("A y. (~y=x)", x=2), 2, 0)
@example(_case("A y. (~y=x)", x=3), 2, 0)
@example(_case("E y. y+3=x", x=1), 0, 4)  # negative solution
@example(_case("E y. x=2*y", x=3), 0, 4)  # inexact solution
@example(_case("E y. y=y+0"), 0, 2)  # equal coefficients
@example(_case("E y. (y=x /\\ E y. y=3)", x=2), 0, 3)  # shadowing binder
# z is unbound: the enumeration raises at y=0, though y=x+5 is past the bound
@example(_case("E y. (y=x+5 /\\ z=1)", x=0), 0, 3)
# false only away from x and z, the values where its sides give TRUE
@example(_case("A y. (~y=x -> y=z)", x=0, z=1), 2, 0)
@settings(max_examples=400, deadline=None)
def test_solved_binders_agree_with_the_enumeration(case, forall_bound, exists_bound):
    f, env = case
    got = _outcome(eval3, f, env, forall_bound, exists_bound)
    assert got == _outcome(oracles.eval3, f, env, forall_bound, exists_bound)
    got = _outcome(eval2, f, env, forall_bound, forall_bound)
    assert got == _outcome(holds, f, env, range(forall_bound + 1))


def test_solved_binders_reach_far_bounds():
    # enumerating either one would take minutes
    big = 10**9
    assert eval3(parse("E y. y=x+1", free=("x",)), {"x": big}, 0, big + 1) is TRUE
    assert eval3(parse("A y. (y=x -> x<y)", free=("x",)), {"x": big}, big, 0) is FALSE


# ---------------------------------------------------------------------------
# the reader and printer against the method-per-level copy in oracles
#
# Texts are drawn from pieces of the formula alphabet: symbols, keywords,
# names, Unicode decimals, `²` (a digit but no decimal), `é` and `ⓐ`
# (lower case; `ⓐ` is no word character of re), blanks and characters no
# token takes.  Every literal piece but `0` ends in a blank or a
# non-decimal, so pieces never join into a huge numeral.
_PIECES = (
    "0", "1 ", "12 ", "٣ ", "3x", "2²", "x", "y", "z", "x1", "x_", "é", "ⓐ", "²",
    "Z", "_", "A", "E", "forall", "exists", "box", "~", "(", ")", ".", ",", "=",
    "<", "+", "*", "->", "\\/", "/\\", "-", "/", "\\", " ", "\t", "　", "?",
)
_FREE = st.sets(st.sampled_from(("x", "y", "z", "x1", "é", "ⓐ")))


def _read(read, text, free):
    try:
        return read(text, free=free)
    except (ParseError, UnboundVariable) as e:
        return type(e), str(e), getattr(e, "pos", None)


def _texts():
    pieces = st.lists(st.sampled_from(_PIECES), max_size=24).map("".join)
    # a printed sentence with a span replaced by pieces: mostly well formed
    edited = st.tuples(_sentences().map(print_formula), st.integers(0, 60),
                       st.integers(0, 8), pieces).map(
        lambda c: c[0][: c[1]] + c[3] + c[0][c[1] + c[2]:])
    return pieces | edited


@given(_texts(), _FREE)
@example("A x<x. x=x", {"x"})
@example("(y=0)", set())
@example("0=0 -> (0=1 \\/ ~1=1) /\\ 0=0 -> 1=0", set())
@settings(max_examples=300, deadline=None)
def test_reading_agrees_with_the_method_per_level_reader(text, free):
    free = tuple(sorted(free))
    got = _read(parse, text, free)
    assert got == _read(oracles.read_formula, text, free)
    if isinstance(got, Formula):
        assert repr(got) == repr(oracles.read_formula(text, free=free))
    got = _read(parse_term, text, free)
    assert got == _read(oracles.read_term, text, free)
    if isinstance(got, Term):
        assert repr(got) == repr(oracles.read_term(text, free=free))


def _stepped_terms():
    """Terms over x and y whose nodes may carry a run of `+1` steps."""
    leaf = st.sampled_from([Zero(), One(), Var("x"), Var("y")])
    inner = st.recursive(
        leaf,
        lambda ch: st.builds(Add, ch, ch) | st.builds(Mul, ch, ch),
        max_leaves=6,
    )
    return st.tuples(inner, st.integers(0, 3)).map(lambda c: _run(*c))


@given(_sentences(), _stepped_terms(), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_printing_agrees_with_the_per_level_printer(f, t, level):
    assert print_formula(f) == oracles.show_formula(f)
    assert print_term(t, level) == oracles.show_term(t, level)
    g = Atom("<", t, Mul(t, _run(t, 2)))
    assert print_formula(g) == oracles.show_formula(g)
