import pytest
from hypothesis import given, settings, strategies as st

from ctruth.formula import (
    Add,
    And,
    Atom,
    Box,
    Exists,
    FALSE,
    Forall,
    Implies,
    Mul,
    Not,
    One,
    Or,
    ParseError,
    TRUE,
    UNKNOWN,
    UnboundVariable,
    Var,
    Zero,
    classify,
    eval3,
    free_vars,
    instantiate,
    numeral,
    numeral_value,
    parse,
    parse_term,
    print_formula,
    print_term,
    subst_term,
)

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
