"""Parser and evaluator for the small scalar-field expression language."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

import flowgeom.expr as ex
from flowgeom.errors import (
    BadParams, DomainError, EvalFailure, ExprError, ExprSyntaxError, UnknownIdentifier)
from flowgeom.expr import (
    Binary,
    Call,
    Const,
    Num,
    Unary,
    Var,
    derivative,
    evaluate,
    field,
    max_var_index,
    parse,
    to_source,
)
from flowgeom.linalg import DerivOracle, as_engine, path_fastest


def ev(src, *xs):
    return evaluate(parse(src), xs)


def test_field_keeps_the_leading_shape_of_a_batch():
    ys = np.arange(24.0).reshape(3, 4, 2)
    out = field("x1 * x2 + 1", 2)(ys)
    assert out.shape == (3, 4)
    np.testing.assert_array_equal(out, ys[..., 0] * ys[..., 1] + 1.0)
    assert float(field(parse("x2"), 3)(np.array([1.0, 2.0, 3.0]))) == 2.0


def test_field_broadcasts_a_constant_over_the_batch():
    out = field("2 * pi", 2)(np.zeros((5, 2)))
    assert out.shape == (5,)
    np.testing.assert_array_equal(out, np.full(5, 2.0 * math.pi))


def test_field_refuses_a_variable_beyond_its_dimension_before_any_point():
    with pytest.raises(BadParams, match=r"expression 'x1 \+ x3' uses x3 but its points "
                                        r"have dimension 2"):
        field("x1 + x3", 2)


@pytest.mark.parametrize("layout", ["C", "engine"])
def test_field_of_a_nested_list_keeps_the_layout_of_its_points(layout):
    source = [["x1", "2"], ["x1 * x2", "-x2"], ["sin(x2)", "0"]]
    ys = np.random.default_rng(2).uniform(-1.0, 1.0, size=(5, 2))
    if layout == "engine":
        ys = as_engine(ys)
    out = field(source, 2)(ys)
    assert out.shape == (5, 3, 2)
    assert path_fastest(out) == (layout == "engine")
    coords = [ys[:, 0], ys[:, 1]]
    for i, row in enumerate(source):
        for r, src in enumerate(row):
            want = np.broadcast_to(evaluate(parse(src), coords), (5,))
            np.testing.assert_array_equal(out[:, i, r], want)
            np.testing.assert_array_equal(np.signbit(out[:, i, r]), np.signbit(want))
    assert field(source, 2)(ys[0]).shape == (3, 2)


def test_field_evaluates_a_constant_entry_once(monkeypatch):
    calls = []
    inner = ex.evaluate
    monkeypatch.setattr(ex, "evaluate", lambda t, x: calls.append(t) or inner(t, x))
    f = field(["x1", "2 * pi", "x2^2"], 2)
    assert calls == [parse("2 * pi")]  # the constant, when the field is built
    ys = np.ones((4, 2))
    for _ in range(3):
        np.testing.assert_array_equal(f(ys), np.tile([1.0, 2.0 * math.pi, 1.0], (4, 1)))
    assert calls[1:] == [parse("x1"), parse("x2^2")] * 3  # the varying entries per call


def test_field_raises_for_a_faulting_constant_when_called():
    f = field(["x1", "log(0)"], 1)  # built without error
    with pytest.raises(DomainError, match="log of a non-positive value"):
        f(np.ones((3, 1)))


def test_field_with_names_raises_eval_failure_naming_the_entry():
    names = ["the derivative of a in x1", "the derivative of b in x1"]
    f = field(["x1", "log(x1)"], 1, names)
    np.testing.assert_array_equal(f(np.array([[2.0]])), [[2.0, np.log(2.0)]])
    with pytest.raises(EvalFailure) as exc:
        f(np.array([[-1.0], [2.0]]))
    assert str(exc.value) == ("the derivative of b in x1 failed near [[-1.]\n [ 2.]]: "
                              "log of a non-positive value")
    with pytest.raises(EvalFailure) as exc:
        f(np.array([[np.inf]]))
    assert str(exc.value) == "the derivative of a in x1 returned non-finite values near [[inf]]"
    # without names the domain error itself
    with pytest.raises(DomainError, match="log of a non-positive value"):
        field(["x1", "log(x1)"], 1)(np.array([[-1.0]]))


def test_field_refuses_a_ragged_list():
    with pytest.raises(BadParams, match="ragged"):
        field([["x1", "x2"], ["x1"]], 2)


def test_literals_and_variables():
    assert ev("3.5") == 3.5
    assert ev("x1", 2.0) == 2.0
    assert ev("x2", 0.0, -4.0) == -4.0
    assert ev("pi") == pytest.approx(math.pi)
    assert ev("e") == pytest.approx(math.e)


def test_precedence_and_associativity():
    assert ev("2 + 3 * 4") == 14.0
    assert ev("2 * 3 ^ 2") == 18.0
    assert ev("(2 + 3) * 4") == 20.0
    assert ev("8 / 4 / 2") == 1.0          # left-assoc division
    assert ev("2 ^ 3 ^ 2") == 512.0        # right-assoc power
    assert ev("-x1^2", 3.0) == -9.0        # unary binds looser than ^
    assert ev("1 - 2 - 3") == -4.0


def test_functions():
    assert ev("sin(pi/2)") == pytest.approx(1.0)
    assert ev("cos(0)") == 1.0
    assert ev("tan(0)") == 0.0
    assert ev("exp(1)") == pytest.approx(math.e)
    assert ev("log(e)") == pytest.approx(1.0)
    assert ev("sqrt(x1)", 9.0) == 3.0
    assert ev("abs(-x1)", 2.5) == 2.5
    assert ev("tanh(0)") == 0.0
    assert [ev("sign(x1)", v) for v in (-2.0, 0.0, 3.0)] == [-1.0, 0.0, 1.0]


def test_batched_evaluation_broadcasts():
    pts = np.array([[1.0, 2.0], [3.0, 4.0]])  # row k is x{k+1} over a batch
    out = evaluate(parse("x1 + 2*x2"), pts)
    np.testing.assert_allclose(out, [7.0, 10.0])
    out2 = evaluate(parse("x1*x1"), pts)
    np.testing.assert_allclose(out2, [1.0, 4.0])


def test_max_var_index():
    assert max_var_index(parse("3 + pi")) == -1
    assert max_var_index(parse("x1")) == 0
    assert max_var_index(parse("x2 * sin(x7)")) == 6


def test_syntax_errors():
    for bad in ["", "x1 +", "(x1", "x1 x2", "* 3", "sin()", "1..2"]:
        with pytest.raises(ExprSyntaxError):
            parse(bad)


def test_unknown_identifiers():
    with pytest.raises(UnknownIdentifier):
        parse("y1 + 1")
    with pytest.raises(UnknownIdentifier):
        parse("sinh(x1)")


def test_domain_errors():
    with pytest.raises(DomainError):
        ev("log(-1)")
    with pytest.raises(DomainError):
        ev("sqrt(0 - x1)", 4.0)
    with pytest.raises(DomainError):
        ev("1 / x1", 0.0)


@pytest.mark.parametrize("src, x", [
    ("exp(x1)", 1000.0), ("x1*x1", 1e200), ("tanh(exp(x1))", 1000.0),
])
def test_overflow_raises_domain_error(src, x):
    # an overflow is a non-finite result from a finite input: no inf, no warning
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflow"):
            ev(src, x)
        with pytest.raises(DomainError, match="overflow"):
            ev(src, np.array([0.5, x, -0.5]))  # one overflowing row in a batch
        assert np.isfinite(ev(src, 0.5))
    assert np.geterr() == before  # the caller's error state is untouched


def test_error_is_package_exception():
    with pytest.raises(ExprError):
        parse("@")


# ----------------------------------------------------------- round trip

_FUNCS = ["sin", "cos", "tan", "exp", "log", "sqrt", "abs", "tanh", "sign"]
_OPS = ["+", "-", "*", "/", "^"]

# Num values restricted to non-negative finite floats: a negative literal
# prints as '-c', which re-parses as Unary over Num and cannot compare equal.
def _trees(n_vars):
    """Trees over every node, operator and function, in x1 .. x{n_vars}."""
    leaf = hst.one_of(
        hst.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False).map(Num),
        hst.integers(min_value=0, max_value=n_vars - 1).map(Var),
        hst.sampled_from(["pi", "e"]).map(Const),
    )
    return hst.recursive(
        leaf,
        lambda kids: hst.one_of(
            kids.map(lambda t: Unary("-", t)),
            hst.tuples(hst.sampled_from(_OPS), kids, kids).map(
                lambda s: Binary(s[0], s[1], s[2])),
            hst.tuples(hst.sampled_from(_FUNCS), kids).map(
                lambda s: Call(s[0], s[1])),
        ),
        max_leaves=25,
    )


_tree = _trees(8)


@settings(max_examples=300, deadline=None)
@given(_tree)
def test_print_parse_round_trip(tree):
    assert parse(to_source(tree)) == tree


@settings(max_examples=200, deadline=None)
@given(_tree)
def test_printing_is_idempotent(tree):
    once = to_source(tree)
    assert to_source(parse(once)) == once


# ----------------------------------------------------------- derivatives


def d_src(src, j):
    return to_source(derivative(parse(src), j))


def test_derivative_rules_and_folding():
    assert d_src("x1^2", 0) == "2.0 * x1"
    assert d_src("x1^-2", 0) == "-2.0 * x1^(-3.0)"
    assert d_src("sin(x1)*x2", 0) == "cos(x1) * x2"
    assert d_src("sin(x1)*x2", 1) == "sin(x1)"
    assert d_src("x1*x2", 0) == "x2"
    assert d_src("x1 * 1e300 * 1e300", 0) == "1e+300 * 1e+300"  # inf is no literal
    assert d_src("0.2*x1 + pi", 0) == "0.2"
    assert d_src("1+abs(x1)", 0) == "sign(x1)"
    assert d_src("sqrt(1+x1)", 0) == "1.0 / (2.0 * sqrt(1.0 + x1))"
    # a subtree free of x_{j+1} folds to the literal 0
    for src in ("x2*sin(x2)", "exp(x2)^x2 / log(x3)", "sign(x1)", "3^2 - pi"):
        assert derivative(parse(src), 0) == Num(0.0)


def test_derivative_of_abs_at_its_kink_is_the_central_difference():
    # sign(0) = 0, what (|h| - |-h|) / 2h gives
    assert evaluate(derivative(parse("1 + abs(x1)"), 0), [0.0]) == 0.0
    assert evaluate(derivative(parse("abs(x1)"), 0), [-0.5]) == -1.0


def test_negative_literal_prints_like_unary_minus():
    # derivative folds constants into negative literals; '-2.0^2.0' would be -(2^2)
    tree = Binary("^", Num(-2.0), Num(2.0))
    assert to_source(tree) == "(-2.0)^2.0"
    assert evaluate(parse(to_source(tree)), []) == evaluate(tree, []) == 4.0


# smooth trees: + - * ^ with integer exponents, sin cos exp tanh abs
_smooth_leaf = hst.one_of(
    hst.integers(min_value=0, max_value=1).map(Var),
    hst.sampled_from([0.5, 2.0, 3.0]).map(Num),
)

_smooth_tree = hst.recursive(
    _smooth_leaf,
    lambda kids: hst.one_of(
        kids.map(lambda t: Unary("-", t)),
        hst.tuples(hst.sampled_from(["+", "-", "*"]), kids, kids).map(
            lambda s: Binary(s[0], s[1], s[2])),
        hst.tuples(kids, hst.integers(min_value=0, max_value=3)).map(
            lambda s: Binary("^", s[0], Num(float(s[1])))),
        hst.tuples(hst.sampled_from(["sin", "cos", "exp", "tanh", "abs"]), kids).map(
            lambda s: Call(s[0], s[1])),
    ),
    max_leaves=10,
)

_point = hst.lists(hst.floats(min_value=-1.5, max_value=1.5), min_size=2, max_size=2)


def _abs_args(t):
    """The argument of every ``abs`` in ``t``."""
    if isinstance(t, Call):
        return ([t.arg] if t.func == "abs" else []) + _abs_args(t.arg)
    if isinstance(t, Unary):
        return _abs_args(t.operand)
    if isinstance(t, Binary):
        return _abs_args(t.left) + _abs_args(t.right)
    return []


def _field(t):
    """``t`` as a field (..., n) -> (..., 1), the form the oracle differentiates."""
    return lambda y: np.broadcast_to(evaluate(t, np.moveaxis(y, -1, 0)), y.shape[:-1])[..., None]


# one rule each, off every function's kink and domain boundary
@pytest.mark.parametrize("src", [
    "sin(x1*x2)", "cos(x1*x2)", "tan(x1*x2)", "exp(x1*x2)", "log(1.5 + x1*x2)",
    "sqrt(1.5 + x1*x2)", "abs(x1*x2)", "tanh(x1*x2)", "sign(x1)*x2", "x1/x2",
    "-(x1 - x2)^3", "x1^x2", "2^(x1*x2)", "x1^-2 + pi*e*x2",
])
def test_each_rule_matches_the_oracle(src):
    tree = parse(src)
    x = np.array([[0.7, 0.4], [1.3, -0.6]])
    fd = DerivOracle().jacobian(_field(tree), x)[:, 0, :]
    exact = np.stack([np.broadcast_to(evaluate(derivative(tree, j), x.T), (2,))
                      for j in range(2)], axis=-1)
    np.testing.assert_allclose(exact, fd, rtol=1e-8, atol=1e-10)


@settings(max_examples=600, deadline=None)
@given(_smooth_tree, _point, hst.integers(min_value=0, max_value=1))
def test_derivative_matches_the_oracle(tree, point, j):
    oracle = DerivOracle()
    x = np.array(point)
    # the central difference is only a derivative where no abs changes sign
    # over its stencil (h = h0 max(1, |x|) along each axis, with room to spare)
    h = 2.0 * oracle.h0 * max(1.0, float(np.linalg.norm(x)))
    box = x + h * np.concatenate([np.zeros((1, 2)), np.eye(2), -np.eye(2)])
    for arg in _abs_args(tree):
        try:
            with np.errstate(all="ignore"):
                vals = np.broadcast_to(evaluate(arg, box.T), (5,))
        except DomainError:  # an argument that overflows on the stencil
            assume(False)
        assume(np.all(vals > 0.0) or np.all(vals < 0.0))
    d = derivative(tree, j)
    try:
        with np.errstate(all="ignore"):
            exact = float(evaluate(d, x))
            fd = float(oracle.jacobian(_field(tree), x)[0, j])
            # nor where the derivative itself swings over the stencil: there
            # the stencil cannot resolve the function (see the pinned case below)
            spread = np.ptp(np.broadcast_to(evaluate(d, box.T), (5,)))
    except (DomainError, EvalFailure):
        assume(False)
    assume(np.isfinite(exact))
    assume(spread <= 1e-2 * max(1.0, abs(exact)))
    assert abs(exact - fd) <= 1e-6 * max(1.0, abs(exact), abs(fd))


def test_derivative_of_a_fast_oscillation_is_the_closed_form():
    # d/dx1 sin(exp((2 x1)^3)) = 24 x1^2 exp(8 x1^3) cos(exp(8 x1^3)); at x1 = 1
    # the cosine turns about 14 rad over the oracle's stencil, so only the
    # closed form can check the symbolic derivative there
    tree = parse("sin(exp((x1 + x1)^3))")
    got = float(evaluate(derivative(tree, 0), [1.0, 0.0]))
    assert got == pytest.approx(24.0 * math.exp(8.0) * math.cos(math.exp(8.0)), rel=1e-12)
    assert got == pytest.approx(-65515.04, abs=0.01)
    assert float(evaluate(derivative(tree, 1), [1.0, 0.0])) == 0.0


def _outcome(t, x):
    """``evaluate(t, x)`` as bytes, or the class of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return np.asarray(evaluate(t, x), dtype=float).tobytes()
    except DomainError as exc:
        return type(exc)


# two variables, so that most trees depend on the one differentiated in
@settings(max_examples=400, deadline=None)
@given(_trees(2), hst.lists(hst.floats(min_value=-2.0, max_value=2.0), min_size=2, max_size=2),
       hst.integers(min_value=0, max_value=1))
def test_printed_derivative_evaluates_bit_for_bit(tree, point, j):
    # not structural equality: a negative literal re-parses as Unary over Num
    d = derivative(tree, j)
    assert _outcome(parse(to_source(d)), point) == _outcome(d, point)
