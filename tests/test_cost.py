"""Expression parsing, symbolic differentiation, and the gradient-dominance scan."""

import math
import operator
import pickle
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovflow.cost import (
    Neg,
    Num,
    ParseError,
    Pow,
    QuadraticMatrixCost,
    Var,
    parse_scalar_cost,
    pdpli_check,
    simplify,
    to_string,
)

from _oracles import evaluate, fd_matrix_gradient, fd_scalar_derivative


# parsing and evaluation


def test_basic_values():
    cost = parse_scalar_cost("(1 - w)^2")
    assert cost.value(0.5) == pytest.approx(0.25)
    assert cost.value(-1.0) == pytest.approx(4.0)
    assert cost.value(1.0) == 0.0


def test_operator_precedence():
    cost = parse_scalar_cost("1 + 2 * w^2")
    assert cost.value(3.0) == pytest.approx(19.0)  # not (1 + 2*w)^2 = 49


def test_unary_minus_and_signed_exponent():
    # '-' binds at the base, so -w^2 reads (-w)^2 per the documented grammar
    assert parse_scalar_cost("-w^2").value(2.0) == pytest.approx(4.0)
    assert parse_scalar_cost("-(w^2)").value(2.0) == pytest.approx(-4.0)
    assert parse_scalar_cost("w^+2").value(3.0) == pytest.approx(9.0)
    assert parse_scalar_cost("(1 + w^2)^-1").value(1.0) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "text, exponent",
    [
        # past 2**53 a float would round these
        ("w^9007199254740993", 9007199254740993),
        ("w^-9007199254740993", -9007199254740993),
        ("w^99999999999999999999", 99999999999999999999),
        ("w^2.0", 2),
        ("w^1e3", 1000),
    ],
)
def test_an_integer_exponent_literal_is_read_exactly(text, exponent):
    expression = parse_scalar_cost(text).expression
    assert expression == Pow(Var(), exponent) and type(expression.exponent) is int
    assert to_string(expression) == f"w^{exponent}"


@pytest.mark.parametrize(
    "text, derivative, second",
    [
        ("w^9007199254740993", "9007199254740993 * w^9007199254740992", "8.112963841460668e+31 * w^9007199254740991"),
        ("w^-9007199254740993", "-9007199254740993 * w^-9007199254740994", "8.11296384146067e+31 * w^-9007199254740995"),
        ("w^99999999999999999999", "99999999999999999999 * w^99999999999999999998", "1e+40 * w^99999999999999999997"),
        ("w^100000001", "100000001 * w^100000000", "1.00000001e+16 * w^99999999"),
    ],
)
def test_a_power_brings_its_exponent_down_exactly(text, derivative, second):
    # the coefficient is the exponent's int; products of coefficients fold as floats
    cost = parse_scalar_cost(text)
    assert (to_string(cost.derivative), to_string(cost.second_derivative)) == (derivative, second)
    assert cost.deriv(1.0) == float(cost.expression.exponent)


def test_division_flag_and_semantics():
    cost = parse_scalar_cost("1 / (1 + w^2)")
    assert cost.uses_division
    assert not parse_scalar_cost("(1 - w)^2").uses_division
    assert math.isinf(parse_scalar_cost("1 / w").value(0.0))
    assert math.isnan(parse_scalar_cost("w / w").value(0.0))


def test_pow_overflow_is_inf_not_raise():
    assert math.isinf(parse_scalar_cost("w^9").value(1e308))


def test_min_value_is_recorded():
    assert parse_scalar_cost("(1 - w)^2", min_value=0.0).min_value == 0.0
    assert parse_scalar_cost("(1 - w)^2").min_value is None


@pytest.mark.parametrize(
    "text",
    ["", "(1 - w", "w ^ 1.5", "w + * 2", "2 ** w", "w w", "x + 1", "1 +"],
)
def test_malformed_text_raises_with_position(text):
    with pytest.raises(ParseError) as info:
        parse_scalar_cost(text)
    assert info.value.position >= 0
    assert "position" in str(info.value)


@pytest.mark.parametrize("text, position", [("w^1e400", 2), ("w^-1e400", 3), ("1e400*w", 0), ("2 * 9e999", 4)])
def test_a_number_literal_past_the_float_range_is_a_parse_error(text, position):
    with pytest.raises(ParseError, match="bad number literal") as info:
        parse_scalar_cost(text)
    assert info.value.position == position


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


# the deepest shapes per token, each as long as the 128-token cap allows:
# nested parentheses for the parser, nested powers, a long sum, and a chain
# of quotients, whose second derivative is the deepest tree per token
DEEPEST = {
    "parentheses": lambda n: "(" * n + "w" + ")" * n,
    "powers": lambda n: "(" * n + "w" + ")^2" * n,
    "sum": lambda n: " + ".join(["w"] * n),
    "quotients": lambda n: " / ".join(["w"] * n),
}


@pytest.mark.parametrize(
    "shape, n, refused_at", [("parentheses", 63, 128), ("powers", 31, 128), ("sum", 64, 256), ("quotients", 64, 256)]
)
def test_the_deepest_expressions_the_cap_admits_use_under_half_the_recursion_limit(shape, n, refused_at):
    text = DEEPEST[shape](n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 500)
    try:
        cost = parse_scalar_cost(text)
        for tree, compiled in (
            (cost.expression, cost.value),
            (cost.derivative, cost.deriv),
            (cost.second_derivative, cost.second),
        ):
            to_string(tree)
            compiled(0.75), compiled(np.array([0.75, 1.5]))
    finally:
        sys.setrecursionlimit(limit)
    # one level more passes the cap, which refuses the 129th token
    with pytest.raises(ParseError, match="longer than 128 tokens") as info:
        parse_scalar_cost(DEEPEST[shape](n + 1))
    assert info.value.position == refused_at


# symbolic derivatives


def test_frozen_derivative_values():
    # f = (w^2 - 1)^2: f'(w) = 4w(w^2 - 1), so f'(2) = 24; f'' = 12w^2 - 4
    cost = parse_scalar_cost("(w^2 - 1)^2")
    assert cost.deriv(2.0) == pytest.approx(24.0)
    assert cost.second(0.0) == pytest.approx(-4.0)
    assert cost.second(1.0) == pytest.approx(8.0)


def test_derivative_prints_simplified():
    cost = parse_scalar_cost("(1 - w)^2")
    assert to_string(simplify(cost.derivative)) == "-2 * (1 - w)"


def test_round_trip_through_printer():
    for text in ["(1 - w)^2", "1 / (1 + w^2)", "-2 * (1 - w)", "w^3 - 3 * w"]:
        cost = parse_scalar_cost(text)
        again = parse_scalar_cost(to_string(cost.expression))
        for w in (-1.7, 0.0, 0.3, 2.0):
            assert again.value(w) == pytest.approx(cost.value(w), abs=1e-12)


def test_scalar_eval_triple():
    cost = parse_scalar_cost("(1 - w)^2")
    f, fp, fpp = cost.value(0.0), cost.deriv(0.0), cost.second(0.0)
    assert (f, fp, fpp) == (pytest.approx(1.0), pytest.approx(-2.0), pytest.approx(2.0))


def test_sign_at_zero():
    assert parse_scalar_cost("(1 - w)^2").sign_at_zero() == -1
    assert parse_scalar_cost("(1 + w)^2").sign_at_zero() == 1
    with pytest.raises(ValueError):
        parse_scalar_cost("w^2").sign_at_zero()


@settings(max_examples=60, deadline=None)
@given(w=st.floats(-3.0, 3.0))
@pytest.mark.parametrize(
    "text",
    ["(1 - w)^2", "(1 - w)^2 * (4 - w)^2", "1 / (1 + w^2)", "w^3 - 3 * w + 2"],
)
def test_symbolic_derivative_matches_fd(text, w):
    cost = parse_scalar_cost(text)
    exact = cost.deriv(w)
    fd = fd_scalar_derivative(cost.value, w)
    assert abs(exact - fd) <= 1e-5 * max(1.0, abs(exact))


@settings(max_examples=60, deadline=None)
@given(w=st.floats(-2.0, 2.0))
def test_second_derivative_matches_fd_of_first(w):
    cost = parse_scalar_cost("(w^2 - 1)^2")
    fd = fd_scalar_derivative(cost.deriv, w)
    assert abs(cost.second(w) - fd) <= 1e-5 * max(1.0, abs(cost.second(w)))


# expression text drawn from the grammar; constants are short dyadic
# numbers, so folding them in floating point is exact except where one is
# divided by another
_CONSTANTS = st.sampled_from(["0", "1", "2", "3", "0.5", "1.5"])


def _grow(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", "/"]), children).map(" ".join),
        st.tuples(children, st.integers(-2, 4)).map(lambda t: f"({t[0]})^{t[1]}"),
        children.map(lambda text: f"-{text}"),
    )


EXPRESSIONS = st.recursive(st.one_of(st.just("w"), _CONSTANTS), _grow, max_leaves=8)
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _to_sympy(expr, sympy, w):
    """The tree as a sympy expression, each constant its double's exact value."""
    if isinstance(expr, Num):
        return sympy.Rational(expr.value)
    if isinstance(expr, Var):
        return w
    if isinstance(expr, Neg):
        return -_to_sympy(expr.arg, sympy, w)
    if isinstance(expr, Pow):
        return _to_sympy(expr.base, sympy, w) ** expr.exponent
    return _BINARY[expr.op](_to_sympy(expr.left, sympy, w), _to_sympy(expr.right, sympy, w))


@settings(max_examples=100, deadline=None)
@given(text=EXPRESSIONS)
def test_symbolic_derivatives_match_sympy(text):
    # exact rational values at dyadic probes; a probe where either side is
    # singular (a pole, or 0/0 that sympy cancelled) is skipped
    sympy = pytest.importorskip("sympy")
    w = sympy.Symbol("w")
    cost = parse_scalar_cost(text)
    f = _to_sympy(cost.expression, sympy, w)
    for ours, order in ((cost.derivative, 1), (cost.second_derivative, 2)):
        got_expr, want_expr = _to_sympy(ours, sympy, w), sympy.diff(f, w, order)
        for probe in (-1.5, -0.5, 0.25, 1.25, 2.5):
            at = sympy.Rational(probe)
            got, want = got_expr.subs(w, at), want_expr.subs(w, at)
            if got.is_finite and want.is_finite:
                assert abs(got - want) <= 1e-12 * max(1, abs(want)), (text, order, probe)


EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-200]


def _same_float(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@settings(max_examples=300, deadline=None)
@given(w=st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.floats(-3.0, 3.0)))
@pytest.mark.parametrize(
    "text",
    ["1 / w", "w / w", "w^9", "w^-2", "(w + 1)^-3 / (w - 1)", "(1 - w)^2 * (4 - w)^2 - 3 / (1 + w^2)"],
)
def test_compiled_closures_match_evaluate_bit_for_bit(text, w):
    cost = parse_scalar_cost(text)
    for compiled, tree in (
        (cost.value, cost.expression),
        (cost.deriv, cost.derivative),
        (cost.second, cost.second_derivative),
    ):
        assert _same_float(compiled(w), evaluate(tree, w)), (to_string(tree), w)


# probes for the array route: signed zeros, infinities, NaN, the smallest
# subnormal, the largest powers of ten, and the short dyadic numbers the
# drawn constants are made of, where their denominators vanish
ARRAY_PROBES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308, 1e-200, 0.1, 2.5]
ARRAY_PROBES += [sign * c for c in (0.5, 1.0, 1.5, 2.0, 3.0) for sign in (1.0, -1.0)]


def _denominators(expr):
    """The expressions that divide in expr: the right side of each '/' and
    the base of each negative power."""
    if isinstance(expr, (Num, Var)):
        return []
    if isinstance(expr, Neg):
        return _denominators(expr.arg)
    if isinstance(expr, Pow):
        return ([expr.base] if expr.exponent < 0 else []) + _denominators(expr.base)
    own = [expr.right] if expr.op == "/" else []
    return own + _denominators(expr.left) + _denominators(expr.right)


def _array_route_matches_evaluate(text, probes):
    """The closures on a 1-D and a 2-D array of probes, against evaluate at
    each probe, byte for byte, with every warning an error. Returns how
    many probes zero one of the expressions' denominators."""
    cost = parse_scalar_cost(text)
    zeros = 0
    for compiled, tree in (
        (cost.value, cost.expression),
        (cost.deriv, cost.derivative),
        (cost.second, cost.second_derivative),
    ):
        want = np.array([evaluate(tree, w) for w in probes])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = compiled(np.array(probes))
            square = compiled(np.array(probes).reshape(-1, 2)) if len(probes) % 2 == 0 else got
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (to_string(tree), text)
        assert square.tobytes() == want.tobytes()
        zeros += sum(any(evaluate(den, w) == 0.0 for den in _denominators(tree)) for w in probes)
    return zeros


@settings(max_examples=150, deadline=None)
@given(text=EXPRESSIONS)
def test_compiled_closures_on_arrays_match_evaluate_per_entry(text):
    _array_route_matches_evaluate(text, ARRAY_PROBES)


@pytest.mark.parametrize(
    "text, divides_by_zero",
    [
        ("(w - 1)^4 + (w - 1)^2", False),
        ("w^7 - 2*w^5", False),
        ("(1 - w)^2 * (4 - w)^2 - 3 / (1 + w^2)", False),
        ("3", False),
        ("1 / w", True),
        ("w / w", True),
        ("w^-2", True),
        ("(w + 1)^-3 / (w - 1)", True),
        ("0^-1 + w", True),
    ],
)
def test_compiled_closures_on_arrays_match_evaluate_at_dense_probes(text, divides_by_zero):
    # numpy's power, x * x included, misses C pow in the last bit on some of
    # these doubles; the array route must not
    rng = np.random.default_rng(7)
    dense = np.concatenate([rng.standard_normal(1500) * 3.0, rng.uniform(-1e3, 1e3, 500)]).tolist()
    assert (_array_route_matches_evaluate(text, ARRAY_PROBES + dense) > 0) == divides_by_zero


def test_scalar_matrix_gradient_of_a_stack_is_the_deriv_of_each_entry():
    cost = parse_scalar_cost("(w - 1)^4 + (w - 1)^2")
    W = np.array(ARRAY_PROBES + [0.3, -0.7]).reshape(-1, 1, 1)
    want = np.array([cost.deriv(float(w)) for w in W.ravel()]).reshape(W.shape)
    got = cost.as_matrix().gradient(W)
    assert got.shape == W.shape and got.tobytes() == want.tobytes()
    assert cost.as_matrix().gradient(W[0]).tobytes() == want[0].tobytes()  # one matrix


def test_scalar_cost_survives_pickling():
    cost = parse_scalar_cost("(w + 1)^-3 / (w - 1)")
    again = pickle.loads(pickle.dumps(cost))
    assert again == cost
    assert (again.value(0.5), again.deriv(0.5), again.second(0.5)) == (
        cost.value(0.5), cost.deriv(0.5), cost.second(0.5)
    )


@pytest.mark.parametrize(
    "text, w, want",
    [
        ("w^-2", 1e-200, math.inf),  # 1e400 overflows
        ("w^3", -1e200, -math.inf),  # -1e600 keeps its sign
        ("w^-3", -0.0, -math.inf),  # 1 / (-0)^3
        ("w^-2", -0.0, math.inf),  # even powers are positive
        ("w^4", -1e100, math.inf),
    ],
)
def test_overflowing_powers_give_the_signed_infinity(text, w, want):
    cost = parse_scalar_cost(text)
    assert cost.value(w) == want
    assert evaluate(cost.expression, w) == want


def test_constant_powers_that_do_not_fold_stay_powers():
    # folding 0^-1 or 1e200^2 raises in Python; the parse must not
    cost = parse_scalar_cost("0^-1 + w")
    assert to_string(cost.expression) == "0^-1 + w"
    assert cost.value(1.0) == math.inf
    assert cost.deriv(1.0) == 1.0
    assert parse_scalar_cost("1e200^2 * w").value(-1.0) == -math.inf
    assert to_string(parse_scalar_cost("2^3 * w").expression) == "8 * w"


def test_simplify_folds_constants():
    cost = parse_scalar_cost("0 * w + 2 * 3 + w * 1")
    reduced = simplify(cost.expression)
    assert evaluate(reduced, 5.0) == pytest.approx(11.0)
    assert to_string(reduced) == "6 + w"


# matrix costs


def test_quadratic_cost_values_and_gradient():
    cost = QuadraticMatrixCost(np.array([[2.0, 0.0], [0.0, 1.0]]))
    W = np.array([[1.0, 0.0], [0.0, 0.5]])
    assert cost.value(W) == pytest.approx(0.625)  # 0.5 * (1 + 0.25)
    np.testing.assert_allclose(cost.gradient(W), W - cost.target)
    grad_fd = fd_matrix_gradient(cost.value, W)
    np.testing.assert_allclose(cost.gradient(W), grad_fd, atol=1e-9)


def test_quadratic_cost_gradient_directional():
    cost = QuadraticMatrixCost(np.array([[2.0, 0.3], [-0.1, 1.0]]))
    W = np.array([[1.0, -0.5], [0.25, 2.0]])
    A = np.random.default_rng(0).normal(size=(3, 2, 2))
    fd = fd_scalar_derivative(lambda t: cost.gradient(W + t * A), 0.0)
    np.testing.assert_allclose(cost.gradient_directional(W, A), fd, atol=1e-8)
    np.testing.assert_allclose(cost.gradient_directional(W, A[0]), fd[0], atol=1e-8)


def test_quadratic_cost_rejects_bad_targets():
    with pytest.raises(ValueError):
        QuadraticMatrixCost(np.array([[1.0, 0.0]]))  # not square
    with pytest.raises(ValueError):
        QuadraticMatrixCost(np.array([[1.0, 0.0], [0.0, 0.0]]))  # rank deficient


def test_scalar_cost_as_matrix_adapter():
    cost = parse_scalar_cost("(1 - w)^2")
    mat = cost.as_matrix()
    assert mat.n == 1
    W = np.array([[0.25]])
    assert mat.value(W) == pytest.approx(cost.value(0.25))
    np.testing.assert_allclose(mat.gradient(W), [[cost.deriv(0.25)]])
    A = np.array([0.3, -1.0, 2.0]).reshape(3, 1, 1)
    fd = fd_scalar_derivative(lambda t: mat.gradient(W + t * A), 0.0)
    np.testing.assert_allclose(mat.gradient_directional(W, A), fd, rtol=1e-8)
    np.testing.assert_allclose(mat.gradient_directional(W, A[0]), fd[0], rtol=1e-8)


# gradient-dominance scan


def test_pdpli_passes_for_quadratic_well():
    # |f'| / sqrt(f) = 2|1 - w| / |1 - w| = 2 everywhere away from the minimum
    report = pdpli_check(parse_scalar_cost("(1 - w)^2", min_value=0.0), (-3.0, 3.0))
    assert report.passed
    assert report.witness is None
    assert report.alpha_scale == pytest.approx(2.0)


def test_pdpli_fails_for_double_well():
    # the local max at w = 0 has f' = 0 with f > 0: the ratio collapses there
    report = pdpli_check(parse_scalar_cost("(w^2 - 1)^2", min_value=0.0), (-3.0, 3.0))
    assert not report.passed
    assert report.witness == pytest.approx(0.0, abs=1e-9)


def test_pdpli_fails_at_a_critical_point_between_grid_points():
    # f' = 4w^3 - 6w + 1 vanishes at w ~ 0.170 (local max) and w ~ 1.131 (local
    # min, above the global one near -1.30); no grid point lands on either, so
    # the grid ratios alone stay above the floor
    cost = parse_scalar_cost("w^4 - 3 * w^2 + w")
    report = pdpli_check(cost, (-3.0, 3.0))
    assert not report.passed
    assert abs(cost.deriv(report.witness)) < 1e-12
    assert cost.value(report.witness) > report.fmin + 1.0
    assert report.alpha_scale < 1e-8


def test_pdpli_fails_at_a_degenerate_critical_point():
    # f' = 3 (w - 0.005)^2 touches 0 at w = 0.005, halfway between grid points,
    # without changing sign; f = 30 there, far above the grid minimum
    cost = parse_scalar_cost("(w - 0.005)^3 + 30")
    report = pdpli_check(cost, (-3.0, 3.0))
    assert not report.passed
    assert report.witness == pytest.approx(0.005, abs=1e-12)
    assert cost.value(report.witness) > report.fmin + 1.0
    assert report.alpha_scale < 1e-8


def test_pdpli_flat_cost_is_vacuous():
    report = pdpli_check(parse_scalar_cost("0 * w", min_value=0.0), (-1.0, 1.0))
    assert report.passed
    assert math.isinf(report.alpha_scale)


def test_pdpli_input_validation():
    cost = parse_scalar_cost("(1 - w)^2")
    with pytest.raises(ValueError):
        pdpli_check(cost, (1.0, 1.0))
    with pytest.raises(ValueError):
        pdpli_check(parse_scalar_cost("1 / w"), (-1.0, 1.0))  # non-finite on the grid
