import numpy as np
import pytest

from nlpflow.exprlang import (MAX_NESTING, BinOp, EvalError, ExprError, Neg,
                              Num, ParseError, UnknownVariableError, Var,
                              evaluate, grad, jvp, parse, substitute,
                              to_string)

NAMES = ("x1", "x2", "x3")


def test_evaluate_polynomial():
    e = parse("2*x1^2 + x2*x3 - 4", NAMES)
    assert evaluate(e, [1.0, 2.0, 3.0]) == 2 + 6 - 4


def test_grad_polynomial():
    e = parse("2*x1^2 + x2*x3 - 4", NAMES)
    g = np.asarray(grad(e, [1.0, 2.0, 3.0]))
    assert np.array_equal(g, [4.0, 3.0, 2.0])


def test_grad_quotient():
    e = parse("x1 / (x2 + 1)", NAMES)
    g = np.asarray(grad(e, [2.0, 1.0, 0.0]))
    assert np.allclose(g, [0.5, -0.5, 0.0], rtol=0, atol=1e-15)


def test_power_binds_tighter_than_unary_minus():
    e = parse("-x1^2", NAMES)
    assert evaluate(e, [3.0, 0.0, 0.0]) == -9.0


def test_zero_power_is_one():
    e = parse("x1^0", NAMES)
    assert evaluate(e, [0.0, 0.0, 0.0]) == 1.0
    assert np.asarray(grad(e, [2.0, 0.0, 0.0]))[0] == 0.0


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(3)
    e = parse("(x1 - x2^2)^3 / (x3^2 + 2) + x1*x2*x3", NAMES)
    h = 1e-6
    for _ in range(50):
        x = rng.uniform(-2, 2, size=3)
        g = np.asarray(grad(e, x))
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (evaluate(e, xp) - evaluate(e, xm)) / (2 * h)
            assert abs(g[i] - fd) <= 1e-6 * max(1.0, abs(g[i]))


def test_round_trip_through_to_string():
    rng = np.random.default_rng(9)
    for text in ("x1 + x2*x3", "-(x1 - 2)^3", "x1/(x2^2 + 1) - 4.5*x3"):
        e = parse(text, NAMES)
        e2 = parse(to_string(e), NAMES)
        for _ in range(10):
            x = rng.uniform(-2, 2, size=3)
            assert evaluate(e, x) == evaluate(e2, x)


def test_substitute_composes():
    e = parse("x1^2 + x3", NAMES)
    phi = parse("2 - x1 - x2", ("x1", "x2"))
    composed = substitute(e, {2: phi.root}, ("x1", "x2"))
    assert evaluate(composed, [1.0, 4.0]) == 1.0 + (2 - 1 - 4)


def test_parse_error_reports_offset():
    with pytest.raises(ParseError) as exc:
        parse("x1 + * x2", NAMES)
    assert exc.value.offset == 5


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("x1 x2", NAMES)


def test_unknown_variable():
    with pytest.raises(UnknownVariableError):
        parse("x1 + y", NAMES)


def test_empty_expression():
    with pytest.raises(ParseError):
        parse("   ", NAMES)


def test_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse("x1^-2", NAMES)


def test_fractional_exponent_rejected():
    with pytest.raises(ParseError):
        parse("x1^1.5", NAMES)


def test_duplicate_variable_names_rejected():
    with pytest.raises(ExprError):
        parse("x1", ("x1", "x1"))


def test_division_by_zero():
    e = parse("x1 / x2", NAMES)
    with pytest.raises(EvalError):
        evaluate(e, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("point", [[10.0], np.array([10.0])],
                         ids=["list", "ndarray"])
def test_overflow_is_eval_error(point):
    e = parse("x^400", ("x",))
    for call in (lambda: evaluate(e, point), lambda: grad(e, point),
                 lambda: jvp(e, point, [1.0])):
        with pytest.raises(EvalError):
            with np.errstate(over="ignore"):
                call()


def test_infinite_exponent_is_parse_error():
    with pytest.raises(ParseError) as exc:
        parse("x1^1e400", NAMES)
    assert exc.value.offset == 3


def test_deep_nesting_is_parse_error():
    with pytest.raises(ParseError) as exc:
        parse("(" * 400 + "x1" + ")" * 400, NAMES)
    assert exc.value.offset == MAX_NESTING
    with pytest.raises(ParseError):
        parse("-" * 400 + "x1", NAMES)
    e = parse("(" * MAX_NESTING + "x1" + ")" * MAX_NESTING, NAMES)
    assert evaluate(e, [2.0, 0.0, 0.0]) == 2.0


def test_long_sum_evaluates_and_differentiates():
    e = parse(" + ".join(["x*y"] * 3000), ("x", "y"))
    assert evaluate(e, [1.5, 2.0]) == 9000.0
    assert grad(e, [1.5, 2.0]) == [6000.0, 4500.0]
    assert jvp(e, [1.5, 2.0], [1.0, -1.0]) == 1500.0


def test_substituted_subtree_is_taped_once(p42):
    _, red = p42
    for e in (red.objective, *red.inequalities):
        assert len(e.tape.ops) < _operation_nodes(e.root)


def _operation_nodes(node):
    if isinstance(node, (Num, Var)):
        return 0
    if isinstance(node, BinOp):
        return 1 + _operation_nodes(node.left) + _operation_nodes(node.right)
    return 1 + _operation_nodes(node.arg if isinstance(node, Neg) else node.base)


def test_jvp_matches_grad_dot_direction():
    rng = np.random.default_rng(5)
    e = parse("(x1 - x2^2)^3 / (x3^2 + 2) + x1*x2*x3", NAMES)
    eps = np.finfo(float).eps
    for _ in range(200):
        x, u = rng.uniform(-2, 2, size=3), rng.uniform(-2, 2, size=3)
        g = np.asarray(grad(e, x))
        bound = 8 * eps * float(np.sum(np.abs(g * u)))
        assert abs(jvp(e, x, u) - float(g @ u)) <= bound


def test_jvp_matches_central_differences():
    rng = np.random.default_rng(6)
    e = parse("(x1 - x2^2)^3 / (x3^2 + 2) + x1*x2*x3", NAMES)
    h = 1e-6
    for _ in range(50):
        x, u = rng.uniform(-2, 2, size=3), rng.uniform(-1, 1, size=3)
        fd = (evaluate(e, x + h * u) - evaluate(e, x - h * u)) / (2 * h)
        d = jvp(e, x, u)
        assert abs(d - fd) <= 1e-6 * max(1.0, abs(d))


def test_jvp_checks_lengths():
    e = parse("x1 + x2", NAMES)
    with pytest.raises(ExprError):
        jvp(e, [1.0, 2.0, 3.0], [1.0, 0.0])
