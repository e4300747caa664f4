import dataclasses
import math
import re

import numpy as np
import pytest

from nlpflow.exprlang import (MAX_NESTING, BinOp, EvalError, ExprError, Neg,
                              Num, ParseError, Stack, UnknownVariableError,
                              Var, evaluate, evaluate_stack, grad, parse,
                              ray_polynomials, substitute, to_string)

NAMES = ("x1", "x2", "x3")


def _jvp(e, x, u):
    """The derivative of the one expression ``e`` at ``x`` along ``u``: c_1
    of its ray polynomial."""
    [c] = ray_polynomials(e, x, u)
    return c[1]


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


@pytest.mark.parametrize("k", range(2, 10))
def test_powers_agree_with_pow_within_their_rounding(k):
    # A power is a multiplication chain, so it may differ from libm's pow.
    # A chain of k factors rounds k - 1 times, and a squaring doubles the
    # error already made, so its relative error is below (k - 1) * 2^-53:
    # k - 1 ulps, whatever the chain's length.  pow adds under 1 ulp.
    rng = np.random.default_rng(k)
    magnitudes = np.exp(rng.uniform(-69.0, 69.0, size=2000))  # 1e-30 to 1e30
    bases = [*rng.uniform(-3.0, 3.0, size=2000), *(magnitudes * rng.choice([-1.0, 1.0], 2000))]
    e = parse(f"x1^{k}", ("x1",))
    worst = max(abs(evaluate(e, [a]) - math.pow(a, k)) / math.ulp(math.pow(a, k))
                for a in bases)
    assert worst <= k
    # One multiplication is IEEE's correctly rounded product, as pow nearly is.
    if k == 2:
        assert worst <= 1


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


@pytest.mark.parametrize("text, message, offset", [
    ("x1 + $x2", "unexpected character '$'", 5),
    ("(x1 + x2", "expected ')'", 8),
    ("x1 +", "unexpected end of expression", 4),
    ("-", "unexpected end of expression", 1),
])
def test_parse_error_names_its_offset(text, message, offset):
    with pytest.raises(ParseError, match=re.escape(f"{message} (at offset {offset})")) as exc:
        parse(text, NAMES)
    assert exc.value.offset == offset


def test_expr_is_never_equal_to_another_type():
    e = parse("1", NAMES)
    assert (e == 1) is False and (e != 1) is True
    assert e.__eq__(1) is NotImplemented


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


@pytest.mark.parametrize("point", [[1e10], np.array([1e10]), [np.float64(1e10)],
                                   [10_000_000_000]],
                         ids=["list", "ndarray", "numpy-list", "int-list"])
def test_overflow_is_eval_error(point):
    # The kernels run on Python floats whatever the container, so a power
    # that overflows raises, even behind ^0, and a product that overflows
    # gives inf, which the finiteness check catches; pytest turns a NumPy
    # RuntimeWarning into a failure.
    for text in ("x^400", "(x^400)^0 + x", "1e300*x*x"):
        e = parse(text, ("x",))
        for call in (lambda: evaluate(e, point), lambda: grad(e, point),
                     lambda: _jvp(e, point, [1.0])):
            with pytest.raises(EvalError):
                call()


@pytest.mark.parametrize("huge", [[10**400, 0], np.array([10**400, 0], dtype=object)],
                         ids=["int-list", "object-ndarray"])
def test_coordinate_too_large_for_a_float_is_eval_error(huge):
    # Points and directions alike: float(10**400) raises OverflowError.
    e = parse("x1 + x2", ("x1", "x2"))
    s = Stack((e,), ("x1", "x2"))
    message = "overflow: int too large to convert to float"
    for call in (lambda: evaluate(e, huge), lambda: grad(e, huge),
                 lambda: evaluate_stack(s, huge),
                 lambda: ray_polynomials(s, huge, [1.0, 0.0]),
                 lambda: ray_polynomials(s, [1.0, 2.0], huge)):
        with pytest.raises(EvalError, match=message):
            call()


@pytest.mark.parametrize("point", [[1e10], np.array([1e10])], ids=["list", "ndarray"])
@pytest.mark.parametrize("text", ["(1e300*x*x)^0 + x", "(1e300*x*x - 1e300*x*x)^0",
                                  "x + (x/1e-300)^0"])
def test_non_finite_base_of_zeroth_power_is_eval_error(text, point):
    # b^0 is 1 only for a finite b: a sum, product or quotient that
    # overflows to inf (or gives nan) cannot hide behind ^0.
    e = parse(text, ("x",))
    s = Stack((parse("x", ("x",)), e), ("x",))
    for call in (lambda: evaluate(e, point), lambda: grad(e, point),
                 lambda: _jvp(e, point, [1.0]), lambda: evaluate_stack(s, point),
                 lambda: ray_polynomials(s, point, [1.0])):
        with pytest.raises(EvalError, match=r"\^0"):
            call()


def test_grad_without_variables_runs_its_kernel():
    # Like the ray kernel, grad runs the expression's kernel even with no lane to seed.
    e = parse("1/(1-1)", ())
    for call in (lambda: grad(e, []), lambda: _jvp(e, [], [])):
        with pytest.raises(EvalError, match="division by zero"):
            call()
    assert grad(parse("2", ()), []) == []
    with pytest.raises(ExprError):
        grad(parse("2", ()), [1.0])


@pytest.mark.parametrize("point", [(3.0, -2.0), [3, -2], [np.float64(3.0), np.float64(-2.0)],
                                   np.array([3, -2]), np.array([3.0, -2.0])],
                         ids=["tuple", "int-list", "numpy-list", "int-ndarray", "ndarray"])
def test_every_container_runs_on_python_floats(point):
    e = parse("x1^3 / x2 + x2", ("x1", "x2"))
    floats = [3.0, -2.0]
    got = [evaluate(e, point), *grad(e, point), _jvp(e, point, point)]
    assert [type(v) for v in got] == [float] * 4
    assert got == [evaluate(e, floats), *grad(e, floats), _jvp(e, floats, floats)]


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
    assert _jvp(e, [1.5, 2.0], [1.0, -1.0]) == 1500.0


def test_long_sum_compares_hashes_and_prints():
    text = " + ".join(["x*y"] * 3000)
    a, b = parse(text, ("x", "y")), parse(text, ("x", "y"))
    assert a == b and hash(a) == hash(b)
    assert a != parse(text + " + 1", ("x", "y"))
    assert a != parse(text, ("x", "y", "z"))
    assert repr(a) == f"Expr({to_string(a)!r}, variables=('x', 'y'))"


def test_long_sum_nodes_compare_hash_and_print():
    text = " + ".join(["x*y"] * 3000)
    a, b = parse(text, ("x", "y")).root, parse(text, ("x", "y")).root
    assert a == b and hash(a) == hash(b)
    assert a != parse(text + " + 1", ("x", "y")).root
    assert repr(a) == f"BinOp({to_string(parse(text, ('x', 'y')))!r})"


def _dataclass_key(node):
    """What the generated dataclass equality compared: the class and every
    field, recursively."""
    return (type(node), *(_dataclass_key(v) if dataclasses.is_dataclass(v) else v
                          for v in vars(node).values()))


def test_small_nodes_compare_as_dataclasses():
    texts = ["x1", "x2", "2", "2.0", "-x1", "-(-x1)", "x1 + x2", "x2 + x1",
             "x1 - x2", "x1*x2", "x1/x2", "x1^2", "x1^3", "(x1 + x2)^2",
             "x1 + x2 * x3", "(x1 + x2) * x3", "-x1^2", "(-x1)^2", "0*x1",
             "-0*x1", "1e400 * x1"]
    roots = [parse(t, NAMES).root for t in texts]
    again = [parse(t, NAMES).root for t in texts]
    for a in roots:
        for b in roots + again:
            assert (a == b) == (_dataclass_key(a) == _dataclass_key(b)), (a, b)
            if a == b:
                assert hash(a) == hash(b)
    assert repr(roots[7]) == "BinOp('(x2 + x1)')"
    assert repr(roots[4]) == "Neg('(-x1)')" and repr(roots[11]) == "Pow('(x1^2)')"


def test_long_sum_substitutes_and_prints():
    # A 3000-term objective after the elimination x3 = 1 - x1 - x2.
    e = parse(" + ".join(["x1*x2"] * 3000) + " + x3^2", NAMES)
    phi = parse("1 - x1 - x2", ("x1", "x2"))
    reduced = substitute(e, {2: phi.root}, ("x1", "x2"))
    assert evaluate(reduced, [0.5, 0.25]) == 3000 * 0.125 + 0.0625
    text = to_string(reduced)
    assert text.count("x1") == 3001
    # Fully parenthesized, the left-leaning sum nests 3000 levels deep.
    with pytest.raises(ParseError):
        parse(text, ("x1", "x2"))


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
        assert abs(_jvp(e, x, u) - float(g @ u)) <= bound


def test_jvp_matches_central_differences():
    rng = np.random.default_rng(6)
    e = parse("(x1 - x2^2)^3 / (x3^2 + 2) + x1*x2*x3", NAMES)
    h = 1e-6
    for _ in range(50):
        x, u = rng.uniform(-2, 2, size=3), rng.uniform(-1, 1, size=3)
        fd = (evaluate(e, x + h * u) - evaluate(e, x - h * u)) / (2 * h)
        d = _jvp(e, x, u)
        assert abs(d - fd) <= 1e-6 * max(1.0, abs(d))


def test_jvp_checks_lengths():
    e = parse("x1 + x2", NAMES)
    with pytest.raises(ExprError):
        _jvp(e, [1.0, 2.0, 3.0], [1.0, 0.0])
