import numpy as np
import pytest

from nlpflow.exprlang import EvalError, evaluate, evaluate_stack, parse
from nlpflow.model import (ModelError, Problem, ReducedProblem, ReductionError,
                           constraint_values, is_feasible, jacobians, reduce, residuals)

N3 = ("x1", "x2", "x3")


def _toy():
    """min x1^2 + x2^2 s.t. x1 + x2 + x3 = 2, -x1 <= 0, x2 - 3 <= 0."""
    return Problem(
        names=N3,
        objective=parse("x1^2 + x2^2", N3),
        equalities=(parse("x1 + x2 + x3 - 2", N3),),
        inequalities=(parse("-x1", N3), parse("x2 - 3", N3)),
    )


def test_dimensions():
    p = _toy()
    assert (p.n, p.m, p.k) == (3, 1, 2)


def test_residuals():
    h, g = residuals(_toy(), [1.0, 2.0, 3.0])
    assert np.array_equal(h, [4.0])
    assert np.array_equal(g, [-1.0, -1.0])


@pytest.mark.parametrize("ineq, x, message", [
    ("x1^400 - 1", 10.0, "overflow"),             # a power overflows
    ("1e300*x1*x1 - 1", 1e10, "non-finite value"),  # a product overflows
])
def test_residuals_overflow_is_an_eval_error(ineq, x, message):
    # pytest turns a RuntimeWarning into a failure.
    p = Problem(names=("x1",), objective=parse("x1", ("x1",)),
                inequalities=(parse(ineq, ("x1",)),))
    with pytest.raises(EvalError, match=message):
        residuals(p, np.array([x]))


def test_jacobians_shapes_and_values():
    A, B = jacobians(_toy(), [1.0, 2.0, 3.0])
    assert A.shape == (1, 3) and B.shape == (2, 3)
    assert np.array_equal(A, [[1.0, 1.0, 1.0]])
    assert np.array_equal(B, [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def test_is_feasible():
    p = _toy()
    assert is_feasible(p, [0.5, 0.5, 1.0])
    assert not is_feasible(p, [0.5, 0.5, 0.0])   # equality broken
    assert not is_feasible(p, [-0.1, 0.5, 1.6])  # inequality broken


def test_too_many_equalities_rejected():
    with pytest.raises(ModelError):
        Problem(
            names=("x1", "x2"),
            objective=parse("x1", ("x1", "x2")),
            equalities=(parse("x1", ("x1", "x2")),
                        parse("x2", ("x1", "x2"))),
        )


def test_reduce_toy():
    p = _toy()
    red = reduce(p, [("x3", "2 - x1 - x2")])
    assert (red.n, red.m, red.k) == (2, 0, 2)
    xi = np.array([0.3, 0.7])
    full = red.lift(xi)
    assert np.array_equal(full, [0.3, 0.7, 1.0])
    # composed objective/inequalities agree with the parent at the lift
    from nlpflow.exprlang import evaluate
    assert evaluate(red.objective, xi) == evaluate(p.objective, full)
    _, g_red = residuals(red, xi)
    _, g_full = residuals(p, full)
    assert np.array_equal(g_red, g_full)


def test_reduce_rejects_non_trailing():
    with pytest.raises(ModelError):
        reduce(_toy(), [("x2", "1 - x1")])


def test_reduce_rejects_wrong_map():
    with pytest.raises(ReductionError):
        reduce(_toy(), [("x3", "1 - x1 - x2")])


def _lift_per_expression(red, xi):
    """The elimination map one expression at a time, on NumPy floats."""
    return np.concatenate([xi, [evaluate(f, xi) for f in red.phi]])


def test_lift_is_the_per_expression_map(p41, p42):
    for _, red in (p41, p42):
        for xi in np.random.default_rng(2).uniform(-5.0, 5.0, size=(300, red.n)):
            got = red.lift(xi)
            assert got.dtype == float and got.tobytes() == _lift_per_expression(red, xi).tobytes()


@pytest.mark.parametrize("eliminate", ["2 - x1 - x2 + 1e-7*x1^2", "2 - x1 - x2 + 1e-24*(x1*x2)^12"])
def test_reduce_reports_the_first_failing_sample(eliminate):
    """The block check raises at the sample that one draw per sample
    reaches first, with its violation."""
    p = _toy()
    with pytest.raises(ReductionError) as exc:
        reduce(p, [("x3", eliminate)])
    red = ReducedProblem(p, (parse(eliminate, N3[:2]),), p.objective, (), N3[:2])
    rng = np.random.default_rng(0)
    for _ in range(100):
        h, _ = residuals(p, _lift_per_expression(red, rng.uniform(-5.0, 5.0, size=2)))
        worst = float(np.max(np.abs(h)))
        if worst > 1e-8:
            break
    assert str(exc.value) == (f"elimination violates an equality constraint by {worst:.3e} "
                              f"at a sampled point")


def test_elimination_stack_is_the_lift_then_the_constraint_stack(p41, p42):
    """One run gives the map and each equality at the lifted point, with
    the bits of ``lift`` followed by the parent's constraint stack."""
    for full, red in (p41, p42):
        for xi in np.random.default_rng(4).uniform(-5.0, 5.0, size=(300, red.n)):
            values = evaluate_stack(red.elimination_stack, xi)
            lifted = red.lift(xi)
            h, _ = constraint_values(full, lifted)
            want = (*lifted[red.n:].tolist(), *h)
            assert np.array(values).tobytes() == np.array(want).tobytes()


def test_reduce_reports_the_maps_own_error():
    """Where the map is not finite and an equality's operations raise on
    it, the error is the one ``lift`` raises, as lifting first gives."""
    p = Problem(names=("x1", "x2"), objective=parse("x1^2", ("x1", "x2")),
                equalities=(parse("x2^0 - 1", ("x1", "x2")),))
    eliminate = "x1*1e308*1e308"
    first = np.random.default_rng(0).uniform(-5.0, 5.0, size=(100, 1))[0]
    with pytest.raises(EvalError) as want:
        evaluate(parse(eliminate, ("x1",)), first)
    with pytest.raises(EvalError) as got:
        reduce(p, [("x2", eliminate)])
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("non-finite value")


def test_reduce_does_not_evaluate_the_inequalities():
    """An inequality that overflows at the check's samples does not block
    the reduction: only the map and the equalities are evaluated there."""
    p = Problem(names=N3, objective=parse("x1^2 + x2^2", N3),
                equalities=(parse("x1 + x2 + x3 - 2", N3),),
                inequalities=(parse("x1^500 - 1", N3),))
    red = reduce(p, [("x3", "2 - x1 - x2")])
    assert residuals(red, [0.1, 0.1])[1].tolist() == [0.1 ** 500 - 1]


def test_reduce_rejects_empty():
    with pytest.raises(ModelError):
        reduce(_toy(), [])


def test_loaded_problem_41(p41):
    full, red = p41
    assert (full.n, full.m, full.k) == (3, 1, 4)
    assert (red.n, red.m, red.k) == (2, 0, 4)
    star = np.array([0.0, 0.0])
    assert np.allclose(red.lift(star), [0.0, 0.0, 2.0])
    assert is_feasible(full, red.lift(star))


def test_loaded_problem_42(p42):
    full, red = p42
    assert (full.n, full.m, full.k) == (4, 1, 2)
    assert (red.n, red.m, red.k) == (3, 0, 2)
    star = np.array([0.0, 1.0, 2.0])
    assert np.allclose(red.lift(star), [0.0, 1.0, 2.0, -1.0])
    assert is_feasible(full, red.lift(star), tol=1e-12)
