"""Reference field assembly and Euler flow, one point and one trajectory at a time.

The oracle for ``field.field_block`` and ``flow.phase_grid``, which
assemble the field on stacked blocks of points and advance every
trajectory together.  This is the earlier per-point code: the expression
kernels run on the NumPy point itself, the linear algebra is 2-D, and
each trajectory is integrated to its end before the next one starts,
evaluating the field at every step, also where the Euler map has reached
a fixed point and ``flow`` stops evaluating.
The stacked code must give every diagnostic, and every quantity and
trajectory row within the stated bounds of the tests; with the package's
field (below), the rows with the same bits.  A FieldError or an ExprError
of the kernels ends its own trajectory with a diagnostic.  ``field_eval``
returns its point's field as a one-point FieldBlock row, the type of
``field.field_eval``.
``check_theta_monotone`` is the descent test that the flow tests and
criterion 7 apply to a trajectory.

The linear algebra is BLAS and LAPACK (``dpotrf``/``dpotrs`` from
``scipy.linalg.get_lapack_funcs``), not the package's generated field
kernel, so it is an independent oracle: the kernel sums in its own
order, and the tests compare the two within stated bounds.  Driven by
the package's own one-point field instead (``euler_flow``'s ``field``),
the every-step loop must give ``flow``'s trajectories bit for bit.
"""

import numpy as np
import scipy.linalg

from nlpflow.exprlang import ExprError, evaluate, evaluate_stack, grad
from nlpflow.field import ConstraintQualificationError, FieldBlock, FieldError, InfeasiblePointError
from nlpflow.flow import DRIFT_ABORT, PhaseGrid, Trajectory
from nlpflow.model import FIELD_FEAS_TOL, is_feasible


_potrf, _potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


def _cholesky(S, name, failure):
    if not np.isfinite(S).all():
        raise FieldError(f"{name} is not finite: its assembly overflowed")
    c, info = _potrf(S, lower=True, clean=False)
    if info > 0:
        pivot = float(np.linalg.eigvalsh(S).min())
        raise ConstraintQualificationError(failure.format(pivot=pivot))
    return c


def _cho_solve(c, rhs):
    return _potrs(c, rhs, lower=True)[0]


def projector_h(A):
    m, n = A.shape
    if m == 0:
        return np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = A @ A.T
    c = _cholesky(gram, "the Gram matrix of the equality gradients",
                  "equality gradients are rank deficient (smallest pivot {pivot:.3e})")
    H = np.eye(n) - A.T @ _cho_solve(c, A)
    return 0.5 * (H + H.T)


def field_eval(p, params, x, feas_tol=FIELD_FEAS_TOL):
    x = np.asarray(x, dtype=float)
    values = evaluate_stack(p.constraint_stack, x)
    h = np.array(values[:p.m], dtype=float)
    g = np.array(values[p.m:], dtype=float)
    worst = max(np.max(np.abs(h)) if h.size else 0.0,
                np.max(g) if g.size else 0.0)
    if worst > feas_tol:
        raise InfeasiblePointError(
            f"point infeasible: max constraint violation {worst:.3e} > {feas_tol:.1e}")

    theta = evaluate(p.objective, x)
    gtheta = np.asarray(grad(p.objective, x), dtype=float)
    n, m, k = p.n, p.m, p.k
    A = np.array([grad(e, x) for e in p.equalities], dtype=float).reshape(m, n)
    B = np.array([grad(e, x) for e in p.inequalities], dtype=float).reshape(k, n)
    H = projector_h(A)

    C = B @ H
    with np.errstate(over="ignore", invalid="ignore"):
        Q = C @ B.T - np.diag(g)
        Q = 0.5 * (Q + Q.T)
    if k == 0:
        P = np.zeros((0, n))
        v = vplus = r3 = w = omega = np.zeros(0)
        M = H
    else:
        cho = _cholesky(Q, "Q", "Q is not positive definite (smallest pivot {pivot:.3e}): "
                                "LICQ violated or point infeasible")
        P = _cho_solve(cho, C)
        v = P @ gtheta
        vplus = np.maximum(0.0, v)
        M = H - C.T @ P
    xi = M @ gtheta
    with np.errstate(over="ignore", invalid="ignore"):
        R1xi = params.R1 @ xi
        F = -M @ R1xi
        if k:
            r3 = params.b + params.c * vplus ** (2 * params.p)
            mixed = params.R2 @ (g * v) - params.a * v
            F = F - P.T @ (g * mixed) - P.T @ (r3 * vplus)
            w = C @ R1xi - (Q + np.diag(g)) @ mixed - r3 * vplus
    if not np.isfinite(F).all():
        raise FieldError("the field F is not finite: its assembly overflowed")
    if k:
        if not np.isfinite(w).all():
            raise FieldError("the vector w is not finite: its assembly overflowed")
        omega = _cho_solve(cho, w)

    return FieldBlock(x=x, theta=theta, grad_theta=gtheta, h=h, g=g, A=A, B=B,
                      H=H, Q=Q, P=P, v=v, vplus=vplus, r3=r3, F=F, w=w,
                      omega=omega, xi=xi)


def euler_flow(p, params, x0, step, steps, field=field_eval):
    """Euler from ``x0``, one ``field(p, params, x, feas_tol)`` at every
    step, which returns the point's FieldBlock row or raises."""
    x = np.asarray(x0, dtype=float)
    if step <= 0:
        raise ValueError("step must be positive")
    if not is_feasible(p, x, FIELD_FEAS_TOL):
        raise ValueError("initial point is infeasible")

    rows_t, rows_x, rows_th, rows_nf, rows_g, rows_h = [], [], [], [], [], []
    status, diagnostic = "completed", ""
    for i in range(steps + 1):
        try:
            fe = field(p, params, x, feas_tol=DRIFT_ABORT)
        except (FieldError, ExprError) as exc:
            status, diagnostic = "aborted", f"field evaluation failed at step {i}: {exc}"
            break
        rows_t.append(i * step)
        rows_x.append(x.copy())
        rows_th.append(fe.theta)
        rows_nf.append(float(np.linalg.norm(fe.F)))
        rows_g.append(float(np.max(fe.g)) if fe.g.size else 0.0)
        rows_h.append(float(np.max(np.abs(fe.h))) if fe.h.size else 0.0)
        if i < steps:
            x = x + step * fe.F

    return Trajectory(t=np.array(rows_t), x=np.array(rows_x).reshape(len(rows_t), p.n),
                      theta=np.array(rows_th), normF=np.array(rows_nf),
                      max_g=np.array(rows_g), max_abs_h=np.array(rows_h),
                      status=status, diagnostic=diagnostic)


def phase_grid(p, params, plane, ranges, counts, base, step, steps):
    i, j = plane
    lo_i, hi_i, lo_j, hi_j = ranges
    ni, nj = counts
    base = np.asarray(base, dtype=float)
    result = PhaseGrid()
    for ui in np.linspace(lo_i, hi_i, ni):
        for uj in np.linspace(lo_j, hi_j, nj):
            x0 = base.copy()
            x0[i], x0[j] = ui, uj
            if not is_feasible(p, x0, FIELD_FEAS_TOL):
                result.skipped.append(x0)
                continue
            result.starts.append(x0)
            result.trajectories.append(euler_flow(p, params, x0, step, steps))
    return result


def check_theta_monotone(traj, slack=1e-8):
    """True when theta never increases by more than slack*(1+|theta|) per step."""
    th = traj.theta
    for a, b in zip(th[:-1], th[1:]):
        if b > a + slack * (1.0 + abs(a)):
            return False
    return True
