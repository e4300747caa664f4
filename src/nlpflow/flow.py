"""Fixed-step explicit Euler integration of the descent field.

The flow is a diagnostic tool (phase portraits, monotonicity checks),
not the solver: Euler can leave the feasible set, so integration aborts
with a diagnostic once the inequality drift exceeds a threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .field import FieldError, field_eval
from .model import FIELD_FEAS_TOL, is_feasible

# Inequality drift beyond which integration stops and reports.
DRIFT_ABORT = 0.01


@dataclass
class Trajectory:
    t: np.ndarray
    x: np.ndarray  # shape (len(t), n)
    theta: np.ndarray
    normF: np.ndarray
    max_g: np.ndarray
    max_abs_h: np.ndarray
    status: str = "completed"
    diagnostic: str = ""

    def __len__(self):
        return len(self.t)


@dataclass
class PhaseGrid:
    trajectories: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    skipped: list = field(default_factory=list)


def euler_flow(p, params, x0, step, steps):
    """Integrate x' = F(x) with constant step from a feasible start.

    Records (t, x, theta, |F|, max g, max |h|) at every visited point.
    Stops early with a diagnostic if max g exceeds DRIFT_ABORT or the
    field evaluation fails mid-flow.
    """
    x = np.asarray(x0, dtype=float)
    if step <= 0:
        raise ValueError("step must be positive")
    if not is_feasible(p, x, FIELD_FEAS_TOL):
        raise ValueError("initial point is infeasible")

    rows_t, rows_x, rows_th, rows_nf, rows_g, rows_h = [], [], [], [], [], []
    status, diagnostic = "completed", ""
    for i in range(steps + 1):
        try:
            fe = field_eval(p, params, x, feas_tol=DRIFT_ABORT)
        except FieldError as exc:
            status, diagnostic = "aborted", f"field evaluation failed at step {i}: {exc}"
            break
        max_g = float(np.max(fe.g)) if fe.g.size else 0.0
        max_h = float(np.max(np.abs(fe.h))) if fe.h.size else 0.0
        rows_t.append(i * step)
        rows_x.append(x.copy())
        rows_th.append(fe.theta)
        rows_nf.append(float(np.linalg.norm(fe.F)))
        rows_g.append(max_g)
        rows_h.append(max_h)
        if max_g > DRIFT_ABORT:
            status, diagnostic = "aborted", f"feasibility drift max_g={max_g:.3e} at step {i}"
            break
        if i < steps:
            x = x + step * fe.F

    return Trajectory(t=np.array(rows_t), x=np.array(rows_x).reshape(len(rows_t), p.n),
                      theta=np.array(rows_th), normF=np.array(rows_nf),
                      max_g=np.array(rows_g), max_abs_h=np.array(rows_h),
                      status=status, diagnostic=diagnostic)


def phase_grid(p, params, plane, ranges, counts, base, step, steps):
    """One trajectory per feasible point of a rectangular grid.

    ``plane`` selects two coordinate indices varied over ``ranges`` =
    (lo_i, hi_i, lo_j, hi_j) with ``counts`` = (ni, nj); the remaining
    coordinates are held at ``base``.  Infeasible grid points are
    recorded as skipped, not errors.
    """
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
