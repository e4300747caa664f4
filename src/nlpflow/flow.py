"""Fixed-step explicit Euler integration of the descent field.

The flow is a diagnostic tool (phase portraits, monotonicity checks),
not the solver.  Trajectories advance in lockstep: each Euler step makes
one stacked field assembly (``field_block``) for every trajectory still
running, and ``euler_flow`` is the one-trajectory case.  Euler can leave
the feasible set, so the field is evaluated with the drift tolerance
DRIFT_ABORT.  A trajectory whose inequality drift exceeds it, or whose
field assembly fails, stops there with a diagnostic; the others go on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .field import FieldError, field_block, norms
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


def _advance(p, params, starts, step, steps):
    """Integrate x' = F(x) with constant step from each feasible start.

    All trajectories advance together, one ``field_block`` call per step;
    each row has the same bits as integrating its trajectory alone.
    Records (t, x, theta, |F|, max g, max |h|) at every visited point.  A
    trajectory whose field evaluation fails stops with a diagnostic that
    names the step and the cause.  An ExprError stops its trajectory too,
    and once the others have finished, the first one, in start order, is
    raised: the error that integrating one trajectory after another would
    raise.
    """
    X = np.array(starts, dtype=float)
    if not all(is_feasible(p, x, FIELD_FEAS_TOL) for x in X):
        raise ValueError("initial point is infeasible")
    N, n = X.shape
    status, diagnostic, raised = ["completed"] * N, [""] * N, {}
    live = np.arange(N)
    # The live set only shrinks.  Each run of steps with the same live set
    # keeps (x, theta, F, g, h) of its trajectories, one tuple per step.
    runs = [(live, [])]
    for i in range(steps + 1):
        block, errors = field_block(p, params, X, DRIFT_ABORT)
        if any(errors):
            for r, exc in zip(live.tolist(), errors):
                if isinstance(exc, FieldError):
                    status[r] = "aborted"
                    diagnostic[r] = f"field evaluation failed at step {i}: {exc}"
                elif exc is not None:
                    raised[r] = exc
            keep = [exc is None for exc in errors]
            live, X = live[keep], X[keep]
            if not live.size:
                break
            runs.append((live, []))
        runs[-1][1].append((X, block.theta, block.F, block.g, block.h))
        if i < steps:
            X = X + step * block.F
    if raised:
        raise raised[min(raised)]

    parts = [[] for _ in range(N)]
    for live, rows in runs:
        if not rows:
            continue
        x, theta, F, g, h = (np.array(a) for a in zip(*rows))  # steps x trajectories x ...
        S, L = theta.shape
        zeros = np.zeros((S, L, 1))  # max g and max |h| without constraints
        rec = np.concatenate([x, theta[..., None], norms(F)[..., None],
                              g.max(axis=2, keepdims=True) if p.k else zeros,
                              np.abs(h).max(axis=2, keepdims=True) if p.m else zeros], axis=2)
        for q, r in enumerate(live.tolist()):
            parts[r].append(rec[:, q])

    trajectories = []
    for r in range(N):
        rec = np.concatenate(parts[r]) if parts[r] else np.zeros((0, n + 4))
        theta, normF, max_g, max_h = rec[:, n:].T.copy()
        trajectories.append(Trajectory(
            t=np.arange(len(rec)) * step, x=rec[:, :n].copy(), theta=theta, normF=normF,
            max_g=max_g, max_abs_h=max_h, status=status[r], diagnostic=diagnostic[r]))
    return trajectories


def euler_flow(p, params, x0, step, steps):
    """Integrate x' = F(x) with constant step from a feasible start: the
    one-trajectory case of ``phase_grid``'s lockstep integration.

    Records (t, x, theta, |F|, max g, max |h|) at every visited point.
    Stops early with a diagnostic if the field evaluation fails, which it
    does once max g exceeds DRIFT_ABORT.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    return _advance(p, params, [np.asarray(x0, dtype=float)], step, steps)[0]


def phase_grid(p, params, plane, ranges, counts, base, step, steps):
    """One trajectory per feasible point of a rectangular grid, all
    integrated together.

    ``plane`` selects two coordinate indices varied over ``ranges`` =
    (lo_i, hi_i, lo_j, hi_j) with ``counts`` = (ni, nj); the remaining
    coordinates are held at ``base``.  Infeasible grid points are
    recorded as skipped, not errors.
    """
    if not step > 0:
        raise ValueError("step must be positive")
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
    if result.starts:
        result.trajectories = _advance(p, params, result.starts, step, steps)
    return result

