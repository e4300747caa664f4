"""Fixed-step explicit Euler integration of the descent field.

The flow is a diagnostic tool (phase portraits, monotonicity checks),
not the solver.  Trajectories advance in lockstep: each Euler step makes
one stacked field assembly (``field_block``) for every trajectory still
running, and ``euler_flow`` is the one-trajectory case.  Euler can leave
the feasible set, so the field is evaluated with the drift tolerance
DRIFT_ABORT.  A trajectory whose inequality drift exceeds it, or whose
field assembly or expression kernels fail, stops there with a diagnostic
that names its cause; the others go on.

The flow's equilibria are the critical points, and in floating point the
Euler map reaches one: from some step on, x + step*F(x) is x, bit for
bit.  The map is deterministic and a row's field has the same bits in any
block, so every later record of such a trajectory repeats its last one.
It leaves the block there, still ``completed``, and its remaining records
are copies of that last one, the rows that evaluating every step gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .field import field_block, norms
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
    """Integrate x' = F(x) with constant step from each start; the
    callers have tested the starts for feasibility.

    All trajectories advance together, one ``field_block`` call per step;
    each row has the same bits as integrating its trajectory alone.
    Records (t, x, theta, |F|, max g, max |h|) at every visited point.  A
    trajectory whose field evaluation fails, by a FieldError or by an
    ExprError of the kernels, stops with a diagnostic that names the step
    and the cause; the others go on.  A trajectory whose Euler step leaves
    x unchanged bit for bit (on its bytes, so 0.0 and -0.0 differ)
    sits at a fixed point of the map: it leaves the block too, but
    completes, with its last record repeated for each remaining step.
    Once no trajectory is left in the block, the steps stop.
    """
    X = np.array(starts, dtype=float)
    N, n = X.shape
    status, diagnostic = ["completed"] * N, [""] * N
    repeats = [0] * N  # copies of the last record that follow it
    live = np.arange(N)
    # The live set only shrinks.  Each run of steps with the same live set
    # keeps (x, theta, F, g, h) of its trajectories, one tuple per step.
    runs = [(live, [])]
    for i in range(steps + 1):
        block, errors = field_block(p, params, X, DRIFT_ABORT)
        if any(errors):
            for r, exc in zip(live.tolist(), errors):
                if exc is not None:
                    status[r] = "aborted"
                    diagnostic[r] = f"field evaluation failed at step {i}: {exc}"
            keep = [exc is None for exc in errors]
            live, X = live[keep], X[keep]
            if not live.size:
                break
            runs.append((live, []))
        runs[-1][1].append((X, block.theta, block.F, block.g, block.h))
        if i == steps:
            break
        moved = X + step * block.F
        # Bytes, not ==, so 0.0 and -0.0 differ; at a few rows slicing them
        # costs less than comparing int64 views.
        old, new, width = X.tobytes(), moved.tobytes(), 8 * n
        keep = [old[j:j + width] != new[j:j + width] for j in range(0, len(old), width)]
        if not all(keep):
            for r, moves in zip(live.tolist(), keep):
                if not moves:
                    repeats[r] = steps - i
            live, moved = live[keep], moved[keep]
            if not live.size:
                break
            runs.append((live, []))
        X = moved

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
        if repeats[r]:
            parts[r].append(np.repeat(parts[r][-1][-1:], repeats[r], axis=0))
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
    does once max g exceeds DRIFT_ABORT or an expression kernel fails.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    x0 = np.asarray(x0, dtype=float)
    if not is_feasible(p, x0, FIELD_FEAS_TOL):
        raise ValueError("initial point is infeasible")
    return _advance(p, params, [x0], step, steps)[0]


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

