"""The four benchmark workloads: their command lines and output checks.

Every op is one ``nlpflow`` command line.  Each workload builds its op
stream from the seed, and judges each op from the program's own
17-digit output; ``check`` returns None for a good op and the reason
otherwise.

Starts and ranges are tested for feasibility here with the constraint
formulas of the two problem files written out in NumPy, not through
nlpflow, so that a change to the program cannot change the inputs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

P42 = "problems/p42.nlp"
P41 = "problems/p41.nlp"
P42_MINIMIZER = (0.0, 1.0, 2.0, -1.0)
P41_MINIMIZER = (0.0, 0.0)  # reduced coordinates x1, x2


def _fmt(v):
    return format(float(v), ".17g")


def _vec(v):
    return ",".join(_fmt(c) for c in v)


def p42_max_g(x):
    """Largest inequality of reduced Rosen-Suzuki (x4 eliminated)."""
    x1, x2, x3 = x
    x4 = 2 * x1 ** 2 + x2 ** 2 + x3 ** 2 + 2 * x1 - x2 - 5
    g1 = x1 ** 2 + x2 ** 2 + x3 ** 2 + x4 ** 2 + x1 - x2 + x3 - x4 - 8
    g2 = x1 ** 2 + 2 * x2 ** 2 + x3 ** 2 + 2 * x4 ** 2 - x1 - x4 - 10
    return max(g1, g2)


def p41_max_g(x1, x2):
    """Largest inequality of reduced p41 (x3 = 2 - x1 - x2 eliminated)."""
    return max(-x1 + 2 * x2 - 3, -x1, -x2, -(2 - x1 - x2))


def draw_p42_starts(seed, count, box=3.0):
    """Feasible starts for p42 in [-box, box]^3, in the order they are drawn."""
    rng = np.random.default_rng([seed, 42])
    out = []
    while len(out) < count:
        x = rng.uniform(-box, box, size=3)
        if p42_max_g(x) <= 0.0:
            out.append(x)
    return out


def _x_full_error(out):
    for line in out.splitlines():
        if line.startswith("# x_full:"):
            x = [float(v) for v in line.split(":", 1)[1].split(",")]
            return math.dist(x, P42_MINIMIZER)
    return math.inf


def solve_stats(out):
    """Iterations, rejections, snaps and termination of one solve CSV."""
    rows = [line.split(",") for line in out.splitlines()[1:]
            if line and not line.startswith("#")]
    term = ""
    for line in out.splitlines():
        if line.startswith("# termination:"):
            term = line.split(":", 1)[1].strip()
    return {"iterations": max(len(rows) - 1, 0),
            "rejections": sum(int(r[-2]) for r in rows),
            "snaps": sum(int(r[-1]) for r in rows),
            "termination": term}


class Solve:
    """``solve`` on Rosen-Suzuki from the acceptance starts.

    The gated stream cycles through the starts the acceptance criteria pin
    for this algorithm, in a seed-shuffled order.  Drawn starts are the
    probe's (see ``probe_ops``): about one in four of them runs the
    curvature-increment loop for seconds to minutes, which no steady,
    time-bounded run can absorb.
    """

    probe_draws = 8

    def __init__(self, name, algo, starts, cycle, extra=()):
        self.name = name
        self.algo = algo
        self.problem = P42
        self.starts = tuple(np.array(s, dtype=float) for s in starts)
        # Start indices of one cycle.  Latencies cluster by start, so the
        # cycle weights them to keep the median and the tail inside a
        # cluster rather than on the edge between two.
        self.cycle = tuple(cycle)
        self.extra = tuple(extra)
        self.trace_ops = len(self.cycle)
        self.digest_ops = len(self.cycle)

    def argv(self, x0):
        return (["solve", "--problem", P42, "--algo", self.algo,
                 "--sigma", "0.2", "--max-iter", "150", f"--x0={_vec(x0)}"]
                + list(self.extra))

    def ops(self, seed):
        rng = np.random.default_rng([seed, 1])
        while True:
            for i in rng.permutation(self.cycle):
                yield self.argv(self.starts[i])

    def probe_ops(self, seed):
        """Unfiltered feasible draws from the box, run under a deadline."""
        return [self.argv(x) for x in draw_p42_starts(seed, self.probe_draws)]

    def check(self, argv, rc, out):
        if rc != 0:
            return f"exit {rc}"
        err = _x_full_error(out)
        if not err <= 1e-5:
            return f"x_full {err:.3e} from the minimizer"
        return None


class Phase:
    """``phase`` on p41 at criterion 7's settings over a seed-shifted range.

    A 2x2 grid over [0, 1.5]^2 shifted by (d1, d2) with 0 <= d1 <= d2 and
    0.01 <= d2 <= 0.05: the corners (d1, d2) and (1.5 + d1, d2) are
    feasible and start one trajectory each; (d1, 1.5 + d2) violates
    -x1 + 2*x2 <= 3 by at least 0.01 and (1.5 + d1, 1.5 + d2) violates
    x3 >= 0.  Two trajectories keep an op short enough for 20 ops a run,
    and still give a lockstep batch something to batch.
    """

    name = "phase-p41"
    problem = P41
    grid = 2
    steps = 2000
    trace_ops = 2
    digest_ops = 2

    def argv(self, d1, d2):
        rng = ",".join(_fmt(v) for v in (d1, 1.5 + d1, d2, 1.5 + d2))
        return ["phase", "--problem", P41, "--plane", "x1,x2", f"--range={rng}",
                "--grid", f"{self.grid}x{self.grid}", "--sigma", "2",
                "--step", "0.01", "--steps", str(self.steps)]

    def ops(self, seed):
        rng = np.random.default_rng([seed, 2])
        while True:
            d2 = rng.uniform(0.01, 0.05)
            d1 = rng.uniform(0.0, d2)
            yield self.argv(d1, d2)

    def probe_ops(self, seed):
        return []

    def _expected_trajectories(self, argv):
        lo1, hi1, lo2, hi2 = (float(v) for v in argv[5].split("=", 1)[1].split(","))
        return sum(p41_max_g(a, b) <= 1e-8
                   for a in np.linspace(lo1, hi1, self.grid)
                   for b in np.linspace(lo2, hi2, self.grid))

    def check(self, argv, rc, out):
        if rc != 0:
            return f"exit {rc}"
        lines = out.splitlines()
        if any(line.startswith("# diagnostic") for line in lines):
            return "diagnostic line"
        trajs = {}
        for line in lines[1:]:
            cells = line.split(",")
            # traj_id, t, x1, x2, theta, normF, max_g, max_abs_h
            trajs.setdefault(cells[0], []).append(
                (float(cells[2]), float(cells[3]), float(cells[4])))
        if len(trajs) != self._expected_trajectories(argv):
            return f"{len(trajs)} trajectories"
        for tid, rows in trajs.items():
            if len(rows) != self.steps + 1:
                return f"trajectory {tid} has {len(rows)} rows"
            for (_, _, a), (_, _, b) in zip(rows, rows[1:]):
                if b > a + 1e-8 * (1.0 + abs(a)):
                    return f"trajectory {tid}: theta rises"
            if math.dist(rows[-1][:2], P41_MINIMIZER) > 1e-2:
                return f"trajectory {tid} ends off the minimizer"
        return None


class Check:
    """``check`` on Rosen-Suzuki: identity suite at seeded feasible points."""

    name = "check-p42"
    problem = P42
    samples = 50
    trace_ops = 4
    digest_ops = 4

    def ops(self, seed):
        for i in itertools.count():
            yield ["check", "--problem", P42, "--samples", str(self.samples),
                   "--seed", str(seed * 100_000 + i)]

    def probe_ops(self, seed):
        return []

    def check(self, argv, rc, out):
        if rc != 0:
            return f"exit {rc}"
        last = out.splitlines()[-1] if out else ""
        want = f"checked {self.samples} feasible points: 0 violations,"
        if not last.startswith(want):
            return f"summary {last!r}"
        return None


WORKLOADS = {w.name: w for w in (
    # r35: (-0.9,-1,2) takes about 60% of (-1,-1,-2); one of three ops.
    Solve("solve-r35-p42", "r35", [(-0.9, -1.0, 2.0), (-1.0, -1.0, -2.0)],
          cycle=(0, 1, 1)),
    # t31: the (-1,-1,2) stall is the slow third, the other two sit in
    # separate fast clusters with the median in the upper one.
    Solve("solve-t31-p42", "t31",
          [(-1.0, -1.0, 2.0), (-0.9, -1.0, 2.0), (-1.0, -1.0, -2.0)],
          cycle=(0, 1, 2), extra=("--r", "0.5")),
    Phase(),
    Check(),
)}
