"""Command line front end.

Subcommands: ``solve``, ``flow``, ``phase``, ``kkt``, ``check``.  Exit
codes: 0 success, 1 numerical failure (with a diagnostic on stderr),
2 usage error.  ``NLPFLOW_LOG`` in {quiet, info, trace} controls
diagnostic verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import checks, flow, io, kkt, solver
from .exprlang import ExprError
from .field import FieldError, FieldParams, field_eval
from .io import ProblemFormatError, _fmt
from .model import ModelError
from .solver import SolveConfig, SolveError

log = logging.getLogger("nlpflow")

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "trace": logging.DEBUG}


def _configure_logging():
    level = _LOG_LEVELS.get(os.environ.get("NLPFLOW_LOG", "quiet"), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _parse_vector(text):
    return np.array([float(v) for v in text.split(",")], dtype=float)


def _step_count(text):
    """argparse type: a non-negative number of Euler steps."""
    try:
        steps = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if steps < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {steps}")
    return steps


def _grid_counts(text):
    """argparse type: grid point counts ``AxB``, each at least 1."""
    try:
        counts = tuple(int(v) for v in text.lower().split("x"))
    except ValueError:
        counts = ()
    if len(counts) != 2:
        raise argparse.ArgumentTypeError(f"expected counts like 11x11, got {text!r}")
    if min(counts) < 1:
        raise argparse.ArgumentTypeError(f"counts must be >= 1, got {text!r}")
    return counts


def _load(path):
    problem, reduced = io.load_problem(path)
    log.info("loaded %s: n=%d m=%d k=%d reduced=%s", path, problem.n,
             problem.m, problem.k, reduced is not None)
    return problem, reduced


def _solve_target(problem, reduced):
    """The problem the solvers run on: reduced when available, else m=0."""
    if reduced is not None:
        return reduced
    if problem.m != 0:
        raise SolveError("problem has equality constraints but no eliminate "
                         "lines; add an elimination map")
    return problem


def _to_target_coords(target, problem, x):
    if len(x) == target.n:
        return x
    if len(x) == problem.n and target is not problem:
        return x[:target.n]
    raise SolveError(f"x0 must have {target.n} (reduced) or {problem.n} "
                     f"(full) coordinates, got {len(x)}")


def _write(out, text):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_solve(args):
    problem, reduced = _load(args.problem)
    target = _solve_target(problem, reduced)
    x0 = _to_target_coords(target, problem, _parse_vector(args.x0))
    params = FieldParams.default(target.n, target.k, sigma=args.sigma)
    cfg = SolveConfig(algorithm=args.algo, r=args.r, epsilon=args.eps,
                      armijo=args.armijo, max_iter=args.max_iter,
                      stop_tol=args.tol, seed=args.seed)
    report = solver.solve(target, params, cfg, x0)
    text = io.solve_report_csv(target, report)
    if reduced is not None:
        full = reduced.lift(report.final_x)
        text += "# x_full: " + ",".join(_fmt(v) for v in full) + "\n"
    _write(args.out, text)
    log.info("terminated: %s after %d iterations", report.termination,
             report.iterations)
    if report.termination in ("field_failure", "inner_cap"):
        return 1
    return 0


def cmd_flow(args):
    problem, reduced = _load(args.problem)
    target = reduced if reduced is not None else problem
    x0 = _to_target_coords(target, problem, _parse_vector(args.x0))
    params = FieldParams.default(target.n, target.k, sigma=args.sigma)
    traj = flow.euler_flow(target, params, x0, args.step, args.steps)
    lines = [io.trajectory_header(target)]
    lines.extend(io.trajectory_csv_rows(target, traj))
    if traj.diagnostic:
        lines.append(f"# diagnostic: {traj.diagnostic}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0 if traj.status == "completed" else 1


def _plane_index(target, token):
    token = token.strip()
    if token in target.names:
        return target.names.index(token)
    idx = int(token)  # 1-based, matching x1..xn
    if not 1 <= idx <= target.n:
        raise SolveError(f"plane coordinate {token} out of range")
    return idx - 1


def cmd_phase(args):
    problem, reduced = _load(args.problem)
    target = reduced if reduced is not None else problem
    plane = tuple(_plane_index(target, tok) for tok in args.plane.split(","))
    a, b, c, d = (float(v) for v in args.range.split(","))
    base = np.zeros(target.n)
    if args.fix:
        for item in args.fix.split(","):
            name, value = (s.strip() for s in item.split("="))
            base[target.names.index(name)] = float(value)
    params = FieldParams.default(target.n, target.k, sigma=args.sigma)
    grid = flow.phase_grid(target, params, plane, (a, b, c, d), args.grid,
                           base, args.step, args.steps)
    if args.per_trajectory and args.out:
        stem, dot, ext = args.out.rpartition(".")
        for tid, traj in enumerate(grid.trajectories):
            path = f"{stem}-{tid}.{ext}" if dot else f"{args.out}-{tid}"
            lines = [io.trajectory_header(target)]
            lines.extend(io.trajectory_csv_rows(target, traj))
            _write(path, "\n".join(lines) + "\n")
    else:
        lines = [io.trajectory_header(target, with_id=True)]
        for tid, traj in enumerate(grid.trajectories):
            lines.extend(io.trajectory_csv_rows(target, traj, traj_id=tid))
        _write(args.out, "\n".join(lines) + "\n")
    log.info("phase grid: %d trajectories, %d infeasible points skipped",
             len(grid.trajectories), len(grid.skipped))
    return 0


def cmd_kkt(args):
    problem, _ = _load(args.problem)
    x = _parse_vector(args.x)
    params = FieldParams.default(problem.n, problem.k, sigma=args.sigma)
    fe = field_eval(problem, params, x)
    lam, mu = kkt.multipliers(problem, x, fe)
    report = kkt.kkt_residual(problem, x, lam, mu)
    sys.stdout.write(io.kkt_block(report) + "\n")
    sys.stdout.write(f"normF: {_fmt(np.linalg.norm(fe.F))}\n")
    return 0


def cmd_check(args):
    problem, reduced = _load(args.problem)
    target = _solve_target(problem, reduced)
    params = FieldParams.default(target.n, target.k, sigma=args.sigma)
    points = io.sample_feasible(target, args.samples, args.seed)
    rng = np.random.default_rng(args.seed + 1)

    violations = 0
    gray = 0
    full_params = (FieldParams.default(problem.n, problem.k, sigma=args.sigma)
                   if reduced is not None else None)
    for x in points:
        for msg in checks.identity_violations(target, params, x, rng):
            violations += 1
            print(f"violation at {x}: {msg}")
        verdict = checks.criticality_agreement(target, params, x)
        if verdict == "disagree":
            violations += 1
            print(f"criticality disagreement at {x}")
        elif verdict == "gray":
            gray += 1
        if reduced is not None:
            # Also exercise the full-space construction (projector included)
            # at the lifted point.
            for msg in checks.identity_violations(problem, full_params,
                                                  reduced.lift(x), rng):
                violations += 1
                print(f"violation at lifted {x}: {msg}")
    print(f"checked {len(points)} feasible points: "
          f"{violations} violations, {gray} gray-band points")
    return 0 if violations == 0 else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nlpflow",
        description="Feasible-set descent-field NLP solver and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--problem", required=True, help="problem file path")
        sp.add_argument("--sigma", type=float, default=1.0,
                        help="scale of the identity gain matrix R1")

    sp = sub.add_parser("solve", help="run a discrete solve")
    add_common(sp)
    sp.add_argument("--algo", choices=("t31", "r35"), default="r35")
    sp.add_argument("--x0", required=True, help="comma-separated start point")
    sp.add_argument("--r", type=float, default=1.0, help="maximum step")
    sp.add_argument("--armijo", type=float, default=0.1)
    sp.add_argument("--eps", type=float, default=1e-6)
    sp.add_argument("--max-iter", type=int, default=200)
    sp.add_argument("--tol", type=float, default=1e-9,
                    help="stop when |F| falls below this")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="CSV output path (default stdout)")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("flow", help="explicit Euler trajectory")
    add_common(sp)
    sp.add_argument("--x0", required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.add_argument("--steps", type=_step_count, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("phase", help="grid of Euler trajectories")
    add_common(sp)
    sp.add_argument("--plane", required=True, help="two coordinates, e.g. x1,x2")
    sp.add_argument("--range", required=True, help="lo1,hi1,lo2,hi2")
    sp.add_argument("--grid", type=_grid_counts, required=True,
                    help="counts, e.g. 11x11")
    sp.add_argument("--fix", help="fixed values for other coordinates, name=v,...")
    sp.add_argument("--step", type=float, required=True)
    sp.add_argument("--steps", type=_step_count, required=True)
    sp.add_argument("--per-trajectory", action="store_true",
                    help="one CSV file per trajectory instead of a traj_id column")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_phase)

    sp = sub.add_parser("kkt", help="multiplier recovery and KKT residuals")
    add_common(sp)
    sp.add_argument("--x", required=True, help="comma-separated point")
    sp.set_defaults(func=cmd_kkt)

    sp = sub.add_parser("check", help="identity suite at random feasible points")
    add_common(sp)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_check)

    return parser


def main(argv=None):
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FieldError, SolveError, ModelError, ProblemFormatError, ExprError,
            ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
