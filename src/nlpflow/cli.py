"""Command line front end.

Subcommands: ``solve``, ``flow``, ``phase``, ``kkt``, ``check``.  Exit
codes: 0 success, 1 numerical failure (with a diagnostic on stderr),
2 usage error.  ``NLPFLOW_LOG`` in {quiet, info, trace} controls
diagnostic verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import math
import os
import sys

import numpy as np

from . import checks, flow, io, kkt, solver
from .exprlang import ExprError
from .field import FieldError, FieldParams, field_block, field_eval, norms
from .io import ProblemFormatError, SamplingError, _fmt
from .model import FIELD_FEAS_TOL, ModelError
from .solver import SolveConfig, SolveError

log = logging.getLogger("nlpflow")

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "trace": logging.DEBUG}


def _configure_logging():
    level = _LOG_LEVELS.get(os.environ.get("NLPFLOW_LOG", "quiet"), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _parse_vector(text):
    """argparse type: a point, as comma-separated numbers."""
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _count(least):
    """argparse type: an integer of at least ``least``."""
    def count(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return count


def _step_size(text):
    """argparse type: a positive, finite Euler step."""
    try:
        step = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 < step < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return step


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


def _plane(text):
    """argparse type: two coordinates, by name or 1-based number."""
    tokens = tuple(v.strip() for v in text.split(","))
    if len(tokens) != 2 or not all(tokens):
        raise argparse.ArgumentTypeError(f"expected two coordinates like x1,x2, got {text!r}")
    return tokens


def _bounds(text):
    """argparse type: the four numbers lo1,hi1,lo2,hi2."""
    try:
        bounds = tuple(float(v) for v in text.split(","))
    except ValueError:
        bounds = ()
    if len(bounds) != 4:
        raise argparse.ArgumentTypeError(f"expected four numbers lo1,hi1,lo2,hi2, got {text!r}")
    return bounds


def _fixed_values(text):
    """argparse type: comma-separated name=value pairs."""
    try:
        pairs = [(name.strip(), float(value))
                 for name, value in (item.split("=") for item in text.split(","))]
    except ValueError:  # no "=", a second "=", or a value that is not a number
        pairs = None
    if not pairs or not all(name for name, _ in pairs):
        raise argparse.ArgumentTypeError(f"expected name=value pairs like x3=1, got {text!r}")
    return pairs


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
    """``x`` in target coordinates; a full ``x`` must lie on the elimination map."""
    if len(x) == target.n:
        return x
    if len(x) == problem.n and target is not problem:
        for name, have, want in zip(problem.names[target.n:], x[target.n:],
                                    target.lift(x[:target.n])[target.n:]):
            if not abs(have - want) <= FIELD_FEAS_TOL:
                raise SolveError(f"x0 is off the elimination map: {name} = {_fmt(have)}, "
                                 f"but the map gives {_fmt(want)}")
        return x[:target.n]
    raise SolveError(f"x0 must have {target.n} (reduced) or {problem.n} "
                     f"(full) coordinates, got {len(x)}")


def _point_text(x):
    """A point as ``--x`` and ``--x0`` take it: comma-joined, 17 digits."""
    return ",".join(_fmt(v) for v in x)


def _write(out, text):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def cmd_solve(args):
    problem, reduced = _load(args.problem)
    target = _solve_target(problem, reduced)
    x0 = _to_target_coords(target, problem, args.x0)
    params = FieldParams.default(target.n, target.k, sigma=args.sigma)
    cfg = SolveConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SolveConfig)})
    report = solver.solve(target, params, cfg, x0)
    text = io.solve_report_csv(target, report)
    if reduced is not None and report.records:
        full = reduced.lift(report.final_x)
        text += f"# x_full: {_point_text(full)}\n"
    _write(args.out, text)
    log.info("terminated: %s after %d iterations", report.termination,
             report.iterations)
    if report.termination in ("field_failure", "inner_cap", "stalled"):
        return 1
    return 0


def cmd_flow(args):
    problem, reduced = _load(args.problem)
    target = reduced if reduced is not None else problem
    x0 = _to_target_coords(target, problem, args.x0)
    params = FieldParams.default(target.n, target.k, sigma=args.sigma)
    traj = flow.euler_flow(target, params, x0, args.step, args.steps)
    _write(args.out, io.trajectory_csv(target, [traj], with_id=False))
    return 0 if traj.status == "completed" else 1


class UsageError(Exception):
    """A malformed argument that shows only once the problem is loaded."""


def _coordinate(target, token):
    """Index of a ``--plane`` coordinate, given by name or 1-based number."""
    if token in target.names:
        return target.names.index(token)
    try:
        idx = int(token)
    except ValueError:
        idx = 0
    if not 1 <= idx <= target.n:
        raise UsageError(f"argument --plane: unknown coordinate {token!r}; expected one of "
                         f"{', '.join(target.names)} or 1..{target.n}")
    return idx - 1


def cmd_phase(args):
    if args.per_trajectory and not args.out:
        raise UsageError("argument --per-trajectory: needs --out, the stem of the file names")
    problem, reduced = _load(args.problem)
    target = reduced if reduced is not None else problem
    plane = tuple(_coordinate(target, token) for token in args.plane)
    if plane[0] == plane[1]:
        raise UsageError(f"argument --plane: the two coordinates must differ, "
                         f"got {','.join(args.plane)}")
    base = np.zeros(target.n)
    for name, value in args.fix or ():
        if name not in target.names:
            raise UsageError(f"argument --fix: unknown variable {name!r}; expected one of "
                             f"{', '.join(target.names)}")
        base[target.names.index(name)] = value
    params = FieldParams.default(target.n, target.k, sigma=args.sigma)
    grid = flow.phase_grid(target, params, plane, args.range, args.grid,
                           base, args.step, args.steps)
    if not grid.starts:
        raise ValueError(f"no feasible grid point: {len(grid.skipped)} infeasible points skipped")
    if args.per_trajectory:
        stem, ext = os.path.splitext(args.out)
        for tid, traj in enumerate(grid.trajectories):
            _write(f"{stem}-{tid}{ext}", io.trajectory_csv(target, [traj], with_id=False))
    else:
        _write(args.out, io.trajectory_csv(target, grid.trajectories, with_id=True))
    log.info("phase grid: %d trajectories, %d infeasible points skipped",
             len(grid.trajectories), len(grid.skipped))
    return 0


def cmd_kkt(args):
    problem, _ = _load(args.problem)
    x = args.x
    params = FieldParams.default(problem.n, problem.k, sigma=args.sigma)
    fe = field_eval(problem, params, x)
    lam, mu = kkt.multipliers(problem, fe)
    report = kkt.kkt_residual(problem, x, lam, mu)
    sys.stdout.write(io.kkt_block(report) + "\n")
    sys.stdout.write(f"normF: {_fmt(norms(fe.F))}\n")
    return 0


def _spread(errors, results):
    """Per row: its error, or else the next of ``results``, which holds one
    result per row without an error."""
    results = iter(results)
    return [error if error is not None else next(results) for error in errors]


def _checked(item):
    """A result of ``_spread``; raises it if it is an error."""
    if isinstance(item, Exception):
        raise item
    return item


def cmd_check(args):
    problem, reduced = _load(args.problem)
    target = _solve_target(problem, reduced)
    params = FieldParams.default(target.n, target.k, sigma=args.sigma)
    points = io.sample_feasible(target, args.samples, args.seed)
    n, N = target.n, len(points)
    # The quadratic-form vectors, in the order of checking one point after
    # another: per point, the reduced space's, then the full space's.
    width = checks.FORM_DRAWS * (n + (problem.n if reduced is not None else 0))
    draws = np.random.default_rng(args.seed + 1).standard_normal((N, width))
    split = checks.FORM_DRAWS * n

    # Everything is computed first, block by block; the loop below reports
    # it point by point, and raises a point's first error where checking
    # one point after another would have raised it.
    block, errors = field_block(target, params, points)
    ok = [error is None for error in errors]
    found = _spread(errors, zip(
        checks.identity_block(params, block, draws[ok, :split].reshape(-1, checks.FORM_DRAWS, n)),
        checks.criticality_block(target, block)))
    if reduced is not None:
        # Also exercise the full-space construction (projector included)
        # at the lifted points.
        full_params = FieldParams.default(problem.n, problem.k, sigma=args.sigma)
        lifted, lift_errors = reduced.lift_block(points)
        full, full_errors = field_block(problem, full_params, lifted)
        full_errors = _spread(lift_errors, full_errors)
        full_ok = [error is None for error in full_errors]
        full_draws = draws[full_ok, split:].reshape(-1, checks.FORM_DRAWS, problem.n)
        found_full = _spread(full_errors, zip(
            full.x, checks.identity_block(full_params, full, full_draws)))

    violations = 0
    gray = 0
    for i, x in enumerate(points):
        messages, verdict = _checked(found[i])
        for msg in messages:
            violations += 1
            print(f"violation at {_point_text(x)}: {msg}")
        if verdict == "disagree":
            violations += 1
            print(f"criticality disagreement at {_point_text(x)}")
        elif verdict == "gray":
            gray += 1
        if reduced is not None:
            lifted_x, messages = _checked(found_full[i])
            for msg in messages:
                violations += 1
                print(f"violation at lifted {_point_text(lifted_x)}: {msg}")
    print(f"checked {len(points)} feasible points: "
          f"{violations} violations, {gray} gray-band points")
    return 0 if violations == 0 else 1


@functools.cache
def build_parser():
    """The command line parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="nlpflow",
        description="Feasible-set descent-field NLP solver and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        # The subcommand's parser reports usage errors found after parsing.
        sp.set_defaults(subparser=sp)
        sp.add_argument("--problem", required=True, help="problem file path")
        sp.add_argument("--sigma", type=float, default=1.0,
                        help="scale of the identity gain matrix R1")

    sp = sub.add_parser("solve", help="run a discrete solve")
    add_common(sp)
    # Each solver option is stored, and defaults, as its SolveConfig field.
    sp.add_argument("--algo", dest="algorithm", choices=("t31", "r35"))
    sp.add_argument("--x0", type=_parse_vector, required=True,
                    help="comma-separated start point")
    sp.add_argument("--r", type=float, help="maximum step")
    sp.add_argument("--armijo", type=float)
    sp.add_argument("--eps", dest="epsilon", type=float,
                    help="t31 only: reach of the Euler-ray test for active facets")
    sp.add_argument("--max-iter", type=int)
    sp.add_argument("--tol", dest="stop_tol", type=float,
                    help="stop when |F| falls below this")
    sp.add_argument("--out", help="CSV output path (default stdout)")
    sp.set_defaults(func=cmd_solve, **dataclasses.asdict(SolveConfig()))

    sp = sub.add_parser("flow", help="explicit Euler trajectory")
    add_common(sp)
    sp.add_argument("--x0", type=_parse_vector, required=True)
    sp.add_argument("--step", type=_step_size, required=True)
    sp.add_argument("--steps", type=_count(0), required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_flow)

    sp = sub.add_parser("phase", help="grid of Euler trajectories")
    add_common(sp)
    sp.add_argument("--plane", type=_plane, required=True,
                    help="two coordinates, e.g. x1,x2")
    sp.add_argument("--range", type=_bounds, required=True, help="lo1,hi1,lo2,hi2")
    sp.add_argument("--grid", type=_grid_counts, required=True,
                    help="counts, e.g. 11x11")
    sp.add_argument("--fix", type=_fixed_values,
                    help="fixed values for other coordinates, name=v,...")
    sp.add_argument("--step", type=_step_size, required=True)
    sp.add_argument("--steps", type=_count(0), required=True)
    sp.add_argument("--per-trajectory", action="store_true",
                    help="one CSV file per trajectory instead of a traj_id column")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_phase)

    sp = sub.add_parser("kkt", help="multiplier recovery and KKT residuals")
    add_common(sp)
    sp.add_argument("--x", type=_parse_vector, required=True, help="comma-separated point")
    sp.set_defaults(func=cmd_kkt)

    sp = sub.add_parser("check", help="identity suite at random feasible points")
    add_common(sp)
    sp.add_argument("--samples", type=_count(1), default=100)
    sp.add_argument("--seed", type=_count(0), default=0)
    sp.set_defaults(func=cmd_check)

    return parser


def main(argv=None):
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        args.subparser.error(str(exc))
    except (FieldError, SolveError, ModelError, ProblemFormatError, ExprError,
            SamplingError, ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
