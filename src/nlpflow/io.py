"""Problem file loading and CSV/report serialization.

Problem file format (line oriented, ``#`` starts a comment)::

    vars: x1 x2 x3
    objective: x1^2 + 2*x2^2 + x1*x2 - 6*x1 - 2*x2 - 12*x3
    eq: x1 + x2 + x3 - 2
    ineq: -x1
    eliminate: x3 = 2 - x1 - x2

Exactly one ``vars:`` and one ``objective:`` line; ``eliminate:`` lines,
if present, must name a suffix of the variable list in order.
"""

from __future__ import annotations

import numpy as np

from . import exprlang, model
from .model import Problem


class ProblemFormatError(ValueError):
    pass


# Draws per block of ``sample_feasible``.
_SAMPLE_BLOCK = 256


def _fmt(x):
    """17 significant digits: round-trips IEEE doubles exactly."""
    return format(float(x), ".17g")


def load_problem(path):
    """Parse a problem file; returns (Problem, ReducedProblem or None)."""
    with open(path) as fh:
        lines = fh.readlines()

    names = None
    objective_text = None
    eq_texts, ineq_texts, elim_texts = [], [], []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ProblemFormatError(f"{path}:{lineno}: expected 'key: value'")
        key, value = (part.strip() for part in line.split(":", 1))
        if key == "vars":
            if names is not None:
                raise ProblemFormatError(f"{path}:{lineno}: duplicate vars line")
            names = tuple(value.split())
            if not names:
                raise ProblemFormatError(f"{path}:{lineno}: empty vars line")
        elif key == "objective":
            if objective_text is not None:
                raise ProblemFormatError(f"{path}:{lineno}: duplicate objective line")
            objective_text = (value, lineno)
        elif key == "eq":
            eq_texts.append((value, lineno))
        elif key == "ineq":
            ineq_texts.append((value, lineno))
        elif key == "eliminate":
            if "=" not in value:
                raise ProblemFormatError(f"{path}:{lineno}: expected 'name = expression'")
            name, expr_text = (part.strip() for part in value.split("=", 1))
            elim_texts.append((name, expr_text, lineno))
        else:
            raise ProblemFormatError(f"{path}:{lineno}: unknown key {key!r}")

    if names is None:
        raise ProblemFormatError(f"{path}: missing vars line")
    if objective_text is None:
        raise ProblemFormatError(f"{path}: missing objective line")

    def parse_expr(text, lineno, varnames):
        try:
            return exprlang.parse(text, varnames)
        except exprlang.ExprError as exc:
            raise ProblemFormatError(f"{path}:{lineno}: {exc}") from exc

    problem = Problem(
        names=names,
        objective=parse_expr(*objective_text, names),
        equalities=tuple(parse_expr(t, ln, names) for t, ln in eq_texts),
        inequalities=tuple(parse_expr(t, ln, names) for t, ln in ineq_texts),
    )

    reduced = None
    if elim_texts:
        n1 = len(names) - len(elim_texts)
        kept = names[:n1]
        elimination = [(name, parse_expr(text, ln, kept))
                       for name, text, ln in elim_texts]
        reduced = model.reduce(problem, elimination)
    return problem, reduced


def sample_feasible(p, n_samples, seed, box=3.0, max_tries=2_000_000):
    """Seeded rejection sampling of feasible points in [-box, box]^n.

    For equality-constrained problems pass the reduced problem: the
    box lives in the reduced coordinates.  The draws are taken in blocks,
    which gives the points that one draw per try gives, in the same order;
    ``max_tries`` counts draws.
    """
    if p.m != 0:
        raise ValueError("sampling needs an inequality-only (or reduced) problem")
    rng = np.random.default_rng(seed)
    out = []
    for start in range(0, max_tries, _SAMPLE_BLOCK):
        for x in rng.uniform(-box, box, size=(min(_SAMPLE_BLOCK, max_tries - start), p.n)):
            if model.is_feasible(p, x, 1e-12):
                out.append(x)
                if len(out) == n_samples:
                    return np.array(out)
    raise RuntimeError(f"could not draw {n_samples} feasible samples in "
                       f"{max_tries} tries; expand the box")


def trajectory_csv_rows(p, traj, traj_id=None):
    """Yield CSV lines for one trajectory (header excluded)."""
    for i in range(len(traj)):
        cells = [] if traj_id is None else [str(traj_id)]
        cells.append(_fmt(traj.t[i]))
        cells.extend(_fmt(v) for v in traj.x[i])
        cells.extend([_fmt(traj.theta[i]), _fmt(traj.normF[i]),
                      _fmt(traj.max_g[i]), _fmt(traj.max_abs_h[i])])
        yield ",".join(cells)


def trajectory_header(p, with_id=False):
    cols = (["traj_id"] if with_id else []) + ["t"] + list(p.names) + \
        ["theta", "normF", "max_g", "max_abs_h"]
    return ",".join(cols)


def kkt_block(report, prefix=""):
    """Key:value text block for a KKT report."""
    lines = [
        f"{prefix}lambda: {' '.join(_fmt(v) for v in report.lam)}",
        f"{prefix}mu: {' '.join(_fmt(v) for v in report.mu)}",
        f"{prefix}stationarity_residual: {_fmt(report.stationarity_residual)}",
        f"{prefix}complementarity_residual: {_fmt(report.complementarity_residual)}",
        f"{prefix}mu_negativity: {_fmt(report.mu_negativity)}",
        f"{prefix}is_critical: {str(report.is_critical).lower()}",
    ]
    return "\n".join(lines)


def solve_report_csv(p, report):
    """CSV iterate history plus a '#'-prefixed trailing key:value block."""
    lines = [",".join(["iter"] + list(p.names) +
                      ["theta", "normF", "step", "backtracks", "proj_used"])]
    for i, rec in enumerate(report.records):
        cells = [str(i)]
        cells.extend(_fmt(v) for v in rec.x)
        cells.extend([_fmt(rec.theta), _fmt(rec.normF), _fmt(rec.step),
                      str(rec.backtracks), str(int(rec.proj_used))])
        lines.append(",".join(cells))
    lines.append(f"# termination: {report.termination}")
    if report.diagnostic:
        lines.append(f"# diagnostic: {report.diagnostic}")
    if report.kkt is not None:
        lines.append(kkt_block(report.kkt, prefix="# "))
    return "\n".join(lines) + "\n"
