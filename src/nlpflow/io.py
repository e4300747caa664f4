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

import functools

import numpy as np

from . import exprlang, model
from .model import Problem


class ProblemFormatError(ValueError):
    pass


class SamplingError(RuntimeError):
    """Rejection sampling ran out of tries before it held enough points."""


# ``sample_feasible`` draws from the box [-SAMPLE_BOX, SAMPLE_BOX]^n, in
# blocks of _SAMPLE_BLOCK draws, and keeps a draw whose max g_j <= SAMPLE_TOL.
SAMPLE_BOX = 3.0
SAMPLE_TOL = 1e-12
SAMPLE_MAX_TRIES = 2_000_000  # draws before sample_feasible gives up
_SAMPLE_BLOCK = 256


def _fmt(x):
    """17 significant digits: round-trips IEEE doubles exactly."""
    return format(float(x), ".17g")


def load_problem(path):
    """Parse a problem file; returns (Problem, ReducedProblem or None).

    The file is read at every call, and its text is parsed and reduced
    once per process: the result is cached by ``(path, text)`` for the
    last 8 texts.  A repeat load returns the same frozen objects, with
    each stack that an earlier caller ran already lowered and compiled,
    so it parses, reduces, lowers and compiles nothing.  An edited file
    is a new text and is parsed again.  A load that fails is not cached:
    each call raises an error of its own.  A load depends on load-time
    constants too (``model.REDUCE_*``, ``exprlang.COLUMNS_FROM``), so
    code that patches one sees its effect only on a text not loaded
    before.
    """
    with open(path) as fh:
        text = fh.read()
    return _parse_problem(path, text)


@functools.lru_cache(maxsize=8)
def _parse_problem(path, text):
    """``load_problem`` of the file at ``path`` that holds ``text``."""
    # Lines end at "\n" alone: ``splitlines`` would also end one at "\x0c",
    # "\x85" and others, and shift the line numbers in an error.
    names = None
    objective_text = None
    eq_texts, ineq_texts, elim_texts = [], [], []
    for lineno, raw in enumerate(text.split("\n"), start=1):
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


def sample_feasible(p, n_samples, seed):
    """Seeded rejection sampling of feasible points in the box
    [-SAMPLE_BOX, SAMPLE_BOX]^n.

    For equality-constrained problems pass the reduced problem: the
    box lives in the reduced coordinates.  The draws are taken in blocks
    of _SAMPLE_BLOCK, which gives the stream of one draw per try.  One
    column run of the constraint stack tests a block's draws at once, and
    the draws that pass are taken in order up to the one that completes
    the sample.  Where the column run gives up on the block (a narrow
    block, or an error at some draw), each draw is tested by one run of
    the stack, in order, up to the draw that completes the sample.  So the
    points are those of one draw and one test per try, and an error is
    raised only at a draw that the sample needs.  SAMPLE_MAX_TRIES, read
    at each call, counts draws; running out of them raises SamplingError.
    """
    if p.m != 0:
        raise ValueError("sampling needs an inequality-only (or reduced) problem")
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    rng = np.random.default_rng(seed)
    stack = p.constraint_stack  # with m = 0 its values are (g_1, ..., g_k)
    out = []
    for start in range(0, SAMPLE_MAX_TRIES, _SAMPLE_BLOCK):
        draws = rng.uniform(-SAMPLE_BOX, SAMPLE_BOX,
                            size=(min(_SAMPLE_BLOCK, SAMPLE_MAX_TRIES - start), p.n))
        g = exprlang.evaluate_columns(stack, draws)
        if g is not None:
            out += draws[(g <= SAMPLE_TOL).all(axis=1)].tolist()
        else:
            for x in draws.tolist():
                g = exprlang.evaluate_stack(stack, x)
                if not g or max(g) <= SAMPLE_TOL:
                    out.append(x)
                    if len(out) == n_samples:
                        break
        if len(out) >= n_samples:
            return np.array(out[:n_samples])
    raise SamplingError(f"could not draw {n_samples} feasible samples in {SAMPLE_MAX_TRIES} "
                        f"tries from the box [-{SAMPLE_BOX:g}, {SAMPLE_BOX:g}]^{p.n}")


def _row_format(count):
    """A %-format for ``count`` comma-separated cells of 17 significant
    digits: on Python floats, one application gives the bytes that
    ``_fmt`` gives cell by cell, at about half the cost."""
    return ",".join(["%.17g"] * count)


def trajectory_csv_rows(p, traj, traj_id=None):
    """Yield CSV lines for one trajectory (header excluded), each one
    format of the row's ``tolist()`` values."""
    prefix = "" if traj_id is None else f"{traj_id},"
    fmt = _row_format(p.n + 5)
    for t, x, theta, normF, max_g, max_abs_h in zip(
            traj.t.tolist(), traj.x.tolist(), traj.theta.tolist(),
            traj.normF.tolist(), traj.max_g.tolist(), traj.max_abs_h.tolist()):
        yield prefix + fmt % (t, *x, theta, normF, max_g, max_abs_h)


def trajectory_csv(p, trajectories, with_id):
    """CSV text of ``trajectories``: the header, then each trajectory's rows
    and, after one that stopped early, its ``# diagnostic:`` line.  With
    ``with_id`` each row starts with its trajectory's index, which the
    diagnostic names too."""
    lines = [",".join((["traj_id"] if with_id else []) + ["t", *p.names] +
                      ["theta", "normF", "max_g", "max_abs_h"])]
    for tid, traj in enumerate(trajectories):
        lines.extend(trajectory_csv_rows(p, traj, tid if with_id else None))
        if traj.diagnostic:
            who = f"trajectory {tid}: " if with_id else ""
            lines.append(f"# diagnostic: {who}{traj.diagnostic}")
    return "\n".join(lines) + "\n"


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
    fmt = f"%d,{_row_format(p.n + 3)},%d,%d"
    for i, rec in enumerate(report.records):
        lines.append(fmt % (i, *rec.x.tolist(), rec.theta, rec.normF, rec.step,
                            rec.backtracks, rec.proj_used))
    lines.append(f"# termination: {report.termination}")
    if report.diagnostic:
        lines.append(f"# diagnostic: {report.diagnostic}")
    if report.kkt is not None:
        lines.append(kkt_block(report.kkt, prefix="# "))
    return "\n".join(lines) + "\n"
