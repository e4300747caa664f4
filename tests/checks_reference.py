"""Reference identity suite and ``check`` command, one point at a time.

The oracle for ``checks.identity_block``, ``checks.criticality_block``
and ``cli.cmd_check``, which run the suite on stacked blocks of points.
This is the earlier per-point code, on the per-point field assembly of
``flow_reference``: each sampled point is checked in the reduced space,
then for criticality, then at its lifted point in the full space, before
the next point is drawn into the suite.  One thing differs from the
earlier code: the quadratic-form check takes all FORM_DRAWS vectors of a
point in one draw, where the earlier code stopped drawing at the first
failing vector.  Each point prints as ``--x`` takes it, comma-joined in 17
digits, and a lifted line prints the lifted point.  The stacked code must
print the same lines and raise the same error after them.

``sample_feasible`` is the oracle of ``io.sample_feasible``, which draws
its tries in blocks: one draw and one ``is_feasible`` test per try.
"""

import numpy as np

from flow_reference import field_eval
from nlpflow import io
from nlpflow.checks import FORM_DRAWS
from nlpflow.cli import _load, _solve_target
from nlpflow.field import FieldParams
from nlpflow.kkt import kkt_residual, multipliers
from nlpflow.model import is_feasible


def sample_feasible(p, n_samples, seed, box=3.0, max_tries=2_000_000):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(max_tries):
        x = rng.uniform(-box, box, size=p.n)
        if is_feasible(p, x, 1e-12):
            out.append(x)
            if len(out) == n_samples:
                return np.array(out)
    raise RuntimeError(f"could not draw {n_samples} feasible samples in {max_tries} "
                       f"tries from the box [-{box:g}, {box:g}]^{p.n}")


def dissipation(pr, fe):
    rate = -float(fe.xi @ (pr.R1 @ fe.xi))
    if fe.g.size:
        gv = fe.g * fe.v
        rate -= float(gv @ (pr.R2 @ gv))
        rate -= float(np.sum(pr.a * np.abs(fe.g) * fe.v ** 2))
        rate -= float(np.sum(pr.b * fe.vplus ** 2))
        rate -= float(np.sum(pr.c * fe.vplus ** (2 * pr.p + 2)))
    return rate


def identity_violations(p, params, x, rng):
    fe = field_eval(p, params, x)
    bad = []
    normF = float(np.linalg.norm(fe.F))

    if np.max(np.abs(fe.H @ fe.H - fe.H)) > 1e-10:
        bad.append("projector not idempotent")
    if fe.A.size and np.max(np.abs(fe.A @ fe.H)) > 1e-10:
        bad.append("A H != 0")
    if fe.A.size and np.max(np.abs(fe.H @ fe.A.T)) > 1e-10:
        bad.append("H A' != 0")

    for xi in rng.standard_normal((FORM_DRAWS, p.n)):
        lhs = float(xi @ fe.H @ xi)
        rhs = float(np.linalg.norm(fe.H @ xi) ** 2)
        if abs(lhs - rhs) > 1e-10 * (1.0 + abs(rhs)):
            bad.append("xi' H xi != |H xi|^2")
            break

    if fe.A.size and np.max(np.abs(fe.A @ fe.F)) > 1e-9 * (1.0 + normF):
        bad.append("A F != 0")

    rate = dissipation(params, fe)
    if normF > 1e-6 and not rate < 0:
        bad.append(f"dissipation {rate:.3e} not negative at |F|={normF:.3e}")

    scale = 1e-9 * (1.0 + np.linalg.norm(fe.grad_theta) * normF)
    if abs(float(fe.grad_theta @ fe.F) - rate) > scale:
        bad.append("grad(theta).F disagrees with the dissipation identity")

    if p.k:
        qinv_w = np.linalg.solve(fe.Q, fe.w)
        resid = fe.B @ fe.F - (fe.g * qinv_w - fe.r3 * fe.vplus)
        if np.max(np.abs(resid)) > 1e-9 * (1.0 + normF):
            bad.append("B F identity violated")

        rows = fe.B @ fe.F
        model_rows = fe.g * fe.omega - fe.r3 * fe.vplus
        denom = 1.0 + np.abs(model_rows)
        if np.max(np.abs(rows - model_rows) / denom) > 1e-9:
            bad.append("per-row grad(g_j).F identity violated")

    return bad


def criticality_agreement(p, params, x, field_tol=1e-6, kkt_tol=1e-4,
                          gray_low=1e-8, gray_high=1e-4):
    fe = field_eval(p, params, x)
    normF = float(np.linalg.norm(fe.F))
    by_field = normF <= field_tol
    lam, mu = multipliers(p, fe)
    rep = kkt_residual(p, x, lam, mu)
    worst = max(rep.stationarity_residual, rep.complementarity_residual,
                rep.mu_negativity)
    by_kkt = worst <= kkt_tol
    if by_field == by_kkt:
        return "agree"
    if gray_low < normF < gray_high:
        return "gray"
    return "disagree"


def _text(x):
    return ",".join(format(float(v), ".17g") for v in x)


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
        for msg in identity_violations(target, params, x, rng):
            violations += 1
            print(f"violation at {_text(x)}: {msg}")
        verdict = criticality_agreement(target, params, x)
        if verdict == "disagree":
            violations += 1
            print(f"criticality disagreement at {_text(x)}")
        elif verdict == "gray":
            gray += 1
        if reduced is not None:
            lifted = reduced.lift(x)
            for msg in identity_violations(problem, full_params, lifted, rng):
                violations += 1
                print(f"violation at lifted {_text(lifted)}: {msg}")
    print(f"checked {len(points)} feasible points: "
          f"{violations} violations, {gray} gray-band points")
    return 0 if violations == 0 else 1
