"""Structural identity suite for the field construction.

Each check mirrors a guaranteed identity of the construction.  The suite
runs on a FieldBlock, the field assembled at a block of points, as
stacked NumPy operations over its rows: the ``check`` CLI command runs it
on all its sampled points at once.  The criticality check takes the KKT
residuals of every row from one ``kkt_residuals`` call.  Each row gets
the bits and the verdict that the same check gives at its point alone.
``identity_violations`` and ``criticality_agreement`` are the one-point
cases.
"""

from __future__ import annotations

import numpy as np

from .field import _mv, dissipation_rates, norms, point_block
from .kkt import equality_multipliers, kkt_residuals

# Random vectors per point for the projector's quadratic-form check.
FORM_DRAWS = 5


def _worst(a):
    """The largest |entry| of each slice of the stack ``a``."""
    return np.abs(a).max(axis=tuple(range(1, a.ndim)))


def identity_block(params, block, draws):
    """Run every identity check at each row of a FieldBlock.

    ``draws`` holds each row's quadratic-form vectors, shape
    (rows, FORM_DRAWS, n).  Returns, per row, a list of human-readable
    violation messages (empty = clean).
    """
    H, A, B, F, gtheta = block.H, block.A, block.B, block.F, block.grad_theta
    normF = norms(F)
    found = []  # (row flags, message) in the order the messages print

    # Projector is idempotent and annihilates the equality gradients.
    found.append((_worst(H @ H - H) > 1e-10, "projector not idempotent"))
    if A.shape[1]:
        found.append((_worst(A @ H) > 1e-10, "A H != 0"))
        found.append((_worst(H @ A.transpose(0, 2, 1)) > 1e-10, "H A' != 0"))

    # Quadratic form of the projector equals the squared projected norm.
    # xi @ H and H @ xi run as one gemv per vector, as for a lone vector;
    # the square is Python's, libm's pow, as for a lone NumPy float.
    lhs = np.vecdot((draws[:, :, None] @ H[:, None])[:, :, 0], draws)
    Hxi = _mv(H[:, None], draws)
    rhs = np.array([v ** 2 for v in norms(Hxi).ravel().tolist()]).reshape(lhs.shape)
    found.append(((np.abs(lhs - rhs) > 1e-10 * (1.0 + np.abs(rhs))).any(axis=1),
                  "xi' H xi != |H xi|^2"))

    # The field is tangent to the equality manifold.
    if A.shape[1]:
        found.append((_worst(_mv(A, F)) > 1e-9 * (1.0 + normF), "A F != 0"))

    # Strict descent away from critical points.
    rate = dissipation_rates(params, block.xi, block.g, block.v, block.vplus)
    found.append(((normF > 1e-6) & ~(rate < 0), None))

    # Direct dot product agrees with the assembled dissipation rate.
    scale = 1e-9 * (1.0 + norms(gtheta) * normF)
    found.append((np.abs(np.vecdot(gtheta, F) - rate) > scale,
                  "grad(theta).F disagrees with the dissipation identity"))

    if B.shape[1]:
        g, r3, vplus = block.g, block.r3, block.vplus
        BF = _mv(B, F)
        # Boundary-rate identity for B F, with a fresh solve for Q^{-1} w.
        qinv_w = np.linalg.solve(block.Q, block.w[..., None])[..., 0]
        resid = BF - (g * qinv_w - r3 * vplus)
        found.append((_worst(resid) > 1e-9 * (1.0 + normF), "B F identity violated"))

        # Per-row rate identity through omega.
        model_rows = g * block.omega - r3 * vplus
        denom = 1.0 + np.abs(model_rows)
        found.append(((np.abs(BF - model_rows) / denom).max(axis=1) > 1e-9,
                      "per-row grad(g_j).F identity violated"))

    out = [[] for _ in range(len(F))]
    for flags, msg in found:
        for j in np.flatnonzero(flags).tolist():
            out[j].append(msg or f"dissipation {rate[j]:.3e} not negative at |F|={normF[j]:.3e}")
    return out


def criticality_block(p, block, field_tol=1e-6, kkt_tol=1e-4, gray_low=1e-8,
                      gray_high=1e-4):
    """Compare |F|-based criticality with the KKT-residual notion at each
    row of a FieldBlock.

    The multipliers are those of ``multipliers``: mu = max(0, -v) for
    every row at once, and lam from one least-squares solve per row when
    there are equality constraints.  One ``kkt_residuals`` call takes the
    residuals at every row.

    Returns, per row, "agree", "gray" (|F| inside the declared ambiguity
    band, disagreement permitted) or "disagree".
    """
    mu = np.maximum(0.0, -block.v)
    lam = [equality_multipliers(p, block.grad_theta[j], block.A[j], block.B[j], mu[j])
           for j in range(len(mu))]
    residuals = kkt_residuals(p, block.x, np.reshape(lam, (len(mu), p.m)), mu)
    verdicts = []
    for normF, *rep in zip(norms(block.F).tolist(), *(r.tolist() for r in residuals)):
        if (normF <= field_tol) == (max(rep) <= kkt_tol):
            verdicts.append("agree")
        elif gray_low < normF < gray_high:
            verdicts.append("gray")
        else:
            verdicts.append("disagree")
    return verdicts


def identity_violations(p, params, x, rng):
    """Run every identity check at one feasible point, with FORM_DRAWS
    quadratic-form vectors from ``rng``.

    Returns a list of human-readable violation messages (empty = clean).
    """
    block = point_block(p, params, x)  # a point whose field fails takes no draws
    return identity_block(params, block, rng.standard_normal((1, FORM_DRAWS, p.n)))[0]


def criticality_agreement(p, params, x, **tolerances):
    """Compare |F|-based criticality with the KKT-residual notion at one
    point; ``criticality_block`` describes the verdicts and tolerances."""
    return criticality_block(p, point_block(p, params, x), **tolerances)[0]
