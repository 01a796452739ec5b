"""Outlier-robust weighted least squares via an l1 penalty on per-observation shifts.

The estimator solves

    min_{b, a}  ||yw - xw @ b - aw||_2^2 + lambda * ||aw||_1

where aw_(i) = sqrt(w_(i)) a_(i) is a mean-shift parameter for observation i;
a nonzero entry flags that observation as an outlier.  The problem is convex
and is computed by a fixed number of alternating cycles, ``CYCLES``: a
weighted least-squares step in b, then a closed-form soft-threshold step in aw.
"""

from __future__ import annotations

import math

import numpy as np

from .data import SortedSample, _adopt, _per_sample
from .km import lambda_rule
from .wls import Fit, WeightedDesign, _matvec, build_weighted_design, wls_solve

# Cycles per fit.  10 stop short of the optimum, at a median relative KKT
# violation of 0.4% (n = 1000, mu = 5); more cycles approach it.
CYCLES = 10


def soft_threshold_step(residual_w: np.ndarray, lam: float | np.ndarray) -> np.ndarray:
    """Exact minimizer of ||r - v||_2^2 + lam * ||v||_1, coordinatewise.

    Entries with |r| <= lam / 2 map to 0 (boundary inclusive); the rest
    shrink toward zero by lam / 2.  For a block, ``lam`` may hold one level
    per replication (the leading axes of ``residual_w``).  Raises ValueError
    unless every level is positive and finite.
    """
    lam = np.asarray(lam, dtype=float)
    if not np.all((lam > 0) & (lam < math.inf)):
        raise ValueError("lam must be positive and finite")
    half = lam[..., None] / 2.0
    r = np.asarray(residual_w, dtype=float)
    clipped = np.maximum(r, -half)
    np.minimum(clipped, half, out=clipped)
    return np.subtract(r, clipped, out=clipped)


def _objective(design_resid: np.ndarray, aw: np.ndarray, lam) -> float:
    """The objective, summed over a block's replications (independent problems)."""
    # only the objective trace reads it, and past the float range it is +inf
    with np.errstate(over="ignore"):
        squares = (design_resid[..., None, :] @ design_resid[..., None])[..., 0, 0]
        return (squares + lam * np.abs(aw).sum(axis=-1)).sum()


def fit_penalized(
    sorted_sample: SortedSample,
    kw: WeightedDesign,
    lam: float | np.ndarray | None = None,
) -> Fit:
    """Alternating minimization for the l1-penalized weighted regression.

    Starts from a = 0 and runs ``CYCLES`` cycles of (1) weighted least
    squares for b given aw, (2) soft thresholding of the residual for aw
    given b.  After the last cycle the coefficient vector is refreshed once
    against the final aw, so the reported pair satisfies the weighted normal
    equations exactly.  It takes a block too, with one lambda per replication.

    ``lam`` is the penalty level, or a block's one per replication; None takes the
    rule n ** (1e-4 - pi_uc_hat / 2) of ``km.lambda_rule``.  A level that is not
    positive and finite, or levels of another shape, raise ValueError.
    """
    design = build_weighted_design(sorted_sample, kw)
    n = design.yw.shape[-1]
    if lam is None:
        levels = [lambda_rule(n, float(pi)) for pi in np.ravel(design.pi_uc_hat)]
        lam = np.reshape(levels, np.shape(design.pi_uc_hat))
    lam = _per_sample(np.array(lam, dtype=float))  # the Fit freezes a copy, not the caller's array
    if np.shape(lam) not in ((), design.yw.shape[:-1]):
        raise ValueError(f"lam has shape {np.shape(lam)}: give one level, or one per replication")

    aw = np.zeros(design.yw.shape)
    trace = []
    for cycle in range(CYCLES + 1):  # the last pass only refreshes b against the final aw
        beta = wls_solve(design, design.yw - aw)
        resid = design.yw - _matvec(design.xw, beta)
        if cycle < CYCLES:
            aw = soft_threshold_step(resid, lam)
        resid -= aw  # the objective's residual, in place
        trace.append(_objective(resid, aw, lam))

    trace = np.array(trace)
    return _adopt(Fit, beta=beta, alpha_w=aw, lam=lam, iterations=CYCLES, objective_trace=trace)
