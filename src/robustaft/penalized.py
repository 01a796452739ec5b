"""Outlier-robust weighted least squares via an l1 penalty on per-observation shifts.

The estimator solves

    min_{b, a}  ||yw - xw @ b - aw||_2^2 + lambda * ||aw||_1

where aw_(i) = sqrt(w_(i)) a_(i) is a mean-shift parameter for observation i;
a nonzero entry flags that observation as an outlier.  The problem is convex
and is computed by a fixed number of alternating cycles (10 by default): a
weighted least-squares step in b, then a closed-form soft-threshold step in aw.
This stops short of the optimum (median relative KKT violation 0.4% at
n = 1000, mu = 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import SortedSample, _per_sample
from .km import lambda_rule
from .wls import Fit, WeightedDesign, _matvec, build_weighted_design, wls_solve


@dataclass(frozen=True)
class PenalizedConfig:
    """Solver settings.

    The solver runs exactly ``max_iter`` cycles (10 by default); 10 leave a
    median relative KKT violation of 0.4% (n = 1000, mu = 5).  The command
    line and the study always run 10; more cycles approach the optimum.
    ``lambda_override`` bypasses the rule n ** (1e-4 - pi_uc_hat / 2) of
    ``km.lambda_rule``.
    """

    max_iter: int = 10
    lambda_override: float | None = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")
        if self.lambda_override is not None and not 0 < self.lambda_override < math.inf:
            raise ValueError("lambda_override must be positive and finite")


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
    return r - np.minimum(np.maximum(r, -half), half)


def _objective(design_resid: np.ndarray, aw: np.ndarray, lam) -> float:
    """The objective, summed over a block's replications (independent problems)."""
    squares = (design_resid[..., None, :] @ design_resid[..., None])[..., 0, 0]
    return (squares + lam * np.abs(aw).sum(axis=-1)).sum()


def fit_penalized(
    sorted_sample: SortedSample,
    kw: WeightedDesign,
    cfg: PenalizedConfig = PenalizedConfig(),
) -> Fit:
    """Alternating minimization for the l1-penalized weighted regression.

    Starts from a = 0 and alternates (1) weighted least squares for b given
    aw, (2) soft thresholding of the residual for aw given b.  After the last
    cycle the coefficient vector is refreshed once against the final aw, so
    the reported pair satisfies the weighted normal equations exactly.  It
    takes a block too, with one lambda per replication.
    """
    design = build_weighted_design(sorted_sample, kw)
    n = design.yw.shape[-1]
    if cfg.lambda_override is not None:
        lam = cfg.lambda_override
    else:
        levels = [lambda_rule(n, float(pi)) for pi in np.ravel(design.pi_uc_hat)]
        lam = _per_sample(np.reshape(levels, np.shape(design.pi_uc_hat)))

    aw = np.zeros(design.yw.shape)
    trace = []
    for _ in range(cfg.max_iter):
        beta = wls_solve(design, design.yw - aw)
        resid = design.yw - _matvec(design.xw, beta)
        aw = soft_threshold_step(resid, lam)
        trace.append(_objective(resid - aw, aw, lam))

    beta = wls_solve(design, design.yw - aw)
    trace.append(_objective(design.yw - _matvec(design.xw, beta) - aw, aw, lam))

    return Fit(
        beta=beta,
        alpha_w=aw,
        lam=lam,
        iterations=cfg.max_iter,
        objective_trace=np.array(trace),
    )
