"""Outlier-robust weighted least squares via an l1 penalty on per-observation shifts.

The estimator solves

    min_{b, a}  ||yw - xw @ b - aw||_2^2 + lambda * ||aw||_1

where aw_(i) = sqrt(w_(i)) a_(i) is a mean-shift parameter for observation i;
a nonzero entry flags that observation as an outlier.  The problem is convex
and is computed by exact alternating minimization: a weighted least-squares
step in b, then a closed-form soft-threshold step in aw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SortedSample
from .km import KMWeightSet, lambda_rule
from .wls import Fit, build_weighted_design, wls_solve


@dataclass(frozen=True)
class PenalizedConfig:
    """Solver settings.

    The default is a fixed 10 cycles (``tol = 0``); results are insensitive
    to the count once it is large enough.  Set ``tol > 0`` to stop early when
    the objective decrease per cycle falls below it.  ``lambda_override``
    bypasses the n ** (lambda0 - pi_uc_hat / 2) rule.
    """

    lambda0: float = 1e-4
    max_iter: int = 10
    tol: float = 0.0
    lambda_override: float | None = None

    def __post_init__(self):
        if not self.lambda0 > 0:
            raise ValueError("lambda0 must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")
        if self.lambda_override is not None and not self.lambda_override > 0:
            raise ValueError("lambda_override must be positive")


def soft_threshold_step(residual_w: np.ndarray, lam: float) -> np.ndarray:
    """Exact minimizer of ||r - v||_2^2 + lam * ||v||_1, coordinatewise.

    Entries with |r| <= lam / 2 map to 0 (boundary inclusive); the rest
    shrink toward zero by lam / 2.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    half = lam / 2.0
    r = np.asarray(residual_w, dtype=float)
    return np.where(np.abs(r) <= half, 0.0, r - np.sign(r) * half)


def _objective(design_resid: np.ndarray, aw: np.ndarray, lam: float) -> float:
    return float(design_resid @ design_resid + lam * np.abs(aw).sum())


def fit_penalized(
    sorted_sample: SortedSample,
    kw: KMWeightSet,
    cfg: PenalizedConfig = PenalizedConfig(),
) -> Fit:
    """Alternating minimization for the l1-penalized weighted regression.

    Starts from a = 0 and alternates (1) weighted least squares for b given
    aw, (2) soft thresholding of the residual for aw given b.  After the last
    cycle the coefficient vector is refreshed once against the final aw, so
    the reported pair satisfies the weighted normal equations exactly.
    """
    design = build_weighted_design(sorted_sample, kw)
    n = design.yw.shape[0]
    lam = (
        cfg.lambda_override
        if cfg.lambda_override is not None
        else lambda_rule(n, kw.pi_uc_hat, cfg.lambda0)
    )

    aw = np.zeros(n)
    trace: list[float] = []
    iterations = 0
    for _ in range(cfg.max_iter):
        beta = wls_solve(design, design.yw - aw)
        resid = design.yw - design.xw @ beta
        aw = soft_threshold_step(resid, lam)
        trace.append(_objective(resid - aw, aw, lam))
        iterations += 1
        if cfg.tol > 0 and iterations >= 2 and trace[-2] - trace[-1] < cfg.tol:
            break

    beta = wls_solve(design, design.yw - aw)
    trace.append(_objective(design.yw - design.xw @ beta - aw, aw, lam))

    return Fit(
        beta=beta,
        alpha_w=aw,
        lam=float(lam),
        iterations=iterations,
        objective_trace=np.array(trace),
    )
