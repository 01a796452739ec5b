"""Outlier screening and refit: the recommended estimator for finite samples.

Observations whose penalized shift exceeds a threshold tau0 in absolute value
are declared outliers and dropped; the Kaplan-Meier-weighted regression is
then refit on the remaining rows.  The refit coefficients avoid the shrinkage
bias the l1 penalty imposes on the first-step shifts.
"""

from __future__ import annotations

import numpy as np

from .data import SortedSample
from .wls import Fit, WeightedDesign, build_weighted_design

DEFAULT_TAU0 = 0.3


def detect_outliers(fit: Fit, tau0: float = DEFAULT_TAU0) -> np.ndarray:
    """Sorted indices i with |alpha_w_(i)| > tau0 (strict), ascending."""
    if not 0 <= tau0 < np.inf:
        raise ValueError("tau0 must be nonnegative and finite")
    return np.flatnonzero(np.abs(fit.alpha_w) > tau0)


def fit_two_step(
    sorted_sample: SortedSample,
    kw: WeightedDesign,
    fit: Fit,
    tau0: float = DEFAULT_TAU0,
) -> Fit:
    """Refit the weighted regression on the rows not flagged at level tau0.

    Equivalent to the joint least-squares problem where shifts are free on
    the flagged set: those rows' residuals are absorbed exactly, so they drop
    out of the coefficient normal equations.
    """
    outliers = detect_outliers(fit, tau0)
    design = build_weighted_design(sorted_sample, kw)
    n = design.yw.shape[0]

    keep = np.ones(n, dtype=bool)
    keep[outliers] = False
    context = f"screened refit after removing {outliers.size} of {n} rows"
    _, beta = design.solve(design.xw.T @ np.where(keep, design.yw, 0.0), keep, context)

    alpha_w = np.zeros(n)
    alpha_w[outliers] = (design.yw - design.xw @ beta)[outliers]
    return Fit(beta=beta, alpha_w=alpha_w, outliers=outliers)
