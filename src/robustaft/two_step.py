"""Outlier screening and refit: the recommended estimator for finite samples.

Observations whose penalized shift exceeds a threshold tau0 in absolute value
are declared outliers and dropped; the Kaplan-Meier-weighted regression is
then refit on the remaining rows.  The refit coefficients avoid the shrinkage
bias the l1 penalty imposes on the first-step shifts.
"""

from __future__ import annotations

import numpy as np

from .data import SortedSample
from .km import KMWeightSet
from .wls import Fit, _solve_gram, build_weighted_design

DEFAULT_TAU0 = 0.3


def detect_outliers(fit: Fit, tau0: float = DEFAULT_TAU0) -> np.ndarray:
    """Sorted indices i with |alpha_w_(i)| > tau0 (strict), ascending."""
    if not tau0 >= 0:
        raise ValueError("tau0 must be nonnegative")
    return np.flatnonzero(np.abs(fit.alpha_w) > tau0)


def fit_two_step(
    sorted_sample: SortedSample,
    kw: KMWeightSet,
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
    xw_kept = np.where(keep[:, None], design.xw, 0.0)
    yw_kept = np.where(keep, design.yw, 0.0)
    beta = _solve_gram(
        xw_kept.T @ xw_kept,
        xw_kept.T @ yw_kept,
        context=f"screened refit after removing {outliers.size} of {n} rows",
    )

    alpha_w = np.zeros(n)
    alpha_w[outliers] = (design.yw - design.xw @ beta)[outliers]
    return Fit(beta=beta, alpha_w=alpha_w, outliers=outliers)
