"""Outlier screening and refit: the recommended estimator for finite samples.

Observations whose scaled penalized shift exceeds the fixed threshold
``DEFAULT_TAU0`` = 0.3 in absolute value are declared outliers and dropped;
the Kaplan-Meier-weighted regression is then refit on the remaining rows.
The refit coefficients avoid the shrinkage bias the l1 penalty imposes on the
first-step shifts.
"""

from __future__ import annotations

import numpy as np

from .data import SortedSample, _adopt
from .wls import Fit, WeightedDesign, _checked_inverse, _matvec, build_weighted_design

DEFAULT_TAU0 = 0.3


def detect_outliers(fit: Fit) -> np.ndarray:
    """Sorted indices i with |alpha_w_(i)| > DEFAULT_TAU0 (strict), ascending;
    for a block's fit, offsets into the flattened (R * n) rows."""
    return np.flatnonzero(np.abs(fit.alpha_w) > DEFAULT_TAU0)


def fit_two_step(sorted_sample: SortedSample, kw: WeightedDesign, fit: Fit) -> Fit:
    """Refit the weighted regression on the rows that ``detect_outliers`` does not flag.

    Equivalent to the joint least-squares problem where shifts are free on
    the flagged set: those rows' residuals are absorbed exactly, so they drop
    out of the coefficient normal equations.  A singular Gram of the kept rows
    raises SingularGramError, or gives a block's replication NaN coefficients.
    """
    design = build_weighted_design(sorted_sample, kw)
    outliers = detect_outliers(fit)
    keep = np.ones(design.yw.shape, dtype=bool)
    keep.flat[outliers] = False
    context = f"screened refit after removing {outliers.size} of {keep.shape[-1]} rows"
    _, inv = _checked_inverse(design, keep, context)
    rhs = _matvec(np.swapaxes(design.xw, -1, -2), np.where(keep, design.yw, 0.0))
    beta = _matvec(inv, rhs)

    alpha_w = np.zeros(design.yw.shape)
    alpha_w.flat[outliers] = (design.yw - _matvec(design.xw, beta)).flat[outliers]
    return _adopt(Fit, beta=beta, alpha_w=alpha_w, outliers=outliers)
