"""Weighted least squares on the square-root-weighted design.

The weighted design has rows sqrt(w_(i)) * X_(i); solving least squares on it
is the Kaplan-Meier-weighted regression (the Stute estimator when the target
is the weighted outcome itself).  The p x p Gram matrix is factorized directly
since p is small and fixed while n dominates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .data import SortedSample, _frozen
from .km import KMWeightSet

# Relative eigenvalue cutoff below which the Gram matrix is treated as singular.
GRAM_RTOL = 1e-12


class SingularGramError(Exception):
    """Gram matrix of the weighted design is numerically singular.

    Signals collinear covariates after weighting, or (for the screened refit)
    too many rows removed.
    """


@dataclass(frozen=True)
class WeightedDesign:
    """Design scaled by square-root Kaplan-Meier weights.

    ``xw`` has rows sqrt(w_(i)) X_(i), ``yw`` entries sqrt(w_(i)) Y_(i), and
    ``gram`` is xw.T @ xw.  Rows with zero weight are exactly zero.
    """

    xw: np.ndarray
    yw: np.ndarray
    gram: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xw", _frozen(self.xw))
        object.__setattr__(self, "yw", _frozen(self.yw))
        object.__setattr__(self, "gram", _frozen(self.gram))


@dataclass(frozen=True)
class Fit:
    """Coefficients and per-row mean shifts of one estimator, in sorted order.

    ``alpha_w`` holds the sqrt(w)-scaled shifts: all zero for the Stute fit,
    soft-thresholded residuals for the penalized fit, and the refit residual
    on the ``outliers`` rows (zero elsewhere) for the two-step fit.  ``lam``,
    ``iterations`` and ``objective_trace`` describe the penalized solve; the
    trace records the objective after each full (b, a) cycle plus a final
    entry for the reported pair and is nonincreasing.
    """

    beta: np.ndarray
    alpha_w: np.ndarray
    lam: float | None = None
    iterations: int = 0
    objective_trace: np.ndarray | None = field(default=None, repr=False)
    outliers: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        object.__setattr__(self, "beta", _frozen(self.beta))
        object.__setattr__(self, "alpha_w", _frozen(self.alpha_w))
        object.__setattr__(self, "outliers", _frozen(np.asarray(self.outliers, dtype=np.int64)))
        if self.objective_trace is not None:
            object.__setattr__(self, "objective_trace", _frozen(self.objective_trace))

    @property
    def beta_tilde(self) -> np.ndarray:
        """Alias of ``beta``; the paper writes the screened refit as beta-tilde."""
        return self.beta


def build_weighted_design(sorted_sample: SortedSample, kw: KMWeightSet) -> WeightedDesign:
    """Scale rows of the sorted design and outcome by sqrt(w) and accumulate the Gram matrix."""
    base = sorted_sample.base
    if kw.w.shape[0] != base.n:
        raise ValueError("weight vector length does not match the sample")
    xw = base.x * kw.sqrt_w[:, None]
    yw = base.y * kw.sqrt_w
    return WeightedDesign(xw=xw, yw=yw, gram=xw.T @ xw)


def _solve_gram(gram: np.ndarray, rhs: np.ndarray, context: str = "") -> np.ndarray:
    """Solve gram @ beta = rhs by Cholesky, guarding against singularity."""
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= GRAM_RTOL * max(eigs[-1], 0.0):
        detail = f" ({context})" if context else ""
        raise SingularGramError(
            f"weighted Gram matrix is singular{detail}: smallest eigenvalue "
            f"{eigs[0]:.3e} <= {GRAM_RTOL:g} * largest {eigs[-1]:.3e}; "
            "covariates are collinear after weighting"
        )
    c, low = scipy.linalg.cho_factor(gram)
    return scipy.linalg.cho_solve((c, low), rhs)


def wls_solve(design: WeightedDesign, target_w: np.ndarray) -> np.ndarray:
    """Coefficients b minimizing ||target_w - xw @ b||_2^2.

    Raises SingularGramError when the Gram matrix has a relative eigenvalue
    below GRAM_RTOL.
    """
    return _solve_gram(design.gram, design.xw.T @ target_w)


def stute_fit(sorted_sample: SortedSample, kw: KMWeightSet) -> Fit:
    """Kaplan-Meier-weighted least squares of Y on X (the non-robust baseline)."""
    design = build_weighted_design(sorted_sample, kw)
    return Fit(beta=wls_solve(design, design.yw), alpha_w=np.zeros(design.yw.shape[0]))
