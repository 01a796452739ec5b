"""Weighted least squares on the square-root-weighted design.

The weighted design has rows sqrt(w_(i)) * X_(i); solving least squares on it
is the Kaplan-Meier-weighted regression (the Stute estimator when the target
is the weighted outcome itself).  ``km.km_weights`` builds one design per
sorted sample, and every fit and sandwich of that sample solves on it.  The
p x p Gram matrix is factorized directly since p is small and fixed while n
dominates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .data import SortedSample, _frozen, _memo

# Relative eigenvalue cutoff below which the Gram matrix is treated as singular.
GRAM_RTOL = 1e-12


class SingularGramError(Exception):
    """Gram matrix of the weighted design is numerically singular.

    Signals collinear covariates after weighting, or (for the screened refit)
    too many rows removed.
    """


@dataclass(frozen=True)
class WeightedDesign:
    """Kaplan-Meier weights of a sorted sample and its design scaled by their square roots.

    ``w`` holds the weights w_(i) in [0, 1], zero exactly where delta_(i) = 0;
    ``sqrt_w`` their square roots; ``pi_uc_hat`` the uncensored fraction
    mean(delta).  ``xw`` has rows sqrt(w_(i)) X_(i), ``yw`` entries
    sqrt(w_(i)) Y_(i), and ``gram`` is xw.T @ xw.  Rows with zero weight are
    exactly zero.  Made by ``km.km_weights``, which freezes the arrays in place.
    """

    w: np.ndarray
    sqrt_w: np.ndarray
    pi_uc_hat: float
    xw: np.ndarray
    yw: np.ndarray
    gram: np.ndarray

    def solve(
        self, rhs: np.ndarray, keep: np.ndarray | None = None, context: str = ""
    ) -> tuple[np.ndarray, np.ndarray]:
        """The Gram matrix of the rows where ``keep`` is true (all rows if None) and
        the solution of gram @ b = rhs by Cholesky.

        Raises SingularGramError, naming ``context``, when the Gram matrix has a
        relative eigenvalue below GRAM_RTOL.  The all-rows Gram is ``self.gram``
        and its factor is kept on the design, unless singular.
        """
        full = keep is None or keep.all()
        if full:
            gram = self.gram
        else:
            xw = np.where(keep[:, None], self.xw, 0.0)
            gram = xw.T @ xw

        def factor():
            eigs = np.linalg.eigvalsh(gram)
            if eigs[0] <= GRAM_RTOL * max(eigs[-1], 0.0):
                detail = f" ({context})" if context else ""
                raise SingularGramError(
                    f"weighted Gram matrix is singular{detail}: smallest eigenvalue "
                    f"{eigs[0]:.3e} <= {GRAM_RTOL:g} * largest {eigs[-1]:.3e}; "
                    "covariates are collinear after weighting"
                )
            return scipy.linalg.cho_factor(gram)

        cho = _memo(self, ("cholesky",), factor) if full else factor()
        return gram, scipy.linalg.cho_solve(cho, rhs)


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


def build_weighted_design(sorted_sample: SortedSample, kw: WeightedDesign) -> WeightedDesign:
    """The weighted design of ``sorted_sample``, which ``km_weights`` built: ``kw``
    itself, after checking that it has one row per observation."""
    if kw.w.shape[0] != sorted_sample.base.n:
        raise ValueError("weight vector length does not match the sample")
    return kw


def wls_solve(design: WeightedDesign, target_w: np.ndarray) -> np.ndarray:
    """Coefficients b minimizing ||target_w - xw @ b||_2^2.

    Raises SingularGramError when the Gram matrix has a relative eigenvalue
    below GRAM_RTOL.
    """
    return design.solve(design.xw.T @ target_w)[1]


def stute_fit(sorted_sample: SortedSample, kw: WeightedDesign) -> Fit:
    """Kaplan-Meier-weighted least squares of Y on X (the non-robust baseline)."""
    design = build_weighted_design(sorted_sample, kw)
    return Fit(beta=wls_solve(design, design.yw), alpha_w=np.zeros(design.yw.shape[0]))
