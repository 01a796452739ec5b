"""Weighted least squares on the square-root-weighted design.

The weighted design has rows sqrt(w_(i)) * X_(i); solving least squares on it
is the Kaplan-Meier-weighted regression (the Stute estimator when the target
is the weighted outcome itself).  ``km.km_weights`` builds one design per
sorted sample, and every fit and sandwich of that sample solves on it.  Every
p x p Gram matrix, of all rows or of a subset, is formed here and inverted
through its eigendecomposition, which also gives the singularity check, since
p is small and fixed while n dominates.  A design may hold a block of
replications (a leading axis on every array).  Every solve and sandwich bread
takes its inverse from ``_checked_inverse``: a singular Gram raises
SingularGramError for a sample, and in a block makes only that replication's
results NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import SortedSample, _adopt, _freeze, _frozen, _memo

# Relative eigenvalue cutoff below which the Gram matrix is treated as singular.
GRAM_RTOL = 1e-12
_NO_ROWS = _freeze(np.empty(0, dtype=np.int64))  # drop no row: the Gram of every row


class SingularGramError(Exception):
    """Gram matrix of the weighted design is numerically singular.

    Signals collinear covariates after weighting, kept rows (of the screened refit
    or a shifted fit's bread) that do not span the model, or no kept row with
    positive Kaplan-Meier weight.
    """


@dataclass(frozen=True, eq=False)
class WeightedDesign:
    """Kaplan-Meier weights of a sorted sample and its design scaled by their square roots.

    ``w`` holds the weights w_(i) in [0, 1], zero exactly where delta_(i) = 0, and
    ``pi_uc_hat`` the uncensored fraction mean(delta).  ``xw`` has rows
    sqrt(w_(i)) X_(i) and ``yw`` entries sqrt(w_(i)) Y_(i); rows with zero weight
    are exactly zero, and the square roots are not kept.  Every Gram matrix comes
    from ``inverse``.  Made by ``km.km_weights``, whose arrays ``data._adopt`` freezes
    in place.  A block's design has a leading replication axis on every array, and
    ``pi_uc_hat`` is then a read-only array with one fraction per replication.
    """

    w: np.ndarray
    pi_uc_hat: float | np.ndarray
    xw: np.ndarray
    yw: np.ndarray

    def inverse(self, drop: np.ndarray = _NO_ROWS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Gram matrix of every row but ``drop`` (ascending flat row offsets, into a
        block's flattened (R * n) rows; empty for all rows), its inverse and its
        eigenvalues, through one eigendecomposition per replication.

        Does not raise: a singular Gram (see ``_singular``) gets an all-NaN
        inverse, which ``_checked_inverse`` turns into an error for a sample.  Each
        result is kept on the design, keyed by ``drop.tobytes()`` (every empty ``drop``
        shares the all-rows entry), so the two-step refit's inverse is also its
        sandwich's bread.
        """
        return _memo(self, ("inverse", drop.tobytes()), lambda: _gram_inverse(self.xw, drop))


def _gram_inverse(xw: np.ndarray, drop: np.ndarray) -> tuple[np.ndarray, ...]:
    if drop.size:  # zero the dropped rows of a copy, indexed by row
        xw = xw.copy()
        xw.reshape(-1, xw.shape[-1])[drop] = 0.0
    gram = np.swapaxes(xw, -1, -2) @ xw
    eigs, vecs = np.linalg.eigh(gram)
    # dividing by NaN makes a singular Gram's inverse all NaN, without a warning
    scale = np.where(_singular(eigs)[..., None], np.nan, eigs)
    inv = (vecs / scale[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    # kept on the design, so shared by every caller
    return _freeze(gram), _freeze(inv), _freeze(eigs)


def _singular(eigs: np.ndarray) -> np.ndarray:
    """Per replication: is the smallest eigenvalue at most GRAM_RTOL times the largest?"""
    return eigs[..., 0] <= GRAM_RTOL * np.maximum(eigs[..., -1], 0.0)


def _checked_inverse(design: WeightedDesign, drop=_NO_ROWS, context: str = "") -> tuple:
    """``design.inverse(drop)``'s Gram and inverse, ``drop`` ascending flat row offsets,
    raising SingularGramError, naming ``context`` and blaming the kept rows if ``drop``
    is not empty, if one sample's Gram is singular.  A block never raises: a singular
    replication's results are NaN and the study drops it."""
    gram, inv, eigs = design.inverse(drop)
    if eigs.ndim == 1 and _singular(eigs):
        low, high = eigs[[0, -1]]
        detail = f" ({context})" if context else ""
        if high == 0.0:
            raise SingularGramError(
                f"weighted Gram matrix is zero{detail}: "
                "no kept row has positive Kaplan-Meier weight"
            )
        kept = "the kept rows' weighted covariates do not span the model"
        raise SingularGramError(
            f"weighted Gram matrix is singular{detail}: smallest eigenvalue "
            f"{low:.3e} <= {GRAM_RTOL:g} * largest {high:.3e}; "
            + (kept if drop.size else "covariates are collinear after weighting")
        )
    return gram, inv


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v per replication: (..., m, k) times (..., k) gives (..., m)."""
    return (a @ v[..., None])[..., 0]


@dataclass(frozen=True, eq=False)
class Fit:
    """Coefficients and per-row mean shifts of one estimator, in sorted order.

    ``alpha_w`` holds the sqrt(w)-scaled shifts: all zero for the Stute fit,
    soft-thresholded residuals for the penalized fit, and the refit residual
    on the ``outliers`` rows (zero elsewhere) for the two-step fit.  ``lam``,
    ``iterations`` and ``objective_trace`` describe the penalized solve; the
    trace records the objective after each full (b, a) cycle plus a final
    entry for the reported pair and is nonincreasing.  A block's fit has a
    leading replication axis on ``beta``, ``alpha_w`` and ``lam``, its trace
    sums the replications' objectives (NaN if any fit failed), and
    ``outliers`` holds offsets into the flattened (R * n) rows.  A Fit built by a
    caller holds read-only copies of its arrays; the package's own fits are adopted
    (``data._adopt`` freezes them in place), and the Stute fit's ``alpha_w`` is a zero view.
    """

    beta: np.ndarray
    alpha_w: np.ndarray
    lam: float | np.ndarray | None = None
    iterations: int = 0
    objective_trace: np.ndarray | None = field(default=None, repr=False)
    outliers: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        object.__setattr__(self, "beta", _frozen(self.beta))
        object.__setattr__(self, "alpha_w", _frozen(self.alpha_w))
        object.__setattr__(self, "outliers", _frozen(np.asarray(self.outliers, dtype=np.int64)))
        if self.objective_trace is not None:
            object.__setattr__(self, "objective_trace", _frozen(self.objective_trace))
        if isinstance(self.lam, np.ndarray):  # a block's levels; a sample's float stays a float
            object.__setattr__(self, "lam", _frozen(self.lam))

    @property
    def beta_tilde(self) -> np.ndarray:
        """Alias of ``beta``; the paper writes the screened refit as beta-tilde."""
        return self.beta


def build_weighted_design(sorted_sample: SortedSample, kw: WeightedDesign) -> WeightedDesign:
    """The weighted design of ``sorted_sample``, which ``km_weights`` built: ``kw``
    itself, after checking that it has one row per observation."""
    if kw.w.shape != sorted_sample.base.y.shape:
        raise ValueError("weight vector length does not match the sample")
    return kw


def wls_solve(design: WeightedDesign, target_w: np.ndarray) -> np.ndarray:
    """Coefficients b minimizing ||target_w - xw @ b||_2^2 (per replication of a block);
    a singular Gram raises SingularGramError, or gives a block's replication NaN."""
    _, inv = _checked_inverse(design)
    return _matvec(inv, _matvec(np.swapaxes(design.xw, -1, -2), target_w))


def stute_fit(sorted_sample: SortedSample, kw: WeightedDesign) -> Fit:
    """Kaplan-Meier-weighted least squares of Y on X (the non-robust baseline)."""
    design = build_weighted_design(sorted_sample, kw)
    beta = wls_solve(design, design.yw)
    return _adopt(Fit, beta=beta, alpha_w=np.broadcast_to(0.0, design.yw.shape))
