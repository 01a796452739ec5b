"""Plug-in asymptotic variance and normal confidence intervals.

The weighted estimators are asymptotically normal with sandwich covariance
SigmaX^{-1} Sigma SigmaX^{-1}, where SigmaX is estimated by the weighted Gram
matrix and Sigma by the empirical covariance of per-observation influence
vectors.  The influence vector of observation i corrects the naive term
X_(i) xi_(i) for censoring through the Kaplan-Meier estimate of the censoring
distribution G and two compensation sums:

    psi_(i)k = X_(i)k xi_(i) delta_(i) / (1 - G(Y_(i)-))
               + gamma1_k(Y_(i)) (1 - delta_(i)) - gamma2_k(Y_(i)),

    gamma1_k(t) = 1 / (1 - H(t)) * (1/n) * sum_i 1{t < Y_(i)}
                  * delta_(i) X_(i)k xi_(i) / (1 - G(Y_(i)-)),

    gamma2_k(t) = (1/n^2) * sum_i sum_j 1{Y_(j) < t, Y_(j) < Y_(i)}
                  * (1 - delta_(j)) delta_(i) X_(i)k xi_(i)
                  / ((1 - H(Y_(j)))^2 (1 - G(Y_(i)-))),

with H the empirical distribution of Y and xi the residuals of the fit under
scrutiny.  With no censoring every correction vanishes and psi reduces to the
classical least-squares influence terms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .data import SortedSample, _frozen
from .km import KMWeightSet
from .wls import Fit, _solve_gram, build_weighted_design

# Tail denominators 1 - G(t-) and 1 - H(t) are floored here; sufficient
# follow-up keeps them away from zero asymptotically but finite samples may
# not cooperate.
DENOM_FLOOR = 1e-10


class DegenerateTailWarning(UserWarning):
    """Some censoring-tail denominators were floored; treat results with care."""


@dataclass(frozen=True)
class CensoringKM:
    """Kaplan-Meier estimator of the censoring distribution (delta = 0 is the event).

    ``times`` are the unique observed outcomes and ``cdf`` the
    right-continuous values G(times[k]).  Use :meth:`eval_left` for the left
    limit G(t-).
    """

    times: np.ndarray
    cdf: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", _frozen(self.times))
        object.__setattr__(self, "cdf", _frozen(self.cdf))

    def eval_left(self, t):
        """G(t-): the value just before t; 0 at or below the smallest observation."""
        idx = np.searchsorted(self.times, t, side="left")
        padded = np.concatenate(([0.0], self.cdf))
        return padded[idx]


@dataclass(frozen=True)
class InferenceResult:
    """Sandwich covariance and per-coefficient normal confidence intervals."""

    beta: np.ndarray
    sigma_x_hat: np.ndarray
    sigma_hat: np.ndarray
    cov_beta: np.ndarray
    std_errors: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    level: float


def censoring_km(sorted_sample: SortedSample) -> CensoringKM:
    """Kaplan-Meier fit of the censoring distribution on the observed sample.

    Ties follow the sorted sample's convention: failures precede censorings
    at equal times, so censoring events see the risk set already reduced by
    the failures at that time.
    """
    base = sorted_sample.base
    n = base.n
    idx = np.arange(n, dtype=float)
    # survival factor ((n-j)/(n-j+1)) ** (1 - delta_(j)) at sorted position j
    factors = np.where(base.delta == 0, (n - 1 - idx) / (n - idx), 1.0)
    surv = np.cumprod(factors)
    times = np.unique(base.y)
    last_in_group = np.searchsorted(base.y, times, side="right") - 1
    return CensoringKM(times=times, cdf=1.0 - surv[last_in_group])


def compute_psi(
    sorted_sample: SortedSample,
    kw: KMWeightSet,
    beta: np.ndarray,
    alpha: np.ndarray | None = None,
) -> np.ndarray:
    """Influence vectors psi as an (n, p) matrix in sorted order.

    ``alpha`` holds the per-observation shifts entering the residuals
    xi_(i) = Y_(i) - X_(i)' beta - alpha_(i); pass None for a fit without
    shift parameters.  Emits DegenerateTailWarning when any used tail
    denominator falls below DENOM_FLOOR (it is floored, not propagated).
    """
    base = sorted_sample.base
    y, delta, x = base.y, base.delta, base.x
    n, p = base.n, base.p
    if alpha is None:
        alpha = np.zeros(n)
    xi = y - x @ beta - np.asarray(alpha, dtype=float)

    g_left = censoring_km(sorted_sample).eval_left(y)
    denom_g = 1.0 - g_left
    floored_g = (denom_g < DENOM_FLOOR) & (delta == 1)
    denom_g = np.maximum(denom_g, DENOM_FLOOR)

    # shared summand: delta_(i) X_(i)k xi_(i) / (1 - G(Y_(i)-))
    c = x * (delta * xi / denom_g)[:, None]

    # tie-group boundaries; y is sorted so strict comparisons reduce to slices
    lo = np.searchsorted(y, y, side="left")
    hi = np.searchsorted(y, y, side="right")

    csuf = np.zeros((n + 1, p))
    csuf[:n] = np.cumsum(c[::-1], axis=0)[::-1]
    s_strict = csuf[hi]  # sum of c over {m : Y_(m) > Y_(i)}

    surv_h = (n - hi) / n  # 1 - H(Y_(i))
    denom_h = np.maximum(surv_h, DENOM_FLOOR)
    nonempty = hi < n

    gamma1 = np.zeros((n, p))
    gamma1[nonempty] = s_strict[nonempty] / (n * denom_h[nonempty][:, None])

    # gamma2 accumulates censored observations strictly below the evaluation
    # point; members of the top tie group never qualify
    used_j = (delta == 0) & nonempty
    floored_h = used_j & (surv_h < DENOM_FLOOR)
    d = np.zeros((n, p))
    d[used_j] = s_strict[used_j] / (denom_h[used_j][:, None] ** 2)
    dpre = np.zeros((n + 1, p))
    dpre[1:] = np.cumsum(d, axis=0)
    gamma2 = dpre[lo] / n**2

    n_floored = int(floored_g.sum() + floored_h.sum())
    if n_floored:
        warnings.warn(
            f"{n_floored} tail denominator(s) below {DENOM_FLOOR:g} floored; "
            "variance estimates near the censoring tail are unreliable",
            DegenerateTailWarning,
            stacklevel=2,
        )

    return c + (1 - delta)[:, None] * gamma1 - gamma2


def sandwich_ci(
    sorted_sample: SortedSample,
    kw: KMWeightSet,
    fit: Fit,
    level: float = 0.95,
) -> InferenceResult:
    """Sandwich covariance and normal CIs for a weighted, penalized or screened fit.

    Sigma is the mean-centered empirical covariance of the influence vectors
    and SigmaX the Gram matrix of the weighted design over the rows whose
    shift is zero; the coefficient covariance is
    SigmaX^{-1} Sigma SigmaX^{-1} / n.  Restricting SigmaX to zero-shift rows
    gives each fit its own normal equations: all rows for the Stute fit, the
    unclamped rows for the penalized fit (the Huber bread of the l1
    mean-shift problem) and the unflagged rows for the two-step refit.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    alpha = np.divide(fit.alpha_w, kw.sqrt_w, out=np.zeros(kw.w.shape[0]), where=kw.w > 0)
    psi = compute_psi(sorted_sample, kw, fit.beta, alpha)
    n = psi.shape[0]

    centered = psi - psi.mean(axis=0)
    sigma_hat = centered.T @ centered / n

    unshifted = fit.alpha_w == 0.0
    xw = np.where(unshifted[:, None], build_weighted_design(sorted_sample, kw).xw, 0.0)
    sigma_x = xw.T @ xw
    sigma_x_inv = _solve_gram(
        sigma_x,
        np.eye(sigma_x.shape[0]),
        context=f"sandwich bread over the {int(unshifted.sum())} of {n} rows with zero shift",
    )
    cov_beta = sigma_x_inv @ sigma_hat @ sigma_x_inv / n
    cov_beta = (cov_beta + cov_beta.T) / 2.0

    std_errors = np.sqrt(np.clip(np.diag(cov_beta), 0.0, None))
    z = ndtri((1.0 + level) / 2.0)
    return InferenceResult(
        beta=np.array(fit.beta),
        sigma_x_hat=sigma_x,
        sigma_hat=sigma_hat,
        cov_beta=cov_beta,
        std_errors=std_errors,
        ci_lower=fit.beta - z * std_errors,
        ci_upper=fit.beta + z * std_errors,
        level=float(level),
    )
