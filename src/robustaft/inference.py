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

from .data import SortedSample, _frozen, _memo
from .km import _product_limit
from .wls import Fit, WeightedDesign, build_weighted_design

# Tail denominators 1 - G(t-) and 1 - H(t) are floored here; sufficient
# follow-up keeps them away from zero asymptotically but finite samples may
# not cooperate.
DENOM_FLOOR = 1e-10


class DegenerateTailWarning(UserWarning):
    """Some censoring-tail denominators were floored; treat results with care."""


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


def censoring_km(sorted_sample: SortedSample) -> np.ndarray:
    """Kaplan-Meier fit of the censoring distribution on the observed sample.

    Returns the right-continuous G(t) at each tie group's outcome t, as a
    read-only array indexed like ``sorted_sample.first``.  Ties follow
    the sorted sample's convention: failures precede censorings at equal
    times, so censoring events see the risk set already reduced by the
    failures at that time.
    """
    return _frozen(1.0 - _product_limit(sorted_sample.base.delta == 0)[sorted_sample.stop - 1])


def _tail_terms(sorted_sample: SortedSample, floor: float) -> tuple:
    """Sample-only part of psi: each row's floored 1 - G(Y-), each group's floored
    1 - H and the floored count."""
    delta, n = sorted_sample.base.delta, sorted_sample.base.n
    group, stop = sorted_sample.group, sorted_sample.stop
    # G(Y-) of a row is G at the tie group below its own, and 0 in the lowest group
    denom_g = 1.0 - np.concatenate(([0.0], censoring_km(sorted_sample)))[group]
    surv_h = (n - stop) / n  # 1 - H(Y) on each group
    # gamma2 uses the censored rows below the top group
    floored_h = (delta == 0) & (stop[group] < n) & (surv_h[group] < floor)
    n_floored = int(((denom_g < floor) & (delta == 1)).sum() + floored_h.sum())
    return np.maximum(denom_g, floor), np.maximum(surv_h, floor), n_floored


def compute_psi(
    sorted_sample: SortedSample,
    beta: np.ndarray,
    alpha: np.ndarray | None = None,
) -> np.ndarray:
    """Influence vectors psi as an (n, p) matrix in sorted order.

    ``alpha`` holds the per-observation shifts entering the residuals
    xi_(i) = Y_(i) - X_(i)' beta - alpha_(i); pass None for a fit without
    shift parameters.  Emits DegenerateTailWarning when any used tail
    denominator falls below DENOM_FLOOR (it is floored, not propagated).

    The result is the transpose of a contiguous (p, n) array.

    Per sample, computed by the first call and kept on the sorted sample: the
    censoring KM fit and G(Y_(i)-), the floored 1 - G and 1 - H denominators
    and the floored count (the tie groups come with the sorted sample).  Per
    fit, on every call: the summands c, two cumulative sums and the gathers
    from tie groups to rows.
    """
    base = sorted_sample.base
    y, delta, x = base.y, base.delta, base.x
    n, p = base.n, base.p
    if alpha is None:
        alpha = np.zeros(n)
    xi = y - x @ beta - np.asarray(alpha, dtype=float)
    floor = DENOM_FLOOR  # part of the key, so a changed floor builds its own terms
    group, first, stop = sorted_sample.group, sorted_sample.first, sorted_sample.stop
    tails = _memo(sorted_sample, ("psi", floor), lambda: _tail_terms(sorted_sample, floor))
    denom_g, denom_h, n_floored = tails

    # everything below is (p, rows) or (p, groups), so each pass runs along the long axis
    # shared summand: delta_(i) X_(i)k xi_(i) / (1 - G(Y_(i)-))
    c = x.T * (delta * xi / denom_g)

    # y is sorted, so strict comparisons reduce to tie-group slices
    csuf = np.zeros((p, n + 1))
    np.cumsum(c[:, ::-1], axis=1, out=csuf[:, n - 1 :: -1])  # csuf[:, i] = sum of c[:, i:]
    s_strict = csuf[:, stop]  # per group: sum of c over {m : Y_(m) > Y}

    gamma1 = s_strict / (n * denom_h)
    # gamma2 sums censored rows strictly below the evaluation point: a censored row
    # adds its group's term, any other row the top group's, which is zero
    terms = np.take(s_strict / denom_h**2, np.where(delta == 0, group, len(stop) - 1), 1)
    dpre = csuf  # the suffix sums are spent: reuse their buffer for the prefix sums
    dpre[:, 0] = 0.0
    np.cumsum(terms, axis=1, out=dpre[:, 1:])
    gamma2 = dpre[:, first] / n**2
    del csuf, s_strict, terms, dpre  # free them before the output's temporaries

    if n_floored:
        warnings.warn(
            f"{n_floored} tail denominator(s) below {floor:g} floored; "
            "variance estimates near the censoring tail are unreliable",
            DegenerateTailWarning,
            stacklevel=2,
        )

    return (c + (1 - delta) * np.take(gamma1, group, 1) - np.take(gamma2, group, 1)).T


def sandwich_ci(
    sorted_sample: SortedSample,
    kw: WeightedDesign,
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
    psi_t = compute_psi(sorted_sample, fit.beta, alpha).T  # contiguous (p, n)
    n = psi_t.shape[1]

    # the mean is a running sum, which adds in the same order as a column mean
    # over (n, p) rows; mean(axis=1) sums pairwise and would move the last bits
    # of every interval
    centered = psi_t - np.cumsum(psi_t, axis=1)[:, -1:] / n
    sigma_hat = centered @ centered.T / n

    unshifted = fit.alpha_w == 0.0
    context = f"sandwich bread over the {int(unshifted.sum())} of {n} rows with zero shift"
    design = build_weighted_design(sorted_sample, kw)
    sigma_x, sigma_x_inv = design.solve(np.eye(psi_t.shape[0]), unshifted, context)
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
