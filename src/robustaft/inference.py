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
classical least-squares influence terms.  Every denominator that divides a
nonzero sum is at least 1/n, and 1 - H is +inf on a top tie group (no row above).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import SortedSample, _frozen, _memo
from .km import _product_limit
from .wls import Fit, WeightedDesign, _checked_inverse, _matvec, build_weighted_design


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


def censoring_km(sorted_sample: SortedSample) -> np.ndarray:
    """Kaplan-Meier fit of the censoring distribution on the observed sample.

    Returns the right-continuous G(t) at each tie group's outcome t, as a
    read-only array indexed like ``sorted_sample.first`` (for a block, every
    replication's groups in one sequence).  Ties follow the sorted sample's
    convention: failures precede censorings at equal times, so censoring
    events see the risk set already reduced by the failures at that time.
    """
    survival = _product_limit(sorted_sample.base.delta == 0).ravel()
    return _frozen(1.0 - survival[sorted_sample.stop - 1])


def _tail_terms(sorted_sample: SortedSample) -> tuple:
    """Sample-only part of psi: each group's offsets into the gamma2 prefix sums and
    into the suffix sums, both held n + 1 entries per replication; each row's 1 - G(Y-),
    +inf on censored rows so that dividing by it also multiplies by delta; each group's
    1 - H, +inf on a replication's top group; per row 1 - delta; and per replication the
    groups whose gamma2 terms the prefix sums add, in row order, padded with the top group."""
    delta, n = sorted_sample.base.delta, sorted_sample.base.n
    group, first, stop = sorted_sample.group, sorted_sample.first, sorted_sample.stop
    rep = first // n  # each group's replication
    # G(Y-) of a row is G at the tie group below its own, and 0 in its replication's lowest group
    below = np.concatenate(([0.0], censoring_km(sorted_sample)[:-1]))
    denom_g = np.where(delta == 0, np.inf, 1.0 - np.where(first == rep * n, 0.0, below)[group])
    surv_h = (n - (stop - rep * n)) / n  # 1 - H(Y) on each group
    # gamma2 sums the terms of the censored rows strictly below the evaluation point.
    # The prefix sums add those rows' terms and, for each replication's first
    # uncensored row, the top group's, which is +0.0: the same additions in the same
    # order as a sum over every row (+0.0 for each uncensored one), since only the
    # first +0.0 can change a bit, turning -0.0 into +0.0
    top = stop.shape[0] - 1
    row_adds = np.where(delta == 0, group, top).reshape(-1, n)
    picked = ((delta == 0) | (np.cumsum(delta, axis=-1) == 1)).reshape(-1, n)
    count = np.cumsum(picked, axis=-1)  # rows picked at or below each row
    adds = np.full((picked.shape[0], count[:, -1].max()), top)
    adds[np.arange(adds.shape[1]) < count[:, -1:]] = row_adds[picked]
    picked_below = np.take(count, first) - np.take(picked, first)
    # +inf on the top group, whose suffix sum is +0.0.  Made last: made before the
    # adds table, it raised fit-csv's peak RSS by 1.5 MB (glibc reuses freed blocks)
    denom_h = np.where(surv_h > 0.0, surv_h, np.inf)
    return picked_below + rep * (n + 1), stop + rep, denom_g, denom_h, 1.0 - delta, adds


def compute_psi(
    sorted_sample: SortedSample,
    beta: np.ndarray,
    alpha: np.ndarray | None = None,
) -> np.ndarray:
    """Influence vectors psi as an (n, p) matrix in sorted order; (R, n, p) for a block.

    ``alpha`` holds the per-observation shifts entering the residuals
    xi_(i) = Y_(i) - X_(i)' beta - alpha_(i); pass None for a fit without
    shift parameters.  A replication whose ``beta`` is not finite (a failed
    fit) gets NaN influence vectors.

    The result is a view of a contiguous (p, n) array, or (p, R, n) for a block.

    Per sample, computed by the first call and kept on the sorted sample: the
    censoring KM fit and G(Y_(i)-) and the 1 - G and 1 - H denominators
    (the tie groups come with the sorted sample).  Per fit, on every call: the
    summands c, two cumulative sums and the gathers from tie groups to rows.
    """
    base = sorted_sample.base
    y, x = base.y, base.x
    n, p = base.n, base.p
    group = sorted_sample.group
    tails = _memo(sorted_sample, ("psi",), lambda: _tail_terms(sorted_sample))
    at_first, at_stop, denom_g, denom_h, censored, adds = tails

    # everything below is (p, rows) or (p, groups), with a block's replication axis
    # after p, so each pass runs along the long axis
    # shared summand: delta_(i) X_(i)k xi_(i) / (1 - G(Y_(i)-)), built in place
    xi = _matvec(x, beta)
    np.subtract(y, xi, out=xi)
    if alpha is not None:
        xi -= np.asarray(alpha, dtype=float)
    xi /= denom_g
    c = np.moveaxis(x, -1, 0) * xi
    del xi

    # y is sorted, so strict comparisons reduce to tie-group slices
    csuf = np.empty(c.shape[:-1] + (n + 1,))
    csuf[..., n] = 0.0
    np.cumsum(c[..., ::-1], axis=-1, out=csuf[..., n - 1 :: -1])  # csuf[..., i] = sum of c[..., i:]
    s_strict = np.take(csuf.reshape(p, -1), at_stop, 1)  # per group: sum of c over {m : Y_(m) > Y}

    terms = np.take(s_strict / denom_h**2, adds, 1).reshape(csuf.shape[:-1] + adds.shape[-1:])
    # the suffix sums are spent: reuse their buffer for the prefix sums, whose entries
    # past a replication's own picked rows are never read
    dpre = csuf
    dpre[..., 0] = 0.0
    np.cumsum(terms, axis=-1, out=dpre[..., 1 : terms.shape[-1] + 1])
    del terms
    gamma2 = np.take(dpre.reshape(p, -1), at_first, 1)
    gamma2 /= n**2
    del csuf, dpre  # free them before the output's temporaries
    gamma1 = s_strict  # s_strict is spent too: divide it in place
    gamma1 /= n * denom_h

    # (1 - delta) gamma1 + c - gamma2, built in c's buffer
    psi = c
    gathered = np.take(gamma1, group, 1)
    gathered *= censored
    psi += gathered
    del gathered
    psi -= np.take(gamma2, group, 1)
    return np.moveaxis(psi, 0, -1)


def normal_quantile(level: float) -> float:
    """The z with P(|Z| <= z) = ``level``; rejects a level whose (1 + level) / 2 rounds to 1."""
    if not 0.0 < level or (1.0 + level) / 2.0 >= 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    return NormalDist().inv_cdf((1.0 + level) / 2.0)


def sandwich_ci(
    sorted_sample: SortedSample,
    kw: WeightedDesign,
    fit: Fit,
    level: float = 0.95,
) -> InferenceResult:
    """Sandwich covariance and normal CIs at confidence ``level`` for a weighted,
    penalized or screened fit.

    Sigma is the mean-centered empirical covariance of the influence vectors
    and SigmaX the Gram matrix of the weighted design over the rows whose
    shift is zero; the coefficient covariance is
    SigmaX^{-1} Sigma SigmaX^{-1} / n.  Restricting SigmaX to zero-shift rows
    gives each fit its own normal equations: all rows for the Stute fit, the
    unclamped rows for the penalized fit (the Huber bread of the l1
    mean-shift problem) and the unflagged rows for the two-step refit.

    Raises ValueError for a ``level`` outside (0, 1).  Raises
    SingularGramError when a sample's Gram matrix is singular, and ValueError
    when its covariance is not finite (the influence vectors overflow, as
    with outcomes near 1e200), rather than print NaN intervals.  A block
    raises neither: a replication that would has a NaN or infinite
    covariance, which ``_finite`` marks.
    """
    design = build_weighted_design(sorted_sample, kw)
    z = normal_quantile(level)
    # a zero-weight row's shift is zero, and a failed replication's stays NaN
    alpha = None
    if fit.alpha_w.any():
        alpha = fit.alpha_w / np.where(design.w > 0, design.sqrt_w, np.inf)
    # one contiguous (p, n) array per replication, so a replication's products
    # are the same whether or not it shares a block
    psi_t = np.ascontiguousarray(np.swapaxes(compute_psi(sorted_sample, fit.beta, alpha), -1, -2))
    n = psi_t.shape[-1]

    with np.errstate(over="ignore", invalid="ignore"):
        # the mean is a running sum, which adds in the same order as a column mean
        # over (n, p) rows; mean(axis=-1) sums pairwise and would move the last bits
        # of every interval
        centered = psi_t  # psi_t is this call's own array: center it in place
        centered -= np.cumsum(psi_t, axis=-1)[..., -1:] / n
        sigma_hat = centered @ np.swapaxes(centered, -1, -2) / n

        kept = fit.alpha_w == 0.0
        context = f"sandwich bread over the {np.count_nonzero(kept)} of {n} rows with zero shift"
        sigma_x, sigma_x_inv = _checked_inverse(design, kept, context)
        cov_beta = sigma_x_inv @ sigma_hat @ sigma_x_inv / n
        cov_beta = (cov_beta + np.swapaxes(cov_beta, -1, -2)) / 2.0
        std_errors = np.sqrt(np.clip(np.diagonal(cov_beta, axis1=-2, axis2=-1), 0.0, None))
    inf = InferenceResult(
        beta=np.array(fit.beta),
        sigma_x_hat=sigma_x,
        sigma_hat=sigma_hat,
        cov_beta=cov_beta,
        std_errors=std_errors,
        ci_lower=fit.beta - z * std_errors,
        ci_upper=fit.beta + z * std_errors,
    )
    if cov_beta.ndim == 2 and not _finite(inf):
        raise ValueError(
            "the sandwich covariance is not finite: the influence vectors overflow "
            "(rescale y and x)"
        )
    return inf


def _finite(inf: InferenceResult) -> np.ndarray:
    """Per replication: is the coefficient covariance finite?"""
    return np.isfinite(inf.cov_beta).all(axis=(-2, -1))
