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

from .data import SortedSample, _adopt, _frozen, _memo
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
    """Sample-only part of psi, with one table slot per tie group in row order and
    ``width`` (the most groups of any replication) slots per replication: each group's
    slot and each slot's row count (``...`` and None when each group is one row, so each
    slot is its row and no index is kept); each row's 1 - G(Y-), +inf on censored rows
    so that dividing by it also multiplies by delta; per slot 1 - H and (1 - H)^2 over
    the censored count, +inf on a top group, past a replication's last group and (the
    second) on a group with no censored row; per row whether it is censored."""
    delta, n = sorted_sample.base.delta, sorted_sample.base.n
    first, stop = sorted_sample.first, sorted_sample.stop
    rep, size = first // n, stop - first  # each group's replication and row count
    censored = delta == 0
    # G(Y-) of a row is G at the tie group below its own, and 0 in its replication's lowest group
    below = np.concatenate(([0.0], censoring_km(sorted_sample)[:-1]))
    surv_g = 1.0 - np.where(first == rep * n, 0.0, below)
    slot, counts, width, count = ..., None, n, censored.ravel()  # count: censored rows per group
    if first.shape[0] < delta.size:  # ties: group-level values repeat over their rows
        local = np.arange(first.shape[0]) - np.searchsorted(first, np.arange(0, delta.size, n))[rep]
        width = local.max() + 1
        slot = rep * width + local
        counts = np.zeros(delta.size // n * width, dtype=size.dtype)
        counts[slot] = size
        surv_g, count = np.repeat(surv_g, size), np.add.reduceat(count, first, dtype=float)
    denom_g = np.where(censored, np.inf, surv_g.reshape(delta.shape))
    surv_h = (n - (stop - rep * n)) / n  # 1 - H(Y) on each group
    surv_h[surv_h == 0.0] = np.inf  # the top group, whose suffix sum is +0.0
    tables = np.full((2, delta.size // n * width), np.inf)
    with np.errstate(divide="ignore"):  # +inf on a group with no censored row
        tables[0, slot], tables[1, slot] = surv_h, surv_h**2 / count
    denom_h, denom_h2 = tables.reshape((2,) + delta.shape[:-1] + (width,))
    return slot, counts, denom_g, denom_h, denom_h2, censored


def compute_psi(
    sorted_sample: SortedSample,
    beta: np.ndarray,
    alpha: np.ndarray | None = None,
) -> np.ndarray:
    """Influence vectors psi as an (n, p) matrix in sorted order; (R, n, p) for a block.

    ``alpha`` holds the per-observation shifts entering the residuals
    xi_(i) = Y_(i) - X_(i)' beta - alpha_(i): an array broadcast to y's shape, or a
    pair (flat rows, shifts) with every other row's shift zero; pass None for a fit
    without shift parameters.  A replication whose ``beta`` is not finite (a failed
    fit) gets NaN influence vectors.

    The result is a view of a contiguous (p, n) array, or (p, R, n) for a block.

    Per sample, computed by the first call and kept on the sorted sample: the censoring
    KM fit, the 1 - G and 1 - H denominators, (1 - H)^2 over each tie group's censored
    count and, if tied, each group's slot and each slot's row count.  Per fit, on every
    call: the summands c, gamma1's suffix and gamma2's prefix sums over the tie groups
    and, if tied, c's sum over each group and its gathers to rows by ``np.repeat``.
    """
    base = sorted_sample.base
    y, x = base.y, base.x
    n, p = base.n, base.p
    tails = _memo(sorted_sample, ("psi",), lambda: _tail_terms(sorted_sample))
    slot, counts, denom_g, denom_h, denom_h2, censored = tails

    # everything below is (p, rows) or (p, slots), with a block's replication axis
    # after p, so each pass runs along the long axis
    # shared summand: delta_(i) X_(i)k xi_(i) / (1 - G(Y_(i)-)), built in place
    xi = _matvec(x, beta)
    np.subtract(y, xi, out=xi)
    if alpha is not None:  # x - 0.0 == x, so only the shifted rows change
        if not isinstance(alpha, tuple):
            dense = np.broadcast_to(np.asarray(alpha, dtype=float), xi.shape).ravel()
            alpha = np.flatnonzero(dense), dense[dense != 0.0]
        xi.flat[alpha[0]] -= alpha[1]
    xi /= denom_g
    c = np.multiply(np.moveaxis(x, -1, 0), xi, order="C")
    del xi

    # y is sorted, so strict comparisons reduce to tie groups: sum c over each group
    # into its slot, zero past a replication's last group.  Untied, the sums and the
    # gathers would give the same bits at 1.7x the cost, so c is its own group sum
    sums = c
    if counts is not None:
        sums = np.zeros((p,) + denom_h.shape)
        sums.reshape(p, -1)[:, slot] = np.add.reduceat(c.reshape(p, -1), sorted_sample.first, -1)
    # gamma1's suffix sums: suf[..., j] = sum of c over the groups above group j
    suf = np.empty((p,) + denom_h.shape)
    suf[..., -1] = 0.0
    np.cumsum(sums[..., :0:-1], axis=-1, out=suf[..., -2::-1])
    del sums
    # gamma2's prefix sums: pre[..., j] = sum over the groups below group j of suf
    # times the group's censored count over (1 - H)^2.  A group with no censored row
    # adds a zero, which leaves any sum but a zero one as it was: on an untied
    # sample, the censored rows' terms in row order
    pre = np.empty(suf.shape)
    pre[..., 0] = 0.0
    np.divide(suf[..., :-1], denom_h2[..., :-1], out=pre[..., 1:])
    np.cumsum(pre[..., 1:], axis=-1, out=pre[..., 1:])
    pre /= n**2  # gamma2 on each group
    suf /= n * denom_h  # gamma1 on each group

    # c + gamma1 on censored rows - gamma2, built in c's buffer; tied, each slot repeats
    # over its rows one coefficient (n rows) at a time, so no (p, n) gather is made
    def to_rows(table):
        return table if counts is None else np.repeat(table.ravel(), counts).reshape(censored.shape)

    for k in (...,) if counts is None else range(p):
        np.add(c[k], to_rows(suf[k]), out=c[k], where=censored)
        c[k] -= to_rows(pre[k])
    return np.moveaxis(c, 0, -1)


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
    # unscaled on the shifted rows only: a zero-weight row's shift is 0, a failed fit's NaN
    alpha = None
    if fit.alpha_w.any():
        rows = np.flatnonzero(fit.alpha_w)
        w = design.w.flat[rows]
        alpha = rows, fit.alpha_w.flat[rows] / np.where(w > 0, np.sqrt(w), np.inf)
    # one contiguous (p, n) array per replication, so a replication's products
    # are the same whether or not it shares a block
    psi_t = np.ascontiguousarray(np.swapaxes(compute_psi(sorted_sample, fit.beta, alpha), -1, -2))
    n = psi_t.shape[-1]

    with np.errstate(over="ignore", invalid="ignore"):
        # the mean sums each row pairwise, with no (p, n) temporary
        centered = psi_t  # psi_t is this call's own array: center it in place
        centered -= psi_t.sum(axis=-1, keepdims=True) / n
        sigma_hat = centered @ np.swapaxes(centered, -1, -2) / n
        del psi_t, centered  # before the kept-row bread copies xw

        kept = fit.alpha_w == 0.0
        context = f"sandwich bread over the {np.count_nonzero(kept)} of {n} rows with zero shift"
        sigma_x, sigma_x_inv = _checked_inverse(design, kept, context)
        cov_beta = sigma_x_inv @ sigma_hat @ sigma_x_inv / n
        cov_beta = (cov_beta + np.swapaxes(cov_beta, -1, -2)) / 2.0
        std_errors = np.sqrt(np.clip(np.diagonal(cov_beta, axis1=-2, axis2=-1), 0.0, None))
    inf = _adopt(
        InferenceResult,
        beta=fit.beta,
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
