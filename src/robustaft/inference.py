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
scrutiny.  ``km.km_weights`` builds w_(i) = delta_(i) / (n (1 - G(Y_(i)-))) from
``censoring_km``, so the shared summand is n w_(i) X_(i)k xi_(i), read off the
weighted design.  With no censoring every correction vanishes and psi reduces to
the classical least-squares influence terms.  Every 1 - H that divides a nonzero
sum is at least 1/n, and 1 - H is +inf on a top tie group (no row above).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import SortedSample, _adopt, _freeze, _memo
from .wls import _NO_ROWS, Fit, WeightedDesign, _checked_inverse, build_weighted_design

# Runs of whole tie groups a tied sample's slot values are gathered to rows in, one at a time.
_GATHER_CHUNKS = 8
_NO_SHIFTS = (_NO_ROWS, _freeze(np.empty(0)))  # every row's shift zero


@dataclass(frozen=True, eq=False)
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
    read-only array with one entry per group of ``sorted_sample.bounds`` (for a
    block, every replication's groups in one sequence).  Ties follow the sorted sample's
    convention: failures precede censorings at equal times, so censoring
    events see the risk set already reduced by the failures at that time.
    """
    delta, n = sorted_sample.base.delta, sorted_sample.base.n
    idx = np.arange(n, dtype=float)
    # the product limit prod_{j<=i} ((n - 1 - j) / (n - j)) ** (1 - delta_(j)), 0-based
    survival = np.cumprod(np.where(delta == 0, (n - 1 - idx) / (n - idx), 1.0), axis=-1).ravel()
    if sorted_sample.bounds.size <= survival.size:  # ties: each group's last row
        survival = survival[sorted_sample.bounds[1:] - 1]
    return _freeze(np.subtract(1.0, survival, out=survival))


def _tail_terms(sorted_sample: SortedSample) -> tuple:
    """Sample-only part of psi, with one table slot per tie group in row order and
    ``width`` (the most groups of any replication) slots per replication: each group's
    slot (``...`` when each group is one row, so each slot is its row and no index is
    kept); per slot 1 - H and (1 - H)^2 over the censored count, +inf on a top group,
    past a replication's last group and (the second) on a group with no censored row;
    per row whether it is censored."""
    delta, n = sorted_sample.base.delta, sorted_sample.base.n
    bounds = sorted_sample.bounds
    first, stop = bounds[:-1], bounds[1:]
    rep = first // n  # each group's replication
    censored = delta == 0
    slot, width, count = ..., n, censored.ravel()  # count: censored rows per group
    if bounds.size <= delta.size:  # ties: one slot per group
        local = np.arange(first.size) - np.searchsorted(first, np.arange(0, delta.size, n))[rep]
        width = local.max() + 1
        slot = rep * width + local
        count = np.add.reduceat(count, first, dtype=float)
    surv_h = (n - (stop - rep * n)) / n  # 1 - H(Y) on each group
    surv_h[surv_h == 0.0] = np.inf  # the top group, whose suffix sum is +0.0
    tables = np.full((2, delta.size // n * width), np.inf)
    with np.errstate(divide="ignore"):  # +inf on a group with no censored row
        tables[0, slot], tables[1, slot] = surv_h, surv_h**2 / count
    denom_h, denom_h2 = tables.reshape((2,) + delta.shape[:-1] + (width,))
    return slot, denom_h, denom_h2, censored


def compute_psi(
    sorted_sample: SortedSample,
    kw: WeightedDesign,
    beta: np.ndarray,
    alpha_w: tuple[np.ndarray, np.ndarray] = _NO_SHIFTS,
) -> np.ndarray:
    """Influence vectors psi as an (n, p) matrix in sorted order; (R, n, p) for a block.

    The shared summand delta_(i) X_(i)k xi_(i) / (1 - G(Y_(i)-)) is n xw_(i)k r_(i), from
    the weighted design ``kw`` and the weighted residual r = yw - xw beta - alpha_w.
    ``alpha_w`` holds the fit's sqrt(w)-scaled shifts as a pair (rows, shifts): ascending
    flat row offsets (into a block's flattened (R * n) rows) and their shifts, every other
    row's shift zero (by default, every row's).  A replication whose ``beta`` is not
    finite (a failed fit) gets NaN influence vectors.

    The result is a view of a contiguous (p, n) array, or (p, R, n) for a block.

    Per sample, computed by the first call and kept on the sorted sample: the 1 - H
    denominators, (1 - H)^2 over each tie group's censored count and, if tied, each
    group's slot.  Per fit, on every call: the summands, gamma1's suffix and gamma2's
    prefix sums over the tie groups and, if tied, the summands' sum over each group of
    ``sorted_sample.bounds`` and the gathers of the slot values to rows by ``np.repeat``,
    ``_GATHER_CHUNKS`` runs of groups at a time.
    """
    base, bounds = sorted_sample.base, sorted_sample.bounds
    xw, yw = kw.xw, kw.yw
    n, p = base.n, base.p
    tied = bounds.size <= yw.size
    tails = _memo(sorted_sample, ("psi",), lambda: _tail_terms(sorted_sample))
    slot, denom_h, denom_h2, censored = tails

    # everything below is (p, rows) or (p, slots), with a block's replication axis
    # after p, so each pass runs along the long axis
    # shared summand: n xw_(i)k r_(i), built in place with n times the weighted
    # residual r in c's last row, which is multiplied by its column last
    c = np.empty((p,) + yw.shape)
    rw = c[-1]
    np.matmul(xw, beta[..., None], out=rw[..., None])
    np.subtract(yw, rw, out=rw)
    rows, shifts = alpha_w  # rw - 0.0 == rw, so only the shifted rows change
    rw.reshape(-1)[rows] -= shifts  # a float row raises here; ``.flat`` would read it as a row
    rw *= n
    for k in range(p - 1):
        np.multiply(xw[..., k], rw, out=c[k])
    rw *= xw[..., -1]

    # y is sorted, so strict comparisons reduce to tie groups: sum c over each group
    # into its slot, zero past a replication's last group.  Untied, the sums and the
    # gathers would give the same bits at 1.7x the cost, so c is its own group sum
    sums = c
    if tied:
        sums = np.zeros((p,) + denom_h.shape)
        sums.reshape(p, -1)[:, slot] = np.add.reduceat(c.reshape(p, -1), bounds[:-1], -1)
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

    # c + gamma1 on censored rows - gamma2, built in c's buffer
    if not tied:
        np.add(c, suf, out=c, where=censored)
        c -= pre
        return np.moveaxis(c, 0, -1)
    # tied: each group's slot value repeats over its rows, in _GATHER_CHUNKS runs of
    # whole groups of about equal rows, so a gather is a fraction of one n-row array
    cuts = np.searchsorted(bounds, np.arange(_GATHER_CHUNKS + 1) * bounds[-1] // _GATHER_CHUNKS)
    rows = c.reshape(p, -1)
    suf, pre, censored = suf.reshape(p, -1), pre.reshape(p, -1), censored.ravel()
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        r, at, each = slice(bounds[lo], bounds[hi]), slot[lo:hi], np.diff(bounds[lo : hi + 1])
        for k in range(p):
            out = rows[k, r]
            np.add(out, np.repeat(suf[k, at], each), out=out, where=censored[r])
            out -= np.repeat(pre[k, at], each)
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
    mean-shift problem) and the unflagged rows for the two-step refit.  Psi's
    shifts and the bread's dropped rows are one array of ascending flat row offsets.

    Raises ValueError for a ``level`` outside (0, 1).  Raises
    SingularGramError when a sample's Gram matrix is singular, and ValueError
    when its covariance is not finite (the influence vectors overflow, as
    with outcomes near 1e200), rather than print NaN intervals.  A block
    raises neither: a replication that would has a NaN or infinite
    covariance, which ``_finite`` marks.
    """
    design = build_weighted_design(sorted_sample, kw)
    z = normal_quantile(level)
    # psi's shifts (NaN for a failed fit) and the bread's dropped rows
    shifted = np.flatnonzero(fit.alpha_w != 0.0)  # on a bool mask: 10x faster than on alpha_w
    psi_t = compute_psi(sorted_sample, design, fit.beta, (shifted, fit.alpha_w.flat[shifted]))
    # one contiguous (p, n) array per replication, so a replication's products
    # are the same whether or not it shares a block
    psi_t = np.ascontiguousarray(np.swapaxes(psi_t, -1, -2))
    n = psi_t.shape[-1]

    with np.errstate(over="ignore", invalid="ignore"):
        # the mean sums each row pairwise, with no (p, n) temporary
        centered = psi_t  # psi_t is this call's own array: center it in place
        centered -= psi_t.sum(axis=-1, keepdims=True) / n
        sigma_hat = centered @ np.swapaxes(centered, -1, -2) / n
        del psi_t, centered  # before the kept-row bread copies xw

        context = f"sandwich bread over the {n - shifted.size} of {n} rows with zero shift"
        sigma_x, sigma_x_inv = _checked_inverse(design, shifted, context)
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
