"""Kaplan-Meier weights and the censoring-adaptive penalty level.

The weights turn a right-censored least-squares problem into a weighted one:
w_(i) is the jump of the Kaplan-Meier distribution estimator at the i-th
order statistic, so censored observations get weight zero and the remaining
mass is pushed to later uncensored observations.  Those jumps are the
inverse-probability-of-censoring weights delta_(i) / (n (1 - G(Y_(i)-))), so
``km_weights`` reads them off ``inference.censoring_km``, the sample's one
censoring product limit, and returns them with the sample's
square-root-weighted design, which every estimator and sandwich then shares.
"""

from __future__ import annotations

import numpy as np

from . import inference
from .data import SortedSample, _adopt, _per_sample
from .wls import WeightedDesign

# The penalty rule's constant: n ** LAMBDA0 <= 1.002 for n <= 1e8, so it is fixed.
LAMBDA0 = 1e-4


def km_weights(sorted_sample: SortedSample) -> WeightedDesign:
    """Kaplan-Meier weights of a sorted sample (or of each replication of a block)
    and its weighted design (``wls.WeightedDesign``, which derives its Gram matrices).

    With G the censoring distribution's Kaplan-Meier fit, w_(i) = delta_(i) /
    (n (1 - G(Y_(i)-))), with G(Y_(i)-) G at the tie group below row i's, 0 in a
    replication's lowest group: failures precede censorings within a group, so this is
    the rowwise product limit delta_(i) / (n - i + 1) * prod_{j<i} ((n - j) / (n - j + 1))
    ** delta_(j) (1-based).  Every denominator is at least 1.
    """
    base, bounds = sorted_sample.base, sorted_sample.bounds
    delta, n = base.delta, base.n
    # n (1 - G(Y-)) per tie group; censoring_km is looked up on its module, so a traced one runs
    surv = np.concatenate(([0.0], inference.censoring_km(sorted_sample)[:-1]))
    surv[np.searchsorted(bounds, np.arange(0, delta.size, n))] = 0.0
    surv = n * (1.0 - surv)
    if bounds.size <= delta.size:  # ties: a group's value repeats over its rows
        surv = np.repeat(surv, np.diff(bounds))
    w = delta / surv.reshape(delta.shape)
    del surv
    sqrt_w = np.sqrt(w)
    xw = np.empty(base.x.shape)
    for k in range(base.p):  # one column at a time: a broadcast over p = 2 is slow
        np.multiply(base.x[..., k], sqrt_w, out=xw[..., k])
    yw = base.y * sqrt_w
    return _adopt(WeightedDesign, w=w, pi_uc_hat=_per_sample(delta.mean(axis=-1)), xw=xw, yw=yw)


def lambda_rule(n: int, pi_uc_hat: float) -> float:
    """Penalty level n ** (LAMBDA0 - pi_uc_hat / 2).

    Heavier censoring (smaller ``pi_uc_hat``) yields a larger penalty.  The
    level is at most n ** LAMBDA0, so it cannot overflow.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0.0 <= pi_uc_hat <= 1.0:
        raise ValueError("pi_uc_hat must lie in [0, 1]")
    return float(n) ** (LAMBDA0 - pi_uc_hat / 2.0)
