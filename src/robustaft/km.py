"""Kaplan-Meier weights and the censoring-adaptive penalty level.

The weights turn a right-censored least-squares problem into a weighted one:
w_(i) is the jump of the Kaplan-Meier distribution estimator at the i-th
order statistic, so censored observations get weight zero and the remaining
mass is pushed to later uncensored observations.  ``km_weights`` returns the
weights together with the sample's square-root-weighted design, which every
estimator then shares; the design (``wls.WeightedDesign``) derives its Gram
matrices.
"""

from __future__ import annotations

import numpy as np

from .data import SortedSample, _per_sample
from .wls import WeightedDesign

# The penalty rule's constant: n ** LAMBDA0 <= 1.002 for n <= 1e8, so it is fixed.
LAMBDA0 = 1e-4


def km_weights(sorted_sample: SortedSample) -> WeightedDesign:
    """Kaplan-Meier weights of a sorted sample (or of each replication of a block)
    and its weighted design.

    In 1-based sorted order,

        w_(1) = delta_(1) / n,
        w_(i) = delta_(i) / (n - i + 1) * prod_{j<i} ((n - j) / (n - j + 1)) ** delta_(j).

    The running product is carried in ordinary double precision; every factor
    lies in (0, 1], so the only failure mode is harmless underflow to zero
    for astronomically large n.
    """
    base = sorted_sample.base
    delta = base.delta
    n = delta.shape[-1]
    running = np.ones(delta.shape)
    running[..., 1:] = _product_limit(delta == 1)[..., :-1]
    w = delta / (n - np.arange(n, dtype=float)) * running
    sqrt_w = np.sqrt(w)
    xw = np.empty(base.x.shape)
    for k in range(base.p):  # one column at a time: a broadcast over p = 2 is slow
        np.multiply(base.x[..., k], sqrt_w, out=xw[..., k])
    yw = base.y * sqrt_w
    for a in (w, xw, yw):
        a.flags.writeable = False
    return WeightedDesign(w=w, pi_uc_hat=_per_sample(delta.mean(axis=-1)), xw=xw, yw=yw)


def _product_limit(event: np.ndarray) -> np.ndarray:
    """Kaplan-Meier survival just after each sorted row, treating ``event`` as the event:
    prod_{j<=i} ((n - 1 - j) / (n - j)) ** event_(j) in 0-based order, along the last axis."""
    n = event.shape[-1]
    idx = np.arange(n, dtype=float)
    return np.cumprod(np.where(event, (n - 1 - idx) / (n - idx), 1.0), axis=-1)


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
