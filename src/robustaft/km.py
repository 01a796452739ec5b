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

import math

import numpy as np

from .data import SortedSample, _per_sample
from .wls import WeightedDesign


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
    xw = base.x * sqrt_w[..., None]
    yw = base.y * sqrt_w
    for a in (w, sqrt_w, xw, yw):
        a.flags.writeable = False
    return WeightedDesign(
        w=w, sqrt_w=sqrt_w, pi_uc_hat=_per_sample(delta.mean(axis=-1)), xw=xw, yw=yw
    )


def _product_limit(event: np.ndarray) -> np.ndarray:
    """Kaplan-Meier survival just after each sorted row, treating ``event`` as the event:
    prod_{j<=i} ((n - 1 - j) / (n - j)) ** event_(j) in 0-based order, along the last axis."""
    n = event.shape[-1]
    idx = np.arange(n, dtype=float)
    return np.cumprod(np.where(event, (n - 1 - idx) / (n - idx), 1.0), axis=-1)


def lambda_rule(n: int, pi_uc_hat: float, lambda0: float) -> float:
    """Penalty level n ** (lambda0 - pi_uc_hat / 2).

    Heavier censoring (smaller ``pi_uc_hat``) yields a larger penalty.
    ``lambda0`` is a small positive constant; 1e-4 is the standard choice.
    Raises ValueError when the level overflows a double.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0.0 <= pi_uc_hat <= 1.0:
        raise ValueError("pi_uc_hat must lie in [0, 1]")
    if not 0 < lambda0 < math.inf:
        raise ValueError("lambda0 must be positive and finite")
    try:
        return float(n) ** (lambda0 - pi_uc_hat / 2.0)
    except OverflowError:
        raise ValueError(
            f"penalty level n ** (lambda0 - pi_uc_hat / 2) overflows for n={n}, lambda0={lambda0!r}"
        ) from None
