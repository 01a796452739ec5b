"""Kaplan-Meier weights and the censoring-adaptive penalty level.

The weights turn a right-censored least-squares problem into a weighted one:
w_(i) is the jump of the Kaplan-Meier distribution estimator at the i-th
order statistic, so censored observations get weight zero and the remaining
mass is pushed to later uncensored observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SortedSample, _frozen


@dataclass(frozen=True)
class KMWeightSet:
    """Kaplan-Meier weights aligned to sorted order.

    Attributes
    ----------
    w : (n,) array
        Weights w_(i) in [0, 1]; zero exactly where delta_(i) = 0.
    sqrt_w : (n,) array
        Elementwise square roots of ``w``.
    pi_uc_hat : float
        Fraction of uncensored observations, mean(delta).
    """

    w: np.ndarray
    sqrt_w: np.ndarray
    pi_uc_hat: float

    def __post_init__(self):
        object.__setattr__(self, "w", _frozen(self.w))
        object.__setattr__(self, "sqrt_w", _frozen(self.sqrt_w))


def km_weights(sorted_sample: SortedSample) -> KMWeightSet:
    """Compute Kaplan-Meier weights for a sorted sample.

    In 1-based sorted order,

        w_(1) = delta_(1) / n,
        w_(i) = delta_(i) / (n - i + 1) * prod_{j<i} ((n - j) / (n - j + 1)) ** delta_(j).

    The running product is carried in ordinary double precision; every factor
    lies in (0, 1], so the only failure mode is harmless underflow to zero
    for astronomically large n.
    """
    delta = sorted_sample.base.delta
    n = delta.shape[0]
    idx = np.arange(n - 1, dtype=float)  # 0-based j = 1..n-1 in the formula
    factors = np.where(delta[:-1] == 1, (n - 1 - idx) / (n - idx), 1.0)
    running = np.concatenate(([1.0], np.cumprod(factors)))
    w = delta / (n - np.arange(n, dtype=float)) * running
    return KMWeightSet(
        w=w,
        sqrt_w=np.sqrt(w),
        pi_uc_hat=float(delta.mean()),
    )


def lambda_rule(n: int, pi_uc_hat: float, lambda0: float) -> float:
    """Penalty level n ** (lambda0 - pi_uc_hat / 2).

    Heavier censoring (smaller ``pi_uc_hat``) yields a larger penalty.
    ``lambda0`` is a small positive constant; 1e-4 is the standard choice.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not 0.0 <= pi_uc_hat <= 1.0:
        raise ValueError("pi_uc_hat must lie in [0, 1]")
    if not lambda0 > 0:
        raise ValueError("lambda0 must be positive")
    return float(n) ** (lambda0 - pi_uc_hat / 2.0)
