"""Exact fractional Brownian motion / fractional Gaussian noise quantities.

Covariance of fBm, autocovariance of its unit-lag increments (fGn), the
one-step increment correlation, the normalisation constant for the walk
aggregate, and the closed-form mixture correlation of the persistence law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "HurstModel",
    "fbm_covariance",
    "fgn_autocovariance",
    "one_step_fgn_correlation",
    "scaling_constant",
    "theoretical_mixture_correlation",
]


def fbm_covariance(s: float, t: float, h: float) -> float:
    """Cov(B(s), B(t)) = (t^2H + s^2H - |t-s|^2H) / 2 for fBm with exponent h."""
    if s < 0.0 or t < 0.0:
        raise ValueError("times must be nonnegative")
    if not 0.0 < h < 1.0:
        raise ValueError(f"Hurst exponent must be in (0, 1), got {h}")
    e = 2.0 * h
    return 0.5 * (t**e + s**e - abs(t - s) ** e)


def fgn_autocovariance(m: int, h: float) -> float:
    """Autocovariance of unit-variance fGn at integer lag m >= 0."""
    if m < 0:
        raise ValueError("lag must be nonnegative")
    if not 0.0 < h <= 1.0:
        raise ValueError(f"Hurst exponent must be in (0, 1], got {h}")
    e = 2.0 * h
    return 0.5 * ((m + 1) ** e + abs(m - 1) ** e - 2.0 * m**e)


def one_step_fgn_correlation(h: float) -> float:
    """Correlation of consecutive fGn increments, (2^2H - 2) / 2."""
    return fgn_autocovariance(1, h)


def scaling_constant(h: float) -> float:
    """Aggregate normalisation sqrt(H (2H - 1) / Gamma(3 - 2H)).

    Vanishes as h -> 1/2 (the independent-walk regime needs no rescaling
    beyond the CLT), hence the strict open-range requirement.
    """
    if not 0.5 < h < 1.0:
        raise ValueError(f"scaling constant defined for 1/2 < H < 1, got {h}")
    return math.sqrt(h * (2.0 * h - 1.0) / math.exp(math.lgamma(3.0 - 2.0 * h)))


def theoretical_mixture_correlation(n: int, h: float) -> float:
    """Lag-n correlation of the persistence-mixture increments, closed form.

    Equals ``(2-2H) * Gamma(n+1) * Gamma(2-2H) / Gamma(n+3-2H)``, evaluated in
    log space so large ``n`` cannot overflow.  Decays like
    ``Gamma(3-2H) * n^(2H-2)``.
    """
    if n < 1:
        raise ValueError("lag must be a positive integer")
    if not 0.5 < h < 1.0:
        raise ValueError(f"mixture correlation defined for 1/2 < H < 1, got {h}")
    e = 2.0 - 2.0 * h
    return e * math.exp(math.lgamma(n + 1.0) + math.lgamma(e) - math.lgamma(n + 1.0 + e))


@dataclass(frozen=True)
class HurstModel:
    """Target Hurst exponent with its derived walk constants.

    ``delta1`` is the lag-1 fGn correlation used as the tetrachoric
    correlation of the dichotomised pair; ``a_h`` is the aggregate scaling
    constant.  Only the long-range-dependent open interval (1/2, 1) is
    supported: both derived constants degenerate at the endpoints.
    """

    h: float
    delta1: float = 0.0
    a_h: float = 0.0

    def __post_init__(self) -> None:
        if not 0.5 < self.h < 1.0:
            raise ValueError(f"HurstModel requires 1/2 < H < 1, got {self.h}")
        object.__setattr__(self, "delta1", one_step_fgn_correlation(self.h))
        object.__setattr__(self, "a_h", scaling_constant(self.h))
