"""Exact fractional Brownian motion / fractional Gaussian noise quantities.

Covariance of fBm, autocovariance of its unit-lag increments (fGn), the
one-step increment correlation, the normalisation constant for the walk
aggregate, and the closed-form mixture correlation of the persistence law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .special import float_or_array

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


@float_or_array
def fgn_autocovariance(m, h: float):
    """Autocovariance of unit-variance fGn at integer lag(s) m >= 0.

    ``m^2H (expm1(2H log1p(1/m)) + expm1(2H log1p(-1/m))) / 2``, free of the
    cancellation in the difference of three powers (off by ~1e-4 near m = 1e6,
    H = 0.989); 1 at lag 0.
    """
    if np.any(m < 0):
        raise ValueError("lag must be nonnegative")
    if not 0.0 < h <= 1.0:
        raise ValueError(f"Hurst exponent must be in (0, 1], got {h}")
    e = 2.0 * h
    # lag 0 divides by zero and lag 1 takes log1p(-1) = -inf, whose expm1 is -1
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.5 * m**e * (np.expm1(e * np.log1p(1.0 / m)) + np.expm1(e * np.log1p(-1.0 / m)))
    return np.where(m == 0, 1.0, out)


def one_step_fgn_correlation(h: float) -> float:
    """Correlation of consecutive fGn increments, (2^2H - 2) / 2.

    Kept in closed form: the walk's tetrachoric ``delta1`` is this value, and
    the general lag formula differs from it by an ulp at many H.
    """
    if not 0.0 < h <= 1.0:
        raise ValueError(f"Hurst exponent must be in (0, 1], got {h}")
    return 0.5 * (2.0 ** (2.0 * h) - 2.0)


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
    delta1: float = field(init=False)
    a_h: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.5 < self.h < 1.0:
            raise ValueError(f"HurstModel requires 1/2 < H < 1, got {self.h}")
        object.__setattr__(self, "delta1", one_step_fgn_correlation(self.h))
        object.__setattr__(self, "a_h", scaling_constant(self.h))
