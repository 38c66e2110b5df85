"""Link between the latent Gaussian correlation and the binary-walk laws.

Thresholding a correlated standard-normal pair at the p-quantile produces a
correlated binary pair; this module maps the latent (tetrachoric) correlation
to the binary (phi) correlation, derives the walk persistence, the n-step
correlation of the binary increments and its maximum ``sigma_max``.  Every
law goes through one bivariate quantity, the diagonal excess
``Phi2(z(p), z(p), delta) - p^2``.
"""

from __future__ import annotations

import numpy as np

from .fgn import HurstModel
from .special import bvn_cdf_excess_diag, std_normal_quantile

__all__ = [
    "phi_from_tetrachoric",
    "persistence_from_p",
    "n_step_correlation",
    "sigma_max",
]


def _phi2_excess(p, delta: float, z=None):
    """Phi2(z(p), z(p), delta) - p^2, scalar or vectorised over p.

    Scalars run through the same vector code path so that batch and one-off
    evaluations agree bit for bit (the walk's sojourn laws are drawn at these
    values, where a one-ulp difference would change the draws).  ``z``, if
    given, is ``std_normal_quantile(p)`` already computed by the caller; the
    result is the same bits.  Raises ValueError unless -1 < delta < 1 and
    every p lies in (0, 1).
    """
    if not -1.0 < delta < 1.0:
        raise ValueError(f"tetrachoric correlation must satisfy |delta| < 1, got {delta}")
    scalar = np.ndim(p) == 0
    if z is None:
        z = std_normal_quantile(np.atleast_1d(p))
    out = bvn_cdf_excess_diag(np.atleast_1d(z), delta)
    return float(out[0]) if scalar else out


def phi_from_tetrachoric(p, delta: float, z=None):
    """Phi coefficient of the dichotomised pair with equal margins p.

    ``(Phi2(z(p), z(p), delta) - p^2) / (p (1 - p))``; zero at delta = 0,
    attenuated toward zero as p leaves 1/2.  Accepts scalar or array p, and
    optionally its quantile ``z`` (see ``_phi2_excess``).
    """
    excess = _phi2_excess(p, delta, z)
    p = np.asarray(p, dtype=np.float64) if np.ndim(p) else p
    return excess / (p * (1.0 - p))


def persistence_from_tetrachoric(p, delta: float):
    """Persistence 2*Phi2(z(p), z(p), delta) - 2p + 1 of the binary walk."""
    excess = _phi2_excess(p, delta)
    p = np.asarray(p, dtype=np.float64) if np.ndim(p) else p
    return 2.0 * excess + 2.0 * p * p - 2.0 * p + 1.0


def persistence_from_p(p, model: HurstModel):
    """Probability that the walk repeats its previous jump, rho(p) in (1/2, 1)."""
    return persistence_from_tetrachoric(p, model.delta1)


def n_step_correlation_from_delta(p, delta: float, n: int):
    """Correlation of binary +-1 increments n steps apart.

    ``((2 rho(p) - 1)^n - (2p - 1)^2) / (4 p (1 - p))`` with
    ``2 rho - 1 = 4 Phi2 - 4p + 1``; reduces to the phi coefficient at n = 1.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        # (lam - (2p-1)^2) telescopes to 4*excess exactly; evaluating it that
        # way avoids cancellation against (2p-1)^2 ~ 1 when p is tiny
        return phi_from_tetrachoric(p, delta)
    excess = _phi2_excess(p, delta)
    p = np.asarray(p, dtype=np.float64) if np.ndim(p) else p
    lam = 4.0 * excess + (2.0 * p - 1.0) ** 2
    return (lam**n - (2.0 * p - 1.0) ** 2) / (4.0 * p * (1.0 - p))


def n_step_correlation(p, model: HurstModel, n: int):
    """n-step increment correlation at the model's one-step fGn tetrachoric."""
    return n_step_correlation_from_delta(p, model.delta1, n)


def sigma_max(model: HurstModel) -> float:
    """Largest attainable lag-1 phi coefficient, (2/pi) asin(delta1) at p = 1/2."""
    return float(n_step_correlation(0.5, model, 1))

