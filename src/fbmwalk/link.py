"""Link between the latent Gaussian correlation and the binary-walk laws.

Thresholding a correlated standard-normal pair at the p-quantile produces a
correlated binary pair; this module maps the latent (tetrachoric) correlation
to the binary (phi) correlation, derives the walk persistence, the paper's
stated n-step law of the binary increments and the largest lag-1
correlation ``sigma_max``.  Every law goes through one bivariate quantity,
the diagonal excess ``Phi2(z(p), z(p), delta) - p^2``.
"""

from __future__ import annotations

import numpy as np

from .fgn import HurstModel
from .special import bvn_cdf_excess_diag, float_or_array, std_normal_quantile

__all__ = [
    "phi_from_tetrachoric",
    "persistence_from_p",
    "n_step_correlation",
    "sigma_max",
]


def _phi2_excess(p: np.ndarray, delta: float, z=None) -> np.ndarray:
    """Phi2(z(p), z(p), delta) - p^2 over an array of p.

    ``z``, if given, is ``std_normal_quantile(p)`` already computed by the
    caller; the result is the same bits.  Raises ValueError unless
    -1 < delta < 1 and every p lies in (0, 1).
    """
    if not -1.0 < delta < 1.0:
        raise ValueError(f"tetrachoric correlation must satisfy |delta| < 1, got {delta}")
    if z is None:
        z = std_normal_quantile(p)
    return bvn_cdf_excess_diag(z, delta)


@float_or_array
def phi_from_tetrachoric(p, delta: float, z=None):
    """Phi coefficient of the dichotomised pair with equal margins p.

    ``(Phi2(z(p), z(p), delta) - p^2) / (p (1 - p))``; zero at delta = 0,
    attenuated toward zero as p leaves 1/2.  Optionally takes the quantile
    ``z`` of p (see ``_phi2_excess``).
    """
    return _phi2_excess(p, delta, z) / (p * (1.0 - p))


@float_or_array
def persistence_from_tetrachoric(p, delta: float):
    """Persistence 2*Phi2(z(p), z(p), delta) - 2p + 1 of the binary walk."""
    return 2.0 * _phi2_excess(p, delta) + 2.0 * p * p - 2.0 * p + 1.0


def persistence_from_p(p, model: HurstModel):
    """Probability that the walk repeats its previous jump, rho(p) in (1/2, 1)."""
    return persistence_from_tetrachoric(p, model.delta1)


@float_or_array
def n_step_correlation_from_delta(p, delta: float, n: int):
    """The paper's stated law for binary +-1 increments n steps apart.

    ``((2 rho(p) - 1)^n - (2p - 1)^2) / (4 p (1 - p))`` with
    ``2 rho - 1 = 4 Phi2 - 4p + 1``.  At n = 1 it is the phi coefficient,
    the lag-1 correlation.  At n >= 2 it is the walk's lag-n correlation
    only at p = 1/2, where it is ``(2 rho - 1)^n``; as p -> 0 it tends to
    ``1 - n``, so for n >= 3 it leaves [-1, 1] and is no correlation.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n == 1:
        # (lam - (2p-1)^2) telescopes to 4*excess exactly; evaluating it that
        # way avoids cancellation against (2p-1)^2 ~ 1 when p is tiny
        return phi_from_tetrachoric(p, delta)
    lam = 4.0 * _phi2_excess(p, delta) + (2.0 * p - 1.0) ** 2
    return (lam**n - (2.0 * p - 1.0) ** 2) / (4.0 * p * (1.0 - p))


def n_step_correlation(p, model: HurstModel, n: int):
    """The stated n-step law (``n_step_correlation_from_delta``) at the model's one-step fGn tetrachoric."""
    return n_step_correlation_from_delta(p, model.delta1, n)


def sigma_max(model: HurstModel) -> float:
    """Largest attainable lag-1 phi coefficient, (2/pi) asin(delta1) at p = 1/2."""
    return n_step_correlation(0.5, model, 1)

