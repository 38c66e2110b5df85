"""Draw the walk's marginal probability p by inverting the lag-1 correlation law.

A uniform draw u is mapped to a target lag-1 correlation
``t(u) = 1 - (1 - u)^(1/(2-2H))`` and p is the unique root of
``n_step_correlation(p, model, 1) = t(u)`` on the branch p in (0, 1/2].
The target is only attainable up to the maximal phi coefficient
``sigma_max = (2/pi) asin(delta1) < 1``, reached at the feasibility threshold
u_max.  Each walk's p follows the nominal density renormalised to the
solvable branch: its uniform is scaled onto [0, u_max), which has the law of
redrawing until u < u_max, at one uniform per walk.
"""

from __future__ import annotations

import math

import numpy as np

from .fgn import HurstModel
from .link import n_step_correlation, phi_from_tetrachoric, sigma_max
from .special import float_or_array, std_normal_cdf, std_normal_quantile

__all__ = [
    "InfeasibleTargetError",
    "draw_persistence",
    "target_from_uniform",
    "feasibility_threshold",
    "solve_p_batch",
    "density_p",
]

P_FLOOR = 1e-8
CORR_TOL = 1e-10
# The Newton solve starts at p = 0.1.  A target is done when its residual
# is within _NEWTON_TOL of it, relative, and the step is below _NEWTON_STEP
# in log p: near sigma_max, where sigma1 is flat, the residual alone stops
# ~1e-7 short of the root.  Over 20k drawn targets the solve took 9-10
# passes, and at most 29 on a dense grid reaching within 1e-15 of sigma_max.
_NEWTON_START = math.log(0.1)
_NEWTON_TOL = 1e-13
_NEWTON_STEP = 1e-8
_NEWTON_PASSES = 64


class InfeasibleTargetError(ValueError):
    """Raised when solve_p_batch is handed a target above sigma_max."""


@float_or_array
def target_from_uniform(u, model: HurstModel):
    """Map uniforms in [0, 1) to target correlations 1 - (1-u)^(1/(2-2H))."""
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise ValueError(f"uniform must be in [0, 1), got {u}")
    return -np.expm1(np.log1p(-u) / (2.0 - 2.0 * model.h))


def feasibility_threshold(model: HurstModel) -> float:
    """Largest solvable uniform, u_max = 1 - (1 - sigma_max)^(2-2H).

    This is also the probability mass the nominal density places on the
    solvable branch (< 1): the density does not integrate to one over any
    p-branch, which is why the draw renormalises.
    """
    return -float(np.expm1((2.0 - 2.0 * model.h) * np.log1p(-sigma_max(model))))


def solve_p_batch(targets: np.ndarray, model: HurstModel, stats: dict | None = None) -> np.ndarray:
    """Vectorised safeguarded Newton solve for p in (0, 1/2] with sigma1(p) = target.

    The lag-1 correlation is strictly increasing on the branch.  Each pass
    takes a Newton step on ``log sigma1 = log target`` in x = log p, with the
    exact derivative ``d sigma1 / dx = (e' - sigma1 (1-2p)) / (1-p)``,
    ``e' = 2 (Phi(z sqrt((1-delta1)/(1+delta1))) - p)`` (see ``density_p``;
    both come from ``_sigma1_slope``), and keeps a bracket [lo, hi] in x from
    the sign of the residual.  A step that leaves the bracket is replaced by
    its midpoint; a step onto a bracket end is kept, as a converged iterate
    lands there.  Each pass evaluates only the targets not yet done, for at
    most 64 passes, and takes the normal quantile of its p once for both
    sigma1 and the derivative.  Targets at or below sigma1(P_FLOOR) collapse
    to the floor (the walk degenerates toward a constant-sign path there),
    sigma_max gives p = 1/2, and targets above sigma_max raise.  Every p is then checked against CORR_TOL.  ``stats``,
    if given, receives the number of passes, ``solve_passes``.
    """
    targets = np.asarray(targets, dtype=np.float64)
    s_max = sigma_max(model)
    if np.any(targets > s_max):
        bad = float(targets[targets > s_max][0])
        raise InfeasibleTargetError(f"target {bad!r} exceeds sigma_max {s_max!r}")
    if np.any(targets < 0.0):
        raise ValueError("targets must be nonnegative")

    s_floor = n_step_correlation(P_FLOOR, model, 1)
    at_floor = targets <= s_floor
    x = np.full_like(targets, _NEWTON_START)
    lo = np.full_like(targets, math.log(P_FLOOR))
    hi = np.full_like(targets, math.log(0.5))
    active = np.flatnonzero(~at_floor & (targets < s_max))
    passes = 0
    while active.size and passes < _NEWTON_PASSES:
        passes += 1
        xa, t = x[active], targets[active]
        p = np.exp(xa)
        s1, slope = _sigma1_slope(p, model)
        below = s1 <= t
        lo[active] = np.where(below, xa, lo[active])
        hi[active] = np.where(below, hi[active], xa)
        step = np.log(s1 / t) * s1 * (1.0 - p) / slope
        xn = xa - step
        la, ha = lo[active], hi[active]
        xn = np.where((xn >= la) & (xn <= ha), xn, 0.5 * (la + ha))
        done = (np.abs(s1 - t) <= _NEWTON_TOL * t) & (np.abs(step) <= _NEWTON_STEP)
        x[active[~done]] = xn[~done]
        active = active[~done]
    if stats is not None:
        stats["solve_passes"] = passes
    # sigma1 is quadratically flat at its maximum, so the maximal target is
    # set to p = 1/2 rather than approached
    p = np.where(targets == s_max, 0.5, np.exp(x))
    p = np.where(at_floor, P_FLOOR, p)

    achieved = n_step_correlation(p, model, 1)
    bad = ~at_floor & (np.abs(achieved - targets) > CORR_TOL)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise RuntimeError(
            "Newton solve failure: "
            f"target={targets[i]!r} achieved={achieved[i]!r} at p={p[i]!r}"
        )
    return p


def _sigma1_slope(p: np.ndarray, model: HurstModel) -> tuple[np.ndarray, np.ndarray]:
    """sigma1(p) and ``e' - sigma1 (1-2p)``, its derivative's numerator (see ``density_p``)."""
    z = std_normal_quantile(p)
    s1 = phi_from_tetrachoric(p, model.delta1, z)
    de = 2.0 * (std_normal_cdf(z * math.sqrt((1.0 - model.delta1) / (1.0 + model.delta1))) - p)
    return s1, de - s1 * (1.0 - 2.0 * p)


def _draw_target(u: np.ndarray, model: HurstModel) -> np.ndarray:
    """Solvable targets ``t(u u_max)`` for uniforms u in [0, 1).

    Clamped to ``sigma_max``: at u just below 1 the map can land one ulp
    above it, where ``solve_p_batch`` would raise.
    """
    return np.minimum(target_from_uniform(u * feasibility_threshold(model), model), sigma_max(model))


def draw_persistence(u: np.ndarray, model: HurstModel) -> np.ndarray:
    """Inverse CDF of the enriquez persistence density on [1/2, 1], at uniforms u.

    The density is (1-H) 2^(3-2H) (1-rho)^(1-2H).
    """
    return 1.0 - 0.5 * np.exp(np.log1p(-np.asarray(u, dtype=np.float64)) / (2.0 - 2.0 * model.h))


@float_or_array
def density_p(p, model: HurstModel):
    """Nominal density of p, ``F'(sigma1(p)) sigma1'(p)`` with ``F(s) = 1 - (1-s)^(2-2H)``.

    The derivative is exact.  With ``e = Phi2(z, z, delta1) - p^2`` at the
    quantile z = z(p), ``e' = 2 (Phi(z sqrt((1-delta1)/(1+delta1))) - p)``, and
    ``sigma1 = e / (p (1-p))`` gives ``sigma1' = (e' - sigma1 (1-2p)) / (p (1-p))``.
    Defined for p in [P_FLOOR, 1 - P_FLOOR]; negative for p > 1/2, where
    sigma1 decreases by symmetry.
    """
    if np.any((p < P_FLOOR) | (p > 1.0 - P_FLOOR)):
        raise ValueError(f"p must lie in [{P_FLOOR}, 1 - {P_FLOOR}]")
    s1, slope = _sigma1_slope(p, model)
    ds1 = slope / (p * (1.0 - p))
    return (2.0 - 2.0 * model.h) * (1.0 - s1) ** (1.0 - 2.0 * model.h) * ds1
