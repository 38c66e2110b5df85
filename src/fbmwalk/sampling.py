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

import numpy as np

from .fgn import HurstModel
from .link import n_step_correlation, sigma_max

__all__ = [
    "InfeasibleTargetError",
    "draw_persistence",
    "target_from_uniform",
    "feasibility_threshold",
    "solve_p_batch",
    "density_p",
]

P_FLOOR = 1e-8
P_TOL = 1e-12
CORR_TOL = 1e-10
# 64 halvings of [1e-8, 1/2]: far below the 1e-12 p-tolerance, and enough to
# meet CORR_TOL even where sigma1 is steepest (slope ~1e3 near the floor)
_BISECT_ITERS = 64


class InfeasibleTargetError(ValueError):
    """Raised when solve_p_batch is handed a target above sigma_max."""


def target_from_uniform(u, model: HurstModel):
    """Map uniforms in [0, 1) to target correlations 1 - (1-u)^(1/(2-2H)).

    A scalar ``u`` gives a float, an array an array.
    """
    scalar = np.ndim(u) == 0
    u = np.asarray(u, dtype=np.float64)
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise ValueError(f"uniform must be in [0, 1), got {u}")
    out = -np.expm1(np.log1p(-u) / (2.0 - 2.0 * model.h))
    return float(out) if scalar else out


def feasibility_threshold(model: HurstModel) -> float:
    """Largest solvable uniform, u_max = 1 - (1 - sigma_max)^(2-2H).

    This is also the probability mass the nominal density places on the
    solvable branch (< 1): the density does not integrate to one over any
    p-branch, which is why the draw renormalises.
    """
    return -float(np.expm1((2.0 - 2.0 * model.h) * np.log1p(-sigma_max(model))))


def solve_p_batch(targets: np.ndarray, model: HurstModel) -> np.ndarray:
    """Vectorised bisection for p in (0, 1/2] with sigma1(p) = target.

    The lag-1 correlation is strictly increasing on the branch, so bisection
    is unconditionally convergent; the fixed halving count leaves the bracket
    far below the 1e-12 p-tolerance and meets the 1e-10 correlation tolerance
    even on the steep small-p flank.  Targets at or below sigma1(P_FLOOR)
    collapse to the bracket floor (the walk degenerates toward a
    constant-sign path there); targets above sigma_max raise.
    """
    targets = np.asarray(targets, dtype=np.float64)
    s_max = sigma_max(model)
    if np.any(targets > s_max):
        bad = float(targets[targets > s_max][0])
        raise InfeasibleTargetError(f"target {bad!r} exceeds sigma_max {s_max!r}")
    if np.any(targets < 0.0):
        raise ValueError("targets must be nonnegative")

    lo = np.full_like(targets, P_FLOOR)
    hi = np.full_like(targets, 0.5)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        below = np.asarray(n_step_correlation(mid, model, 1)) <= targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    p = 0.5 * (lo + hi)
    # sigma1 is quadratically flat at its maximum, so float noise makes the
    # last ~1e-8 of the bracket unresolvable; the maximal target means p = 1/2
    p = np.where(targets == s_max, 0.5, p)

    s_floor = float(n_step_correlation(P_FLOOR, model, 1))
    at_floor = targets <= s_floor
    p = np.where(at_floor, P_FLOOR, p)

    achieved = np.asarray(n_step_correlation(p, model, 1))
    bad = ~at_floor & (np.abs(achieved - targets) > CORR_TOL)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise RuntimeError(
            "bisection bracket failure: "
            f"target={targets[i]!r} achieved={achieved[i]!r} at p={p[i]!r}"
        )
    return p


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


def density_p(p, model: HurstModel):
    """Nominal density of p on the increasing branch (scalar or array).

    ``g(p) = (1-H) 2^(3-2H) (1-v)^(1-2H) dv/dp`` with ``v = (sigma1(p)+1)/2``.
    The derivative is a Richardson-extrapolated central difference with base
    step 1e-6.  Negative for p > 1/2, where v(p) decreases by symmetry.
    """
    h_step = 1e-6
    scalar = np.ndim(p) == 0
    p = np.atleast_1d(np.asarray(p, dtype=np.float64))
    if np.any((p <= 2.0 * h_step) | (p >= 1.0 - 2.0 * h_step)):
        raise ValueError("p outside the differentiable range")
    s1 = np.asarray(n_step_correlation(p, model, 1))
    if np.any(s1 >= 1.0):
        raise ValueError("sigma1(p) must be below 1")

    def v(q: np.ndarray) -> np.ndarray:
        return (np.asarray(n_step_correlation(q, model, 1)) + 1.0) / 2.0

    def central(step: float) -> np.ndarray:
        return (v(p + step) - v(p - step)) / (2.0 * step)

    dv = (4.0 * central(h_step / 2.0) - central(h_step)) / 3.0
    hh = model.h
    out = (1.0 - hh) * 2.0 ** (3.0 - 2.0 * hh) * (1.0 - (s1 + 1.0) / 2.0) ** (1.0 - 2.0 * hh) * dv
    return float(out[0]) if scalar else out
