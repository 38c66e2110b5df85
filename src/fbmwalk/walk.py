"""Single correlated +-1 trajectories.

Three generation modes, all generated by ``aggregate.generate_fbm``:

* ``paper``    - the persistence-gated renewal recursion driven by rho(p);
                 its exact lag-1 increment correlation is rho(p), not the
                 phi coefficient sigma1(p) the link layer targets.
* ``matched``  - a two-state chain built to hit lag-1 = sigma1(p) exactly
                 (lag-n = sigma1^n), with the same marginal p.
* ``enriquez`` - the symmetric persistent walk with p = 1/2 and persistence
                 drawn from the density (1-H) 2^(3-2H) (1-rho)^(1-2H) on
                 [1/2, 1]; the provably convergent baseline.

Each trajectory consumes uniforms from its own generator in a fixed order
(parameter draws first, then the step arrays), so a (config, seed) pair is
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fgn import HurstModel
from .link import n_step_correlation, persistence_from_p
from .sampling import PSample

__all__ = ["Trajectory", "chain_lag_correlation", "draw_persistence"]


@dataclass(frozen=True)
class Trajectory:
    """Cumulative +-1 walk; increments are recovered from the levels."""

    levels: np.ndarray  # int64, length n_steps, X_1..X_n with X_0 = 0
    psample: PSample | None = None
    mode: str = "paper"

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.levels, prepend=np.int64(0))


def draw_persistence(rng: np.random.Generator, model: HurstModel) -> float:
    """Inverse-CDF draw of the persistence density on [1/2, 1]."""
    u = rng.random()
    return 1.0 - 0.5 * float(np.exp(np.log1p(-u) / (2.0 - 2.0 * model.h)))


def chain_lag_correlation(
    mode: str,
    p: float,
    model: HurstModel,
    n: int,
    persistence: float | None = None,
) -> float:
    """Exact lag-n increment correlation of the stationary chain per mode.

    ``paper`` decays as rho(p)^n (second eigenvalue of its transition
    matrix), ``matched`` as sigma1(p)^n by construction, ``enriquez`` as
    (2 rho - 1)^n for the supplied persistence.
    """
    if n < 0:
        raise ValueError("lag must be nonnegative")
    if mode == "paper":
        lam = float(persistence_from_p(p, model))
    elif mode == "matched":
        lam = float(n_step_correlation(p, model, 1))
    elif mode == "enriquez":
        if persistence is None:
            raise ValueError("enriquez mode needs an explicit persistence")
        lam = 2.0 * persistence - 1.0
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return lam**n
