"""Single correlated +-1 trajectories.

Every mode is one renewal chain (``_kernels.renewal_levels``): keep the
previous bit with probability ``keep``, otherwise redraw it as Bernoulli(p).
The three walk modes, all generated by ``aggregate.generate_fbm``, differ
only in the pair (p, keep), which ``aggregate.renewal_keep`` maps:

* ``paper``    - (p, rho(p)): the persistence-gated recursion; its exact
                 lag-1 increment correlation is rho(p), not the phi
                 coefficient sigma1(p) the link layer targets.
* ``matched``  - (p, sigma1(p)): hits lag-1 = sigma1(p) exactly
                 (lag-n = sigma1^n), with the same marginal p.
* ``enriquez`` - (1/2, 2 rho - 1): the symmetric persistent walk, which
                 repeats its previous step with probability rho, drawn from
                 the density (1-H) 2^(3-2H) (1-rho)^(1-2H) on [1/2, 1]; the
                 provably convergent baseline.

Each trajectory consumes uniforms from its own generator in a fixed order
(parameter draws first, then one uniform per step), so a (config, seed) pair
is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fgn import HurstModel
from .sampling import PSample

__all__ = ["Trajectory", "draw_persistence"]


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
