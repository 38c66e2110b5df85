"""Pure-numpy walk kernels: uniforms in, integer cumulative levels out.

Each kernel consumes pre-drawn uniform arrays in a documented order, so the
levels are fixed by the uniforms alone.  The sequential recursions are
rewritten as renewal processes: the value at step i equals the value injected
at the most recent renewal, which vectorises as a forward fill over renewal
indices.
"""

from __future__ import annotations

import numpy as np


def _forward_fill_bool(src: np.ndarray, renew: np.ndarray) -> np.ndarray:
    idx = np.where(renew, np.arange(renew.shape[0]), 0)
    np.maximum.accumulate(idx, out=idx)
    return src[idx]


def paper_levels(gate: np.ndarray, val: np.ndarray, p: float, rho: float) -> np.ndarray:
    """Persistence-gated renewal walk: keep the previous bit while gate < rho.

    Step 0 takes Bernoulli(p) from val[0] (gate[0] is drawn but unused, so
    both arrays hold one uniform per step).  Steps i >= 1 keep the previous
    bit when gate[i] < rho, otherwise redraw it as Bernoulli(p) from val[i].
    Returns int64 cumulative sums of the +-1 steps.
    """
    renew = gate >= rho
    renew[0] = True
    src = val < p
    xi = _forward_fill_bool(src, renew)
    steps = 2 * xi.astype(np.int64) - 1
    return np.cumsum(steps)


def matched_levels(u: np.ndarray, p: float, sigma1: float) -> np.ndarray:
    """Two-state chain with exact lag-1 correlation sigma1 and marginal p.

    Transition-to-1 probabilities are ``p + (1-p) sigma1`` from state 1 and
    ``p (1 - sigma1)`` from state 0; one uniform decides each step.  With
    t0 <= t1 the step is forced to 1 when u < t0, forced to 0 when u >= t1,
    and keeps the previous state in between, so the chain is again a renewal
    process.  Step 0 is Bernoulli(p).
    """
    t1 = p + (1.0 - p) * sigma1
    t0 = p * (1.0 - sigma1)
    src = u < t0
    renew = src | (u >= t1)
    renew[0] = True
    src[0] = u[0] < p
    xi = _forward_fill_bool(src, renew)
    steps = 2 * xi.astype(np.int64) - 1
    return np.cumsum(steps)


def enriquez_levels(u: np.ndarray, rho: float) -> np.ndarray:
    """Symmetric persistent walk: repeat the previous +-1 step while u < rho.

    u[0] sets the sign of the first step (up when u[0] < 1/2); each later
    uniform flips the sign when it reaches rho.  Flip parity replaces the
    sequential product of signs.
    """
    flips = (u >= rho).astype(np.int64)
    flips[0] = 0
    parity = np.cumsum(flips) & 1
    first = 1 if u[0] < 0.5 else -1
    steps = first * (1 - 2 * parity)
    return np.cumsum(steps)
