"""The pure-numpy walk kernel: sojourns in, the steps at which the bit flips out.

Every walk mode is one renewal chain on a bit: keep the previous bit with
probability ``keep``, otherwise redraw it as Bernoulli(p).  The modes differ
only in the pair (p, keep), which ``aggregate.walk_parameters`` maps from a
uniform.  The bit is a two-state Markov chain: it leaves 1 with probability
(1 - keep)(1 - p) per step and 0 with (1 - keep) p, so the runs of equal bits
(sojourns) are geometric and alternate between the two states.  A walk is
fixed by its first bit and the steps at which the bit flips.
"""

from __future__ import annotations

import numpy as np


def renewal_flips(sojourns: np.ndarray, n: int, start: int = 0) -> np.ndarray:
    """Steps in [start, n) at which the bit flips, for sojourns starting at ``start``.

    Sojourn j (lengths >= 1) ends at ``start + sojourns[0] + ... + sojourns[j]``,
    where the bit flips.  Each sojourn is clipped at n before the prefix sum:
    a geometric draw at a vanishing leave probability can be 2^63 - 1, and a
    sum of such draws would wrap.  Returns the int64 flip steps below n,
    strictly increasing.
    """
    at = np.minimum(sojourns, n)
    np.cumsum(at, out=at)
    at += start
    return at[: np.searchsorted(at, n)]


def expand_steps(up: bool, flips, n: int) -> np.ndarray:
    """The +-1 steps of a walk of n steps from its first bit and its flip steps.

    The first step is +1 when the first bit is 1, and the sign reverses at
    each flip.  The reference expansion of the event route, for checks only.
    """
    bounds = np.concatenate(([0], np.asarray(flips, dtype=np.int64), [n]))
    signs = np.where(np.arange(len(bounds) - 1) % 2 == 0, 1, -1) * (1 if up else -1)
    return np.repeat(signs, np.diff(bounds)).astype(np.int64)
