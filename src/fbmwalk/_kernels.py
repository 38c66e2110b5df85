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


def group_flips(
    sojourns: np.ndarray, counts: np.ndarray, n: int, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flip steps below n of a group of walks whose sojourns come walk after walk.

    Walk j owns the next ``counts[j]`` (at least 1) sojourns, and its bit
    flips at the end of each, counted from step ``start[j]``.  The int64
    ``sojourns``, each from 1 to n + 1 (a longer one only ends past n too,
    and a sum of them could wrap), is the work array: each walk's first
    sojourn gains its start less the previous walk's end, so one prefix sum
    in place gives every walk's ends.  Returns the int64 flip steps below n,
    walk after walk and strictly increasing within each, and each walk's
    count of them.
    """
    at = sojourns
    first = np.cumsum(counts) - counts
    last_end = start + np.add.reduceat(at, first)
    at[first[0]] += start[0]
    at[first[1:]] += start[1:] - last_end[:-1]
    np.cumsum(at, out=at)
    below = at < n
    return at[below], np.add.reduceat(below, first, dtype=np.int64)


def expand_steps(up: bool, flips, n: int) -> np.ndarray:
    """The +-1 steps of a walk of n steps from its first bit and its flip steps.

    The first step is +1 when the first bit is 1, and the sign reverses at
    each flip.  The reference expansion of the event route, for checks only.
    """
    bounds = np.concatenate(([0], np.asarray(flips, dtype=np.int64), [n]))
    signs = np.where(np.arange(len(bounds) - 1) % 2 == 0, 1, -1) * (1 if up else -1)
    return np.repeat(signs, np.diff(bounds)).astype(np.int64)
