"""The pure-numpy walk kernel: uniforms in, integer cumulative levels out.

Every walk mode is one renewal chain on a bit: keep the previous bit with
probability ``keep``, otherwise redraw it as Bernoulli(p).  The modes differ
only in the pair (p, keep), which ``aggregate.renewal_keep`` supplies.  The
kernel reads one uniform per step, so the levels are fixed by the uniforms
alone.
"""

from __future__ import annotations

import numpy as np


def renewal_levels(u: np.ndarray, p: float, keep: float) -> np.ndarray:
    """Renewal chain with marginal p and lag-n increment correlation keep^n.

    Step 0 is Bernoulli(p): the bit is 1 when u[0] < p.  At each later step
    the bit is set to 1 when u < p (1 - keep), set to 0 when
    u >= p + (1 - p) keep, and kept in between, so it is kept with
    probability keep and otherwise redrawn as Bernoulli(p).  Returns int64
    cumulative sums of the +-1 steps (2 bit - 1).

    The steps are constant between renewals (the steps that set the bit), so
    the kernel scatters the change of the step at each renewal and takes two
    prefix sums: the first gives the steps, the second the levels.
    """
    up = u < p * (1.0 - keep)
    renew = up | (u >= p + (1.0 - p) * keep)
    up[0] = u[0] < p
    renew[0] = True
    at = renew.nonzero()[0]
    change = np.where(up[at], 1, -1)  # the step each renewal sets ...
    change[1:] -= change[:-1]  # ... less the one it replaces (overlap is buffered)
    levels = np.zeros(u.shape[0], dtype=np.int64)
    levels[at] = change
    np.cumsum(levels, out=levels)
    return np.cumsum(levels, out=levels)
