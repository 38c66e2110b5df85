"""Aggregate M independent trajectories into an approximate fBm path on [0, 1].

The standardised sum is linear in the walks, so no walk is expanded step by
step: each trajectory draws its first bit and the geometric sojourns of its
bit, and scatters its standardised first step and its weighted flips into
one second-difference array, the returned path's ``values[1:]``, in walk
order.  Two prefix sums in place turn it into the summed standardised
levels, which are rescaled in place by ``a_H / (N^H sqrt(M))``.  So the
only N-sized arrays are the path, its times and one walk's flips.

Each walk's parameters (p, keep) are one map of one uniform, vectorised
over all M walks (``walk_parameters``).  Every 64-trajectory block owns a
generator spawned deterministically from the master seed: it first gives
the block's uniforms, then walks the block's trajectories in order.  The
walks run in one thread: each is a dozen short numpy calls under the
interpreter lock, and a second thread gained at most 8%.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kernels
from .fgn import HurstModel
# perfbench/layers.py times the parameter map's stages by wrapping
# _draw_target, solve_p_batch, persistence_from_p, n_step_correlation and
# draw_persistence here, so each stays importable and is called through
# this module's globals
from .link import n_step_correlation, persistence_from_p  # noqa: F401
from .sampling import _draw_target, draw_persistence, solve_p_batch

__all__ = ["AggregatedPath", "BACKEND", "STREAM_VERSION", "generate_fbm", "walk_parameters"]

BACKEND = "numpy"  # the kernel lane, recorded in the sidecar's "backend" field
# Version of the output stream, recorded in every sidecar; README lists what each one moved
STREAM_VERSION = 8
_BLOCK = 64  # trajectories sharing one generator


@dataclass(frozen=True)
class AggregatedPath:
    """Approximate fBm sample path at t_k = k/N, k = 0..N."""

    h: float
    n_steps: int
    n_paths: int
    times: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)


# perfbench/layers.py times the walk's draws and its scatter by wrapping
# _walk_levels and standardized_levels here, so the two keep their names
def standardized_levels(d2: np.ndarray, up: bool, flips: np.ndarray, p: float) -> None:
    """Scatter one walk's standardised steps into a second-difference array.

    The standardised step ``(2 bit - 1 - (2p - 1)) w``, with
    ``w = 1/sqrt(4p(1-p))``, is ``2w(1-p)`` while the bit is 1 and ``-2wp``
    while it is 0.  So ``d2[0]`` gains the first step, and each flip ``-2w``
    (from 1 to 0) or ``+2w`` (from 0 to 1); the flips alternate, starting
    from the first bit.  Two prefix sums of ``d2`` give the summed
    standardised levels.
    """
    w = 1.0 / math.sqrt(4.0 * p * (1.0 - p))
    d2[0] += 2.0 * w * ((1.0 if up else 0.0) - p)
    jump = -2.0 * w if up else 2.0 * w
    np.add.at(d2, flips[0::2], jump)
    np.add.at(d2, flips[1::2], -jump)


def walk_parameters(mode: str, u: np.ndarray, model: HurstModel) -> tuple[np.ndarray, np.ndarray]:
    """Each walk's (p, keep) from its uniform in [0, 1): the mode's parameter law.

    ``paper`` solves sigma1(p) = t(u u_max) for p and keeps the previous bit
    with rho(p); ``enriquez`` walks at p = 1/2 and keeps with 2 rho - 1, for
    the persistence rho drawn at u.  A renewal chain's lag-n increment
    correlation is keep^n (the second eigenvalue of its transition matrix).
    """
    if mode == "paper":
        p = solve_p_batch(_draw_target(u, model), model)
        return p, persistence_from_p(p, model)
    if mode == "enriquez":
        return np.full(len(u), 0.5), 2.0 * draw_persistence(u, model) - 1.0
    raise ValueError(f"unknown mode {mode!r}")


def _walk_levels(rng: np.random.Generator, n: int, p: float, keep: float) -> tuple[bool, np.ndarray]:
    """One walk of n steps from the trajectory's own stream: (first bit, flip steps).

    One uniform sets the first bit (1 when u < p).  Then the sojourns
    alternate between the first bit's state and the other, each geometric in
    its state's leave probability, (1 - keep)(1 - p) from 1 and (1 - keep) p
    from 0.  They are drawn in batches, each of about 1.1 times the expected
    flip count: first the sojourns of the first bit's state, then as many of
    the other state's, interleaved; batches follow until a flip passes step
    n.  A leave probability of 0 (keep = 1) means no further flip: the first
    sojourn lasts the whole walk.  The first bit's state is then the one never
    left, as the first bit is 0 at p = 0 and 1 at p = 1.
    """
    up = bool(rng.random() < p)
    leave_up, leave_down = (1.0 - keep) * (1.0 - p), (1.0 - keep) * p
    first, second = (leave_up, leave_down) if up else (leave_down, leave_up)
    if first == 0.0:
        return up, kernels.renewal_flips(np.array([n]), n)
    half = int(1.1 * n * (1.0 - keep) * p * (1.0 - p)) + 8
    sojourns = np.empty(2 * half, dtype=np.int64)
    flips, start = [], 0
    while True:
        sojourns[0::2] = rng.geometric(first, half)
        sojourns[1::2] = rng.geometric(second, half)
        at = kernels.renewal_flips(sojourns, n, start)
        flips.append(at)
        if len(at) < len(sojourns):
            return up, flips[0] if len(flips) == 1 else np.concatenate(flips)
        start = int(at[-1])


# no longer called; kept while perfbench's WRAPPED lists it (ROADMAP item 1)
def _pairwise_sum(arrays: list[np.ndarray]) -> np.ndarray:
    while len(arrays) > 1:
        merged = [arrays[i] + arrays[i + 1] for i in range(0, len(arrays) - 1, 2)]
        if len(arrays) % 2:
            merged.append(arrays[-1])
        arrays = merged
    return arrays[0]


def _spread(x: np.ndarray) -> dict:
    return {"min": float(np.min(x)), "median": float(np.median(x)), "max": float(np.max(x))}


def generate_fbm(
    model: HurstModel,
    n_steps: int,
    n_paths: int,
    mode: str = "paper",
    seed: int = 0,
    workers: int = 1,
) -> AggregatedPath:
    """Generate an approximate fBm path from n_paths aggregated trajectories.

    Parameters follow the construction: each trajectory draws its own
    marginal parameter, walks n_steps, and is standardised before summation.
    Deterministic given (all arguments except workers).  ``workers`` is
    checked and recorded in ``meta`` only, as the command line's
    ``--workers`` still passes it; it never changes the work or the bytes.
    """
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")

    t0 = time.perf_counter()
    n_blocks = -(-n_paths // _BLOCK)
    rngs = [np.random.Generator(np.random.PCG64(c)) for c in np.random.SeedSequence(seed).spawn(n_blocks)]
    u = np.concatenate([rng.random(min(_BLOCK, n_paths - b * _BLOCK)) for b, rng in enumerate(rngs)])
    ps, keeps = walk_parameters(mode, u, model)
    t1 = time.perf_counter()

    flip_counts = np.empty(n_paths, dtype=np.int64)
    values = np.zeros(n_steps + 1, dtype=np.float64)
    d2 = values[1:]
    for i, (p, keep) in enumerate(zip(ps.tolist(), keeps.tolist())):
        up, flips = _walk_levels(rngs[i // _BLOCK], n_steps, p, keep)
        standardized_levels(d2, up, flips, p)
        flip_counts[i] = len(flips)
    np.cumsum(d2, out=d2)
    np.cumsum(d2, out=d2)
    d2 *= model.a_h
    d2 /= n_steps**model.h * np.sqrt(n_paths)
    t2 = time.perf_counter()
    steps = n_steps * n_paths
    meta = {
        "mode": mode,
        "seed": seed,
        "workers": workers,
        "backend": BACKEND,
        "stream_version": STREAM_VERSION,
        # no draw is rejected; kept at 0 because perfbench's sidecar check reads it
        "resample_total": 0,
        "flips_total": int(flip_counts.sum()),
        "flips_per_path": _spread(flip_counts),
        "p": _spread(ps),
        "keep": _spread(keeps),
        "params_s": t1 - t0,
        "walk_s": t2 - t1,
        "elapsed_s": t2 - t0,
        "throughput_steps_per_s": steps / (t2 - t0) if t2 > t0 else float("inf"),
    }
    return AggregatedPath(
        h=model.h,
        n_steps=n_steps,
        n_paths=n_paths,
        times=np.arange(n_steps + 1, dtype=np.float64) / n_steps,
        values=values,
        meta=meta,
    )
