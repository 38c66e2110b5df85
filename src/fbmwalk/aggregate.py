"""Aggregate M independent trajectories into an approximate fBm path on [0, 1].

Each trajectory is standardised by its own marginal mean and variance,
summed into a single accumulator, and the sum is rescaled by
``a_H / (N^H sqrt(M))``.  Reduction follows a fixed schedule (pairwise tree
inside fixed-size blocks, blocks in index order), and every trajectory owns a
generator spawned deterministically from the master seed, so output is
byte-identical for any worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from . import _kernels as kernels
from .fgn import HurstModel
# perfbench/layers.py times the link layer by wrapping this module's
# persistence_from_p and n_step_correlation, so both stay importable here
from .link import n_step_correlation, persistence_from_p, sigma_max  # noqa: F401
from .sampling import _draw_target, draw_persistence, solve_p_batch

__all__ = ["AggregatedPath", "BACKEND", "STREAM_VERSION", "generate_fbm", "renewal_keep"]

BACKEND = "numpy"  # the kernel lane, recorded in the sidecar's "backend" field
# Version of the output stream, recorded in every sidecar: raised whenever the
# bytes fixed by (config, seed) change on purpose.  2: one bivariate route at
# every correlation (bytes moved only where delta1 >= 0.925, i.e. H >= 0.9725).
# 3: one renewal kernel reading one uniform per step, and one 20-point
# quadrature rule (every walk mode moved; the oracle did not).
STREAM_VERSION = 3
_BLOCK = 64  # trajectories per reduction block; fixed so results never depend on workers


@dataclass(frozen=True)
class AggregatedPath:
    """Approximate fBm sample path at t_k = k/N, k = 0..N."""

    h: float
    n_steps: int
    n_paths: int
    times: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)


def standardized_levels(levels: np.ndarray, p: float, karr: np.ndarray) -> np.ndarray:
    """Per-trajectory standardisation (X_k - k(2p-1)) / sqrt(4p(1-p))."""
    mean_step = 2.0 * p - 1.0
    scale = np.sqrt(4.0 * p * (1.0 - p))
    return (levels - karr * mean_step) / scale


def renewal_keep(mode: str, p, model: HurstModel, persistence=None):
    """Probability that the mode's renewal chain keeps its previous bit.

    ``paper`` keeps with rho(p) and ``enriquez`` (p = 1/2) with 2 rho - 1 for
    the supplied persistence rho.  A renewal chain's lag-n increment
    correlation is keep^n (the second eigenvalue of its transition matrix is
    keep).  ``p`` and ``persistence`` are scalars (a float is returned) or
    arrays.
    """
    if mode == "paper":
        return persistence_from_p(p, model)
    if mode == "enriquez":
        if persistence is None:
            raise ValueError("enriquez mode needs an explicit persistence")
        return 2.0 * persistence - 1.0
    raise ValueError(f"unknown mode {mode!r}")


def _walk_levels(rng: np.random.Generator, n: int, p: float, keep: float) -> np.ndarray:
    """Draw n step uniforms from the trajectory's own stream and walk them."""
    return kernels.renewal_levels(rng.random(n), p, keep)


def _pairwise_sum(arrays: list[np.ndarray]) -> np.ndarray:
    while len(arrays) > 1:
        merged = [arrays[i] + arrays[i + 1] for i in range(0, len(arrays) - 1, 2)]
        if len(arrays) % 2:
            merged.append(arrays[-1])
        arrays = merged
    return arrays[0]


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
    Deterministic given (all arguments except workers).
    """
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if mode not in ("paper", "enriquez"):
        raise ValueError(f"unknown mode {mode!r}")

    t0 = time.perf_counter()
    root = np.random.SeedSequence(seed)
    rngs = [np.random.Generator(np.random.PCG64(c)) for c in root.spawn(n_paths)]

    # parameter-draw phase (consumes each trajectory's stream first)
    counts = [0]
    persistence = None
    if mode == "enriquez":
        persistence = np.array([draw_persistence(r, model) for r in rngs])
        ps = np.full(n_paths, 0.5)
    else:
        s_max = sigma_max(model)
        drawn = [_draw_target(r, model, s_max) for r in rngs]
        counts = [d[2] for d in drawn]
        ps = solve_p_batch(np.array([d[1] for d in drawn]), model)
    keeps = np.asarray(renewal_keep(mode, ps, model, persistence))

    karr = np.arange(1, n_steps + 1, dtype=np.float64)

    def task(i: int) -> np.ndarray:
        levels = _walk_levels(rngs[i], n_steps, float(ps[i]), float(keeps[i]))
        return standardized_levels(levels, float(ps[i]), karr)

    total = np.zeros(n_steps, dtype=np.float64)
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        mapper = map if pool is None else pool.map
        for start in range(0, n_paths, _BLOCK):
            block = mapper(task, range(start, min(start + _BLOCK, n_paths)))
            total += _pairwise_sum(list(block))

    values = np.empty(n_steps + 1, dtype=np.float64)
    values[0] = 0.0
    values[1:] = model.a_h * total / (n_steps**model.h * np.sqrt(n_paths))
    elapsed = time.perf_counter() - t0
    steps = n_steps * n_paths
    meta = {
        "mode": mode,
        "seed": seed,
        "workers": workers,
        "backend": BACKEND,
        "stream_version": STREAM_VERSION,
        "resample_total": int(sum(counts)),
        "resample_max": int(max(counts)),
        "elapsed_s": elapsed,
        "throughput_steps_per_s": steps / elapsed if elapsed > 0 else float("inf"),
    }
    return AggregatedPath(
        h=model.h,
        n_steps=n_steps,
        n_paths=n_paths,
        times=np.arange(n_steps + 1, dtype=np.float64) / n_steps,
        values=values,
        meta=meta,
    )
