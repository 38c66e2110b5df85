"""Aggregate M independent trajectories into an approximate fBm path on [0, 1].

The standardised sum is linear in the walks, so no walk is expanded step by
step: each trajectory draws its first bit and the geometric sojourns of its
bit, and its standardised first step and weighted flips are scattered into
one second-difference array, the returned path's ``values[1:]``.  Two prefix
sums in place turn it into the summed standardised levels, which are
rescaled in place by ``a_H / (N^H sqrt(M))``.

Each walk's parameters (p, keep) are one map of one uniform, vectorised
over all M walks (``walk_parameters``).  Every 64-trajectory block owns a
generator spawned deterministically from the master seed: it first gives
the block's uniforms, then walks the block's trajectories in order.  The
block's walks are drawn in groups of consecutive walks, each group with one
pass of numpy calls (``_walk_levels``) and one scatter
(``standardized_levels``).  A group's first round reads at most
``_ROUND_BUDGET`` sojourns unless one walk alone needs more, so besides the
path the arrays held are one group's, bounded by that budget or by the
longest walk.  The groups run in one thread.
"""

from __future__ import annotations

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
STREAM_VERSION = 9
_BLOCK = 64  # trajectories sharing one generator
# sojourns a group of walks reads in its first round: bounds the group's
# arrays, and a walk that needs more is a group of its own
_ROUND_BUDGET = 1 << 14


@dataclass(frozen=True)
class AggregatedPath:
    """Approximate fBm sample path: ``values[k]`` is the level at t_k = k/N, k = 0..N."""

    h: float
    n_steps: int
    n_paths: int
    values: np.ndarray
    meta: dict = field(default_factory=dict)


# perfbench/layers.py times the walk's draws and its scatter by wrapping
# _walk_levels and standardized_levels here, so the two keep their names
def standardized_levels(
    d2: np.ndarray, up: np.ndarray, flips: np.ndarray, p: np.ndarray, counts: np.ndarray
) -> None:
    """Scatter a group of walks' standardised steps into a second-difference array.

    The standardised step ``(2 bit - 1 - (2p - 1)) w``, with
    ``w = 1/sqrt(4p(1-p))``, is ``2w(1-p)`` while the bit is 1 and ``-2wp``
    while it is 0.  So ``d2[0]`` gains each walk's first step, and each flip
    ``-2w`` (from 1 to 0) or ``+2w`` (from 0 to 1); a walk's flips alternate,
    starting from its first bit.  ``up``, ``p`` and ``counts`` hold one entry
    per walk, and ``flips`` holds ``counts[j]`` flips of walk j, walk after
    walk; they go in with one weighted scatter.  Two prefix sums of ``d2``
    give the summed standardised levels.
    """
    w2 = 2.0 / np.sqrt(4.0 * p * (1.0 - p))
    d2[0] += np.dot(w2, up - p)
    # a walk's odd flips go back: flip i of the group has the sign of its
    # walk's first flip times (-1)^i, times (-1)^(the walk's first index)
    first = np.cumsum(counts) - counts
    jump = np.repeat(np.where(up != (first % 2 == 1), -w2, w2), counts)
    jump[1::2] *= -1.0
    np.add.at(d2, flips, jump)


def walk_parameters(
    mode: str, u: np.ndarray, model: HurstModel, stats: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Each walk's (p, keep) from its uniform in [0, 1): the mode's parameter law.

    ``paper`` solves sigma1(p) = t(u u_max) for p and keeps the previous bit
    with rho(p); ``enriquez`` walks at p = 1/2 and keeps with 2 rho - 1, for
    the persistence rho drawn at u.  A renewal chain's lag-n increment
    correlation is keep^n (the second eigenvalue of its transition matrix).
    For ``paper``, ``stats``, if given, receives the time of the solve and
    the persistence map (``solve_s``) and the solve's ``solve_passes``.
    """
    if mode == "paper":
        targets = _draw_target(u, model)
        t0 = time.perf_counter()
        p = solve_p_batch(targets, model, stats)
        keep = persistence_from_p(p, model)
        if stats is not None:
            stats["solve_s"] = time.perf_counter() - t0
        return p, keep
    if mode == "enriquez":
        return np.full(len(u), 0.5), 2.0 * draw_persistence(u, model) - 1.0
    raise ValueError(f"unknown mode {mode!r}")


def _draws_per_round(n: int, p: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Sojourns a walk reads per round: an even count, about 1.1 times those it needs, plus 16.

    A pair of sojourns, one in each state, lasts 1 / ((1-keep) p (1-p)) steps
    on average.
    """
    return 2 * ((1.1 * n * (1.0 - keep) * p * (1.0 - p)).astype(np.int64) + 8)


def _walk_levels(rng: np.random.Generator, n: int, p, keep):
    """Walks of n steps from one stream, walk after walk.

    For one walk (scalar p and keep) this returns (first bit, flip steps);
    for a group (arrays) it returns (first bits, flip steps walk after walk,
    flips per walk, rounds read), on the same code path.  A walk reads
    standard exponentials E from the stream, one per sojourn; its sojourns alternate
    between its first bit's state and the other.  A sojourn in a state left
    with probability q per step is ``floor(E s) + 1`` with
    ``s = -1/log1p(-q)``: exactly geometric(q), and at least 1 also at E = 0.
    The first sojourn's exponential also gives the first bit, 1 when
    ``E < -log1p(-p)`` (probability p).  Given the bit, the exponential's
    uniform ``1 - exp(-E)`` rescaled within its side of p is again uniform,
    and the first sojourn uses its exponential.

    The sojourns come in rounds of ``_draws_per_round``; a walk whose round
    ends short of n continues from its last flip in the next.  A group reads
    each round with one ``rng.standard_exponential`` call.  The round's walks
    end at the first that falls short: the stream is rewound to the end of
    that walk's sojourns, and the next round begins with its continuation,
    so the stream is read exactly as by the walks one at a time.  A leave
    probability of 0 (keep = 1) makes an infinite sojourn, clipped at n: the
    first bit is kept for the whole walk.
    """
    scalar = np.ndim(p) == 0
    p = np.atleast_1d(np.asarray(p, dtype=np.float64))
    keep = np.atleast_1d(np.asarray(keep, dtype=np.float64))
    draws = _draws_per_round(n, p, keep)
    up_below = -np.log1p(-p)
    # the sojourn scale leaving 1 (row 0) and leaving 0 (row 1): inf at q = 0, 0 at q = 1
    q = (1.0 - keep) * np.array((1.0 - p, p))
    with np.errstate(divide="ignore"):
        scale = 1.0 / -np.log1p(-q)
    up = np.zeros(len(p), dtype=bool)
    reach = np.zeros(len(p), dtype=np.int64)
    counts = np.zeros(len(p), dtype=np.int64)
    flips = []
    walk, started = 0, False  # the first walk not done, and whether it has its first bit
    rounds = 0
    while True:
        rounds += 1
        take = draws[walk:]
        ends = np.cumsum(take)
        state = rng.bit_generator.state
        length = rng.standard_exponential(ends[-1])
        # each new walk's first bit, and its first sojourn's exponential
        heads = (ends - take)[started:]
        new = slice(walk + started, None)
        e = length[heads]
        is_up = e < up_below[new]
        up[new] = is_up
        first_e = e - up_below[new]
        np.log1p(np.expm1(-e) / p[new], out=first_e, where=is_up)
        np.negative(first_e, out=first_e, where=is_up)
        # the scale of each sojourn's state: the first bit's, then the other's
        pair = np.where(up[walk:], scale[:, walk:], scale[::-1, walk:])
        # 0 * inf (E = 0 at keep = 1) is NaN, which fmin takes to n
        with np.errstate(invalid="ignore"):
            length *= np.repeat(pair.T, take // 2, axis=0).ravel()
            length[heads] = first_e * pair[0, started:]
        np.fmin(length, n, out=length)
        sojourns = length.view(np.int64)
        np.floor(length, out=sojourns, casting="unsafe")
        sojourns += 1
        at, below = kernels.group_flips(sojourns, take, n, reach[walk:])
        short = np.flatnonzero(below == take)
        done = len(take) if short.size == 0 else int(short[0]) + 1
        kept = int(below[:done].sum())
        flips.append(at[:kept])
        counts[walk : walk + done] += below[:done]
        if short.size == 0:
            break
        walk += done - 1
        reach[walk] = at[kept - 1]
        started = True
        # rewind the stream to just after the short walk's sojourns
        rng.bit_generator.state = state
        rng.standard_exponential(ends[done - 1])
    flips = flips[0] if len(flips) == 1 else np.concatenate(flips)
    return (bool(up[0]), flips) if scalar else (up, flips, counts, rounds)


# no longer called; kept while perfbench's WRAPPED lists it (ROADMAP item 1)
def _pairwise_sum(arrays: list[np.ndarray]) -> np.ndarray:
    while len(arrays) > 1:
        merged = [arrays[i] + arrays[i + 1] for i in range(0, len(arrays) - 1, 2)]
        if len(arrays) % 2:
            merged.append(arrays[-1])
        arrays = merged
    return arrays[0]


def _groups(draws: list[int]):
    """(start, stop) of each run of consecutive walks drawing at most _ROUND_BUDGET sojourns.

    The draws are each walk's first round; a walk that draws more is a run of its own.
    """
    start, total = 0, 0
    for i, d in enumerate(draws):
        if total + d > _ROUND_BUDGET and i > start:
            yield start, i
            start, total = i, 0
        total += d
    yield start, len(draws)


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
    stats = {"solve_s": 0.0, "solve_passes": 0}
    ps, keeps = walk_parameters(mode, u, model, stats)
    t1 = time.perf_counter()

    flip_counts = np.empty(n_paths, dtype=np.int64)
    values = np.zeros(n_steps + 1, dtype=np.float64)
    d2 = values[1:]
    draws = _draws_per_round(n_steps, ps, keeps)
    rounds = 0
    for b, rng in enumerate(rngs):
        lo = b * _BLOCK
        for start, stop in _groups(draws[lo : lo + _BLOCK].tolist()):
            walks = slice(lo + start, lo + stop)
            up, flips, flip_counts[walks], taken = _walk_levels(rng, n_steps, ps[walks], keeps[walks])
            standardized_levels(d2, up, flips, ps[walks], flip_counts[walks])
            rounds += taken
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
        "sojourn_rounds": rounds,
        "p": _spread(ps),
        "keep": _spread(keeps),
        "params_s": t1 - t0,
        "target_s": t1 - t0 - stats["solve_s"],
        "solve_s": stats["solve_s"],
        "solve_passes": stats["solve_passes"],
        "walk_s": t2 - t1,
        "elapsed_s": t2 - t0,
        "throughput_steps_per_s": steps / (t2 - t0) if t2 > t0 else float("inf"),
    }
    return AggregatedPath(
        h=model.h,
        n_steps=n_steps,
        n_paths=n_paths,
        values=values,
        meta=meta,
    )
