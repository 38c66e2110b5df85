"""The sojourn kernel and the walk's draws must match plain scalar expansions."""

import math
import types
import warnings

import numpy as np
import pytest
from scipy import stats

import fbmwalk._kernels as kernels
from fbmwalk._kernels import expand_steps
from fbmwalk.aggregate import _draws_per_round, _walk_levels


INT64_MAX = np.iinfo(np.int64).max


def one_walk_flips(sojourns, n, start=0):
    """``group_flips`` for one walk, its sojourns clipped at n + 1 as ``_walk_levels`` clips them.

    A geometric draw at a vanishing leave probability can be 2^63 - 1.
    """
    return kernels.group_flips(np.minimum(sojourns, n + 1), np.array([len(sojourns)]), n, np.array([start]))[0]


def scalar_expansion(up, sojourns, n, start=0):
    """The +-1 steps from ``start`` to n: each sojourn repeats a sign, then it flips."""
    sign = 1 if up else -1
    steps = []
    for length in sojourns:
        for _ in range(min(length, n)):  # a sojourn cannot outlast the walk
            steps.append(sign)
            if start + len(steps) == n:
                return np.array(steps, dtype=np.int64)
        sign = -sign
    raise AssertionError("the sojourns end before step n")


def scalar_walk(rng, n, p, keep):
    """One walk drawn one sojourn at a time: the first bit, then geometric sojourns.

    The sojourn draws here are unbatched, so this matches the stream of
    ``_walk_levels`` in law, not in bytes.
    """
    up = rng.random() < p
    leave = {True: (1.0 - keep) * (1.0 - p), False: (1.0 - keep) * p}
    sojourns, bit, reach = [], up, 0
    while reach < n:
        length = n if leave[bit] == 0.0 else int(rng.geometric(leave[bit]))
        sojourns.append(length)
        reach += min(length, n)
        bit = not bit
    return scalar_expansion(up, sojourns, n)


def _check_against_scalar(rng, draw_p_keep):
    for _ in range(40):
        n = int(rng.integers(1, 200))
        start = int(rng.integers(0, n))
        p, keep = draw_p_keep()
        leave = (1.0 - keep) * np.array([1.0 - p, p])
        # sojourns alternate in the states' leave probabilities; 0 stands in
        # for a state never left (keep = 1), drawn as the longest sojourn
        q = np.where(leave > 0.0, leave, 1.0)
        sojourns = rng.geometric(np.tile(q, n))
        sojourns[np.tile(leave == 0.0, n)] = INT64_MAX
        flips = one_walk_flips(sojourns, n, start)
        assert np.all(np.diff(flips) > 0) and np.all((flips > start) & (flips < n))
        assert np.array_equal(expand_steps(True, flips - start, n - start), scalar_expansion(True, sojourns, n, start))


def test_paper_matches_scalar_reference():
    # paper: (p, rho(p)), rho in (1/2, 1)
    rng = np.random.default_rng(0)
    _check_against_scalar(rng, lambda: (float(rng.uniform(0.001, 0.5)), float(rng.uniform(0.5, 0.999))))


def test_matched_matches_scalar_reference():
    # low keep, at points (p, sigma1(p)) of the phi-coefficient law, sigma1 below sigma_max < 1
    rng = np.random.default_rng(1)
    _check_against_scalar(rng, lambda: (float(rng.uniform(0.001, 0.5)), float(rng.uniform(0.0, 0.45))))


def test_enriquez_matches_scalar_reference():
    # enriquez: (1/2, 2 rho - 1), rho in [1/2, 1]
    rng = np.random.default_rng(2)
    _check_against_scalar(rng, lambda: (0.5, 2.0 * float(rng.uniform(0.5, 0.999)) - 1.0))


def test_keep_extremes_match_scalar_reference():
    # keep 0 redraws every step, keep 1 never leaves the first bit
    rng = np.random.default_rng(3)
    for keep in (0.0, 1.0):
        _check_against_scalar(rng, lambda: (float(rng.uniform(0.001, 0.999)), keep))


def test_huge_sojourns_do_not_wrap():
    # geometric(q) for q below ~1e-20 returns 2^63 - 1; the prefix sum of
    # clipped sojourns stays below 2^63 and the walk ends at the first of them
    n = 50
    sojourns = np.array([3, INT64_MAX, INT64_MAX, 4], dtype=np.int64)
    assert one_walk_flips(sojourns, n).tolist() == [3]
    assert one_walk_flips(sojourns, n, 10).tolist() == [13]
    assert one_walk_flips(np.full(3, INT64_MAX), n).size == 0


def test_walk_edge_parameters_match_scalar_expansion():
    # keep = 1 makes sojourns of infinite scale; a leave probability of
    # 1e-300 makes one far longer than the walk; keep = 0 flips at every redraw
    for p, keep in ((0.3, 1.0), (0.5, 1.0), (1e-300, 0.0), (1e-300, 0.5), (0.5, 0.0), (0.3, 0.0)):
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            up, flips = _walk_levels(a, 300, p, keep)
            steps = expand_steps(up, flips, 300)
            if keep == 1.0 or p == 1e-300:
                # no flip: every step has the first bit's sign, 1 when the
                # stream's first exponential is below -log1p(-p)
                first = b.standard_exponential() < -math.log1p(-p)
                assert np.array_equal(steps, np.full(300, 1 if first else -1))
                assert flips.size == 0
            assert set(np.unique(steps)) <= {-1, 1}


def test_walk_levels_law_matches_scalar_walk():
    # batched and unbatched sojourn draws: the same flip-count law at keep 0, 1/2, 0.9
    for p, keep in ((0.5, 0.0), (0.3, 0.5), (0.1, 0.9)):
        rng = np.random.default_rng(5)
        event = [np.count_nonzero(np.diff(expand_steps(*_walk_levels(rng, 400, p, keep), 400))) for _ in range(400)]
        scalar = [np.count_nonzero(np.diff(scalar_walk(rng, 400, p, keep))) for _ in range(400)]
        se = np.sqrt(np.var(event, ddof=1) / 400 + np.var(scalar, ddof=1) / 400)
        assert abs(np.mean(event) - np.mean(scalar)) <= 4 * se
        assert abs(np.mean(event) - 399 * 2 * (1 - keep) * p * (1 - p)) <= 4 * np.std(event) / np.sqrt(400)


def test_levels_are_valid_walks():
    rng = np.random.default_rng(4)
    for p, keep in ((0.3, 0.7), (0.25, 0.2), (0.5, 0.6)):
        up, flips = _walk_levels(rng, 500, p, keep)
        steps = expand_steps(up, flips, 500)
        assert steps.shape == (500,)
        assert set(np.unique(steps)) <= {-1, 1}
        assert steps[0] == (1 if up else -1)


# ---------------------------------------------------------------- group draws


@pytest.mark.parametrize("q", [1e-6, 0.05, 0.5, 0.95])
def test_sojourns_are_geometric(q):
    # the first ten sojourns of each walk, those in state 1 (left with
    # probability q), against geometric(q) by chi-square over about 20
    # equiprobable bins; n is a thousand mean sojourns of either state, so
    # none of the ten is cut at n
    p, keep = (0.5, 1.0 - 2.0 * q) if q <= 0.5 else (1.0 - q, 0.0)
    n = int(1000 / min(q, (1.0 - keep) * p))
    rng = np.random.default_rng(17)
    lengths = []
    for _ in range(10):
        up, flips, counts, _ = _walk_levels(rng, n, np.full(200, p), np.full(200, keep))
        assert np.all(counts >= 10)
        first = np.cumsum(counts) - counts
        ends = flips[first[:, None] + np.arange(10)]
        sojourns = np.diff(ends, axis=1, prepend=0)
        # a walk's odd sojourns are in its first bit's state
        lengths.append(np.where(up[:, None], sojourns[:, 0::2], sojourns[:, 1::2]).ravel())
    lengths = np.concatenate(lengths)
    edges = np.unique(np.ceil(np.log1p(-np.arange(1, 20) / 20) / np.log1p(-q)))
    probs = np.diff(np.concatenate(([0.0], 1.0 - (1.0 - q) ** edges, [1.0])))
    observed = np.bincount(np.searchsorted(edges, lengths), minlength=len(probs))
    assert stats.chisquare(observed, probs * len(lengths)).pvalue > 1e-3


def test_keep_one_never_flips():
    # keep = 1 leaves neither state: sojourns of infinite scale, clipped at
    # n, with no NaN or overflow reaching the flips
    rng = np.random.default_rng(11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        up, flips, counts, rounds = _walk_levels(rng, 1000, np.array([0.3, 0.5, 0.9]), np.ones(3))
    assert flips.size == 0 and np.all(counts == 0) and rounds == 1


def _zero_exponentials():
    """A stream whose every exponential is exactly 0."""
    return types.SimpleNamespace(
        bit_generator=types.SimpleNamespace(state=None),
        standard_exponential=lambda size: np.zeros(size),
    )


def test_zero_exponential_makes_unit_sojourns():
    # E = 0 gives the shortest sojourn, 1 step, never 0: every step flips and
    # the flips stay strictly increasing; at keep = 1 it is still no flip
    n = 300
    up, flips, counts, _ = _walk_levels(_zero_exponentials(), n, np.array([0.2, 0.5, 0.5]), np.array([0.5, 0.9, 1.0]))
    assert np.all(up)
    assert counts.tolist() == [n - 1, n - 1, 0]
    assert np.array_equal(flips, np.tile(np.arange(1, n), 2))


def test_mixed_group_reads_the_stream_as_its_walks_alone():
    # walks that flip often, rarely and never share one group; at n = 3000 a
    # (p, keep) = (0.05, 0) walk's round falls short now and then, so the
    # group also continues walks.  It gives the walks the same draws, bit for
    # bit, as the same walks drawn one at a time, and each kind flips at its
    # stationary rate 2 (1-keep) p (1-p) per step
    n = 3000
    kinds = np.array([(0.05, 0.0), (0.3, 0.9), (0.5, 1.0), (0.4, 0.6)])
    p, keep = np.tile(kinds, (100, 1)).T
    up, flips, counts, rounds = _walk_levels(np.random.default_rng(7), n, p, keep)
    rng = np.random.default_rng(7)
    alone = [_walk_levels(rng, n, float(pi), float(ki)) for pi, ki in zip(p, keep)]
    assert up.tolist() == [u for u, _ in alone]
    assert np.array_equal(flips, np.concatenate([f for _, f in alone]))
    assert counts.tolist() == [len(f) for _, f in alone]
    draws = _draws_per_round(n, p, keep)
    assert np.any(counts >= draws)
    # one round, and one more per round that a walk used up without reaching n
    assert rounds == 1 + int(np.sum(counts // draws))
    for j, (pj, kj) in enumerate(kinds):
        c = counts[j::4]
        expected = (n - 1) * 2.0 * (1.0 - kj) * pj * (1.0 - pj)
        assert abs(c.mean() - expected) <= 4.0 * max(c.std(ddof=1), 1e-12) / math.sqrt(len(c))
