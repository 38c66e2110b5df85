"""The sojourn kernel and the walk's draws must match plain scalar expansions."""

import numpy as np

import fbmwalk._kernels as kernels
from fbmwalk._kernels import expand_steps
from fbmwalk.aggregate import _walk_levels


INT64_MAX = np.iinfo(np.int64).max


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
        flips = kernels.renewal_flips(sojourns, n, start)
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
    assert kernels.renewal_flips(sojourns, n).tolist() == [3]
    assert kernels.renewal_flips(sojourns, n, 10).tolist() == [13]
    assert kernels.renewal_flips(np.full(3, INT64_MAX), n).size == 0


def test_walk_edge_parameters_match_scalar_expansion():
    # keep = 1 draws no sojourn; a leave probability of 1e-300 draws one
    # sojourn of 2^63 - 1 steps; keep = 0 flips at every redraw
    for p, keep in ((0.3, 1.0), (0.5, 1.0), (1e-300, 0.0), (1e-300, 0.5), (0.5, 0.0), (0.3, 0.0)):
        for seed in range(20):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            up, flips = _walk_levels(a, 300, p, keep)
            steps = expand_steps(up, flips, 300)
            if keep == 1.0 or p == 1e-300:
                # at most one sojourn is drawn, so the unbatched draw gives the same bytes
                assert np.array_equal(steps, scalar_walk(b, 300, p, keep))
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
