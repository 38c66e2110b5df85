"""The vectorised renewal kernel must match a plain scalar loop of the recursion."""

import numpy as np

import fbmwalk._kernels as kernels


def scalar_renewal(u, p, keep):
    t1 = p + (1.0 - p) * keep
    t0 = p * (1.0 - keep)
    xi = 1 if u[0] < p else 0
    levels = []
    level = 0
    for i in range(len(u)):
        if i > 0:
            if u[i] < t0:
                xi = 1
            elif u[i] >= t1:
                xi = 0
        level += 2 * xi - 1
        levels.append(level)
    return np.array(levels, dtype=np.int64)


def _check_against_scalar(rng, draw_p_keep):
    for _ in range(40):
        n = int(rng.integers(1, 200))
        u = rng.random(n)
        p, keep = draw_p_keep()
        assert np.array_equal(kernels.renewal_levels(u, p, keep), scalar_renewal(u, p, keep))


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
    # keep 0 redraws every step, keep 1 never redraws after step 0
    rng = np.random.default_rng(3)
    for keep in (0.0, 1.0):
        _check_against_scalar(rng, lambda: (float(rng.uniform(0.001, 0.999)), keep))


def test_levels_are_valid_walks():
    rng = np.random.default_rng(4)
    u = rng.random(500)
    for p, keep in ((0.3, 0.7), (0.25, 0.2), (0.5, 0.6)):
        steps = np.diff(kernels.renewal_levels(u, p, keep), prepend=np.int64(0))
        assert set(np.unique(steps)) <= {-1, 1}
