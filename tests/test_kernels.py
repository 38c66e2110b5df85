"""The vectorised kernels must match a plain scalar re-implementation of each
recursion."""

import numpy as np
import pytest

import fbmwalk._kernels as numpy_kernels

LANES = [numpy_kernels]  # one lane; parametrising keeps it named in the test ids


def scalar_paper(gate, val, p, rho):
    n = len(gate)
    xi = 1 if val[0] < p else 0
    levels = []
    level = 0
    for i in range(n):
        if i > 0 and gate[i] >= rho:
            xi = 1 if val[i] < p else 0
        level += 2 * xi - 1
        levels.append(level)
    return np.array(levels, dtype=np.int64)


def scalar_matched(u, p, s1):
    t1 = p + (1.0 - p) * s1
    t0 = p * (1.0 - s1)
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


def scalar_enriquez(u, rho):
    step = 1 if u[0] < 0.5 else -1
    levels = []
    level = 0
    for i in range(len(u)):
        if i > 0 and u[i] >= rho:
            step = -step
        level += step
        levels.append(level)
    return np.array(levels, dtype=np.int64)


@pytest.mark.parametrize("lane", LANES, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_paper_matches_scalar_reference(lane):
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(1, 200))
        gate, val = rng.random(n), rng.random(n)
        p, rho = float(rng.uniform(0.001, 0.5)), float(rng.uniform(0.5, 0.999))
        assert np.array_equal(lane.paper_levels(gate, val, p, rho), scalar_paper(gate, val, p, rho))


@pytest.mark.parametrize("lane", LANES, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_matched_matches_scalar_reference(lane):
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(1, 200))
        u = rng.random(n)
        p, s1 = float(rng.uniform(0.001, 0.5)), float(rng.uniform(0.0, 0.45))
        assert np.array_equal(lane.matched_levels(u, p, s1), scalar_matched(u, p, s1))


@pytest.mark.parametrize("lane", LANES, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_enriquez_matches_scalar_reference(lane):
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(1, 200))
        u = rng.random(n)
        rho = float(rng.uniform(0.5, 0.999))
        assert np.array_equal(lane.enriquez_levels(u, rho), scalar_enriquez(u, rho))


@pytest.mark.parametrize("lane", LANES, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_levels_are_valid_walks(lane):
    rng = np.random.default_rng(4)
    u = rng.random(500)
    for levels in (
        lane.paper_levels(rng.random(500), rng.random(500), 0.3, 0.7),
        lane.matched_levels(u, 0.25, 0.2),
        lane.enriquez_levels(u, 0.8),
    ):
        steps = np.diff(levels, prepend=np.int64(0))
        assert set(np.unique(steps)) <= {-1, 1}
