import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmwalk import (
    HurstModel,
    generate_fbm,
    scaling_constant,
    theoretical_mixture_correlation,
)
from fbmwalk._kernels import expand_steps
from fbmwalk.aggregate import _pairwise_sum, _walk_levels, standardized_levels, walk_parameters
from fbmwalk.estimators import empirical_acf
from fbmwalk.validate import jarque_bera

from conftest import acf_known_mean

# ---------------------------------------------------------------- reduction


def test_accumulate_identity_and_linearity(model_07):
    karr = np.arange(1, 9, dtype=np.float64)
    # all-up walk at p=1/2: the standardized step is 1, so the level at step k is exactly k
    d2 = np.zeros(8)
    standardized_levels(d2, True, np.empty(0, dtype=np.int64), 0.5)
    up = np.cumsum(np.cumsum(d2))
    assert np.array_equal(up, karr)
    assert np.array_equal(_pairwise_sum([up]), up)  # a single trajectory is the identity
    assert np.array_equal(_pairwise_sum([up, up]), 2.0 * karr)
    assert np.array_equal(_pairwise_sum([up, up, up]), 3.0 * karr)


def test_finalize_single_step_constant():
    # at p = 1/2 a standardized step is +-1, so one trajectory's first value
    # is +-a_H / N^H: with N = 2, |B(1/2)| 2^H recovers the scaling constant
    m = HurstModel(0.75)
    path = generate_fbm(m, 2, 1, mode="enriquez", seed=0)
    assert path.values[0] == 0.0
    first = abs(path.values[1]) * 2.0**0.75
    assert first == pytest.approx(scaling_constant(0.75), abs=1e-15)
    assert first == pytest.approx(math.sqrt(0.75 / math.sqrt(math.pi)), abs=1e-12)


# ---------------------------------------------------------------- generate_fbm


def test_generated_path_shape_and_zero_start(model_07):
    path = generate_fbm(model_07, 64, 5, seed=1)
    assert path.values.shape == (65,)
    assert path.times.shape == (65,)
    assert path.values[0] == 0.0
    assert path.times[0] == 0.0 and path.times[-1] == 1.0


def test_same_seed_same_bytes(model_07):
    a = generate_fbm(model_07, 128, 16, seed=7)
    b = generate_fbm(model_07, 128, 16, seed=7)
    assert np.array_equal(a.values, b.values)


def test_worker_count_invariance(model_07):
    # M = 1100 spans 18 reduction blocks
    for mode, m_paths in (("paper", 25), ("enriquez", 25), ("paper", 1100)):
        ref = generate_fbm(model_07, 96, m_paths, mode=mode, seed=3, workers=1)
        for w in (2, 8):
            out = generate_fbm(model_07, 96, m_paths, mode=mode, seed=3, workers=w)
            assert np.array_equal(ref.values, out.values), (mode, m_paths, w)


@settings(max_examples=100, deadline=None)
@given(
    h=st.floats(0.55, 0.95),
    n=st.integers(2, 300),
    m=st.integers(1, 80),
    seed=st.integers(0, 2**64 - 1),
    mode=st.sampled_from(["paper", "enriquez"]),
    workers=st.sampled_from([2, 3]),
)
def test_worker_count_invariance_property(h, n, m, seed, mode, workers):
    # M up to 80 spans one full 64-trajectory reduction block and a partial one
    model = HurstModel(h)
    ref = generate_fbm(model, n, m, mode=mode, seed=seed, workers=1)
    out = generate_fbm(model, n, m, mode=mode, seed=seed, workers=workers)
    assert np.array_equal(ref.values, out.values)


def _standalone_sum(model, mode: str, n: int, m_paths: int, seed: int) -> np.ndarray:
    """The aggregate values at steps 1..n, rebuilt densely from the same events.

    The streams are consumed in the documented order: one child stream of
    the master seed per block of 64 trajectories, which gives first one
    uniform per trajectory of the block, then, trajectory by trajectory,
    each walk's first bit and sojourns.  The uniforms of all blocks are
    mapped to (p, keep) together.  Each walk is expanded to its +-1 steps,
    standardised in float64 and summed in trajectory order.
    """
    sizes = [min(64, m_paths - start) for start in range(0, m_paths, 64)]
    rngs = [np.random.Generator(np.random.PCG64(c)) for c in np.random.SeedSequence(seed).spawn(len(sizes))]
    ps, keeps = walk_parameters(mode, np.concatenate([rng.random(s) for rng, s in zip(rngs, sizes)]), model)
    walk_rngs = [rng for rng, s in zip(rngs, sizes) for _ in range(s)]
    k = np.arange(1, n + 1)
    total = np.zeros(n)
    for rng, p, keep in zip(walk_rngs, ps.tolist(), keeps.tolist()):
        levels = np.cumsum(expand_steps(*_walk_levels(rng, n, p, keep), n))
        # levels + k is exact; levels - k(2p - 1) keeps only ~8 digits at p ~ 5e-8
        total += ((levels + k) - 2.0 * p * k) / np.sqrt(4.0 * p * (1.0 - p))
    return model.a_h * total / (n**model.h * math.sqrt(m_paths))


def test_matches_standalone_trajectories(model_07):
    """The aggregate equals trajectories rebuilt one by one and summed in order.

    generate_fbm spawns one child stream of the master seed per block of 64
    trajectories.  The dense sum here differs from generate_fbm's scattered
    flips and prefix sums only by rounding (1e-12).
    """
    n, m_paths = 47, 9
    for mode in ("paper", "enriquez"):
        manual = _standalone_sum(model_07, mode, n, m_paths, seed=11)
        auto = generate_fbm(model_07, n, m_paths, mode=mode, seed=11)
        assert auto.values[0] == 0.0
        assert np.max(np.abs(manual - auto.values[1:])) <= 1e-12, mode


@settings(max_examples=60, deadline=None)
@given(
    h=st.floats(0.55, 0.95),
    n=st.integers(2, 2000),
    m=st.integers(1, 130),
    seed=st.integers(0, 2**64 - 1),
    mode=st.sampled_from(["paper", "enriquez"]),
)
def test_event_aggregate_matches_dense_expansion(h, n, m, seed, mode):
    # M up to 130 spans two full 64-trajectory blocks and a partial one
    model = HurstModel(h)
    dense = _standalone_sum(model, mode, n, m, seed)
    event = generate_fbm(model, n, m, mode=mode, seed=seed).values[1:]
    assert np.max(np.abs(event - dense)) <= 1e-10 * np.max(np.abs(dense))


@pytest.mark.parametrize("m", [1024, 4096])
def test_memory_does_not_grow_with_blocks(m):
    # every walk adds into the returned path, so 16 or 64 blocks hold the path and its times only
    n = 1 << 16
    generate_fbm(HurstModel(0.7), 2, 1)  # a first call imports numpy submodules, about 1.8 MB once
    tracemalloc.start()
    try:
        generate_fbm(HurstModel(0.7), n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 8 * n, peak / (8 * n)


def test_meta_records_run(model_07):
    path = generate_fbm(model_07, 64, 32, seed=9, workers=2)
    meta = path.meta
    assert meta["mode"] == "paper"
    assert meta["seed"] == 9
    assert meta["workers"] == 2
    assert meta["resample_total"] == 0
    assert meta["throughput_steps_per_s"] > 0
    assert meta["backend"] == "numpy"
    assert meta["stream_version"] == 8
    assert meta["flips_total"] > 0
    assert meta["flips_per_path"]["min"] <= meta["flips_per_path"]["median"] <= meta["flips_per_path"]["max"]
    assert 0.0 < meta["p"]["min"] <= meta["p"]["max"] <= 0.5
    assert 0.0 <= meta["keep"]["min"] <= meta["keep"]["max"] <= 1.0
    assert meta["params_s"] > 0 and meta["walk_s"] > 0


def test_config_validation(model_07):
    with pytest.raises(ValueError):
        generate_fbm(model_07, 1, 4)
    with pytest.raises(ValueError):
        generate_fbm(model_07, 16, 0)
    with pytest.raises(ValueError):
        generate_fbm(model_07, 16, 4, mode="wavelet")
    for workers in (0, -3):
        with pytest.raises(ValueError):
            generate_fbm(model_07, 16, 4, workers=workers)


# ---------------------------------------------------------------- statistics


def test_endpoint_variance_and_gaussianity(model_07):
    """Variance of B(1) near its pre-limit value, and CLT normality.

    The enriquez aggregate at H=0.7, N=2048 has theoretical endpoint variance
    a_H^2 (N + 2 sum (N-n) r(n)) / N^(2H) ~ 0.94; with 300 runs the sample
    variance must land within 15% of 1.
    """
    runs, n, m_paths = 300, 2048, 64
    endpoints = np.empty(runs)
    for i in range(runs):
        path = generate_fbm(model_07, n, m_paths, mode="enriquez", seed=10_000 + i)
        endpoints[i] = path.values[-1]
    var = float(np.var(endpoints, ddof=1))
    assert abs(var - 1.0) <= 0.15
    _, pval = jarque_bera(endpoints)
    assert pval >= 0.01


def test_aggregate_acf_enriquez_matches_mixture(model_07):
    """Lag-1..3 increment ACF of the enriquez aggregate vs the closed form.

    Centred at the known zero mean: sample-mean centring would shift a
    long-memory ACF down by Var(mean)/Var ~ n^(2H-2), several error bars here.
    """
    reps, n, m_paths = 12, 2048, 128
    rows = []
    for i in range(reps):
        path = generate_fbm(model_07, n, m_paths, mode="enriquez", seed=400 + i)
        rows.append(acf_known_mean(np.diff(path.values), 0.0, 3))
    rows = np.array(rows)
    mean = rows.mean(axis=0)
    se = rows.std(axis=0, ddof=1) / math.sqrt(reps)
    theory = [theoretical_mixture_correlation(k, 0.7) for k in (1, 2, 3)]
    z = np.abs(mean - theory) / se
    assert np.all(z <= 4.0), (mean, theory, z)


def test_aggregate_acf_paper_mode_reported_gap(model_07):
    """Paper-mode aggregate ACF sits far above the mixture law (documented gap)."""
    reps, n, m_paths = 8, 2048, 128
    rows = []
    for i in range(reps):
        path = generate_fbm(model_07, n, m_paths, mode="paper", seed=900 + i)
        rows.append(empirical_acf(np.diff(path.values), 1)[0])
    mean = float(np.mean(rows))
    r1 = theoretical_mixture_correlation(1, 0.7)
    assert mean > r1 + 0.1  # the renewal chain is much more persistent


def test_enriquez_endpoint_variance_closed_form():
    # against a_H^2 E[Var X_N] / N^(2H) by quadrature over the persistence
    # law (the check's growth constant L must equal 1 / a_H^2),
    # with Var X_N = N + 2 sum_k (N-k) l^k at keep l = 2 rho - 1, and rho
    # = 1 - w^(1/(2-2H)) / 2 for w uniform on [0, 1] (its inverse CDF)
    from scipy import integrate

    from fbmwalk.validate import _enriquez_endpoint_variance

    for h in (0.55, 0.7, 0.9):
        model = HurstModel(h)
        for n in (64, 512):
            k = np.arange(1, n)

            def var_levels(w):
                lam = 1.0 - w ** (1.0 / (2.0 - 2.0 * h))
                return n + 2.0 * float(np.dot(n - k, lam**k))

            ev, _ = integrate.quad(var_levels, 0.0, 1.0, limit=200)
            expected = model.a_h**2 * ev / n ** (2 * h)
            assert _enriquez_endpoint_variance(model, n) == pytest.approx(expected, rel=1e-8)
