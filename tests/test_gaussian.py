import math
import tracemalloc

import numpy as np
import pytest

from fbmwalk import (
    HurstModel,
    cholesky_fbm,
    dichotomized_gaussian_walk,
    fbm_covariance,
    fgn_autocovariance,
    n_step_correlation,
    phi_from_tetrachoric,
)
from fbmwalk.gaussian import _autocovariance_row, fgn_cholesky_factor

from conftest import acf_known_mean, replicate_se


def _bulk_fgn(model, n, draws, seed):
    """draws x n exact fGn samples from one circulant factor, as one batched FFT."""
    s = fgn_cholesky_factor(model, n)
    z = np.random.default_rng(seed).standard_normal((2, draws, 2 * n))
    return np.fft.fft(s * (z[0] + 1j * z[1]), axis=1)[:, :n].real


# ---------------------------------------------------------------- circulant oracle


def test_factor_reproduces_covariance():
    # the draw is the linear map z -> Re fft(s * (z0 + i z1))[:n] of 4n iid
    # normals; its Gram matrix A A^T is the covariance of the law it samples
    n = 256
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    for h in (0.51, 0.7, 0.99):
        model = HurstModel(h)
        toeplitz = np.array([fgn_autocovariance(m, h) for m in range(n)])[lags]
        s = fgn_cholesky_factor(model, n)
        columns = np.fft.fft(np.eye(2 * n), axis=0)[:n] * s
        a = np.hstack((columns.real, (1j * columns).real))
        assert np.abs(a @ a.T - toeplitz).max() <= 1e-10, h
        # and the library's draw is that map applied to its generator's normals
        z = np.random.default_rng(3).standard_normal((2, 2 * n))
        fgn = np.diff(cholesky_fbm(model, n, 3)) * n**h
        assert np.allclose(fgn, a @ z.ravel(), rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 4096, 100_000, 1 << 20])
def test_embedding_eigenvalues_nonnegative(n):
    for h in np.linspace(0.51, 0.99, 25):
        s = fgn_cholesky_factor(HurstModel(float(h)), n)
        assert s.shape == (2 * n,) and np.all(np.isfinite(s))


def test_autocovariance_row_matches_scalar_and_mpmath():
    mpmath = pytest.importorskip("mpmath")
    lags = [1, 2, 3, 10, 1000, 12_345, 100_000, 999_999, 1_000_000]
    for h in (0.51, 0.7, 0.989, 0.999):
        row = _autocovariance_row(h, lags[-1])
        assert row[0] == 1.0
        small = np.array([fgn_autocovariance(m, h) for m in range(65)])
        assert np.abs(row[:65] - small).max() <= 1e-12
        e = mpmath.mpf(2 * h)
        with mpmath.workdps(40):
            exact = [float(((k + 1) ** e + mpmath.mpf(k - 1) ** e - 2 * mpmath.mpf(k) ** e) / 2) for k in lags]
        # the difference of three powers is off by ~1e-5 at k = 1e6, H = 0.989
        assert np.abs(row[lags] - exact).max() <= 1e-9, h


def test_oracle_memory_is_linear_in_n():
    n = 1 << 16
    tracemalloc.start()
    try:
        cholesky_fbm(HurstModel(0.7), n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 8 * n, peak / (8 * n)


def test_path_shape_and_origin(model_07):
    path = cholesky_fbm(model_07, 32, seed=1)
    assert path.shape == (33,)
    assert path[0] == 0.0


def test_brownian_increments_uncorrelated():
    # H=1/2 is outside HurstModel's range by design; check the H->1/2 limit
    m = HurstModel(0.5001)
    fgn = _bulk_fgn(m, 128, 2000, seed=2)
    corr = np.array([acf_known_mean(row, 0.0, 1)[0] for row in fgn])
    se = replicate_se(corr)
    assert abs(np.mean(corr) - fgn_autocovariance(1, 0.5001)) <= 3 * se
    assert abs(np.mean(corr)) <= 0.002


def test_midpoint_covariance_matches_formula(model_07):
    # Cov(B(1/2), B(1)) over many draws vs (t^2H + s^2H - |t-s|^2H)/2
    draws = 100_000
    fgn = _bulk_fgn(model_07, 2, draws, seed=3)
    paths = np.cumsum(fgn, axis=1) / 2.0**0.7
    prod = paths[:, 0] * paths[:, 1]
    se = float(np.std(prod, ddof=1) / math.sqrt(draws))
    assert abs(float(np.mean(prod)) - fbm_covariance(0.5, 1.0, 0.7)) <= 3 * se


def test_unit_variance_at_t1(model_07):
    draws = 100_000
    fgn = _bulk_fgn(model_07, 16, draws, seed=4)
    endpoint = np.cumsum(fgn, axis=1)[:, -1] / 16.0**0.7
    sq = endpoint**2
    se = float(np.std(sq, ddof=1) / math.sqrt(draws))
    assert abs(float(np.mean(sq)) - 1.0) <= 3 * se


def test_sample_covariance_matrix_entrywise(model_07):
    n, draws = 16, 100_000
    fgn = _bulk_fgn(model_07, n, draws, seed=5)
    paths = np.cumsum(fgn, axis=1) / n**0.7
    emp = paths.T @ paths / draws
    grid = (np.arange(1, n + 1)) / n
    theory = np.array([[fbm_covariance(s, t, 0.7) for t in grid] for s in grid])
    # moment standard error per entry, 4 SE bound
    for i in range(n):
        for j in range(n):
            prod = paths[:, i] * paths[:, j]
            se = float(np.std(prod, ddof=1) / math.sqrt(draws))
            assert abs(emp[i, j] - theory[i, j]) <= 4 * se


def test_factor_size_check(model_07):
    with pytest.raises(ValueError):
        fgn_cholesky_factor(model_07, 0)


def test_determinism(model_07):
    a = cholesky_fbm(model_07, 64, seed=9)
    b = cholesky_fbm(model_07, 64, seed=9)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------- dichotomized walk


def test_dichotomized_marginal(model_07):
    n, reps = 1024, 32
    factor = fgn_cholesky_factor(model_07, n)
    rng = np.random.default_rng(6)
    props = []
    for _ in range(reps):
        steps = dichotomized_gaussian_walk(model_07, 0.3, n, rng, factor=factor)
        props.append(float(np.mean(steps == 1)))
    se = replicate_se(props)
    assert abs(np.mean(props) - 0.3) <= 3 * se


@pytest.mark.parametrize("p,h", [(0.5, 0.55), (0.3, 0.7), (0.5, 0.7), (0.2, 0.85), (0.45, 0.6)])
def test_dichotomized_lag1_matches_link(p, h):
    """The thresholded exact-fGn walk realises the lag-1 phi coefficient."""
    model = HurstModel(h)
    n, reps = 1024, 48
    factor = fgn_cholesky_factor(model, n)
    rng = np.random.default_rng(int(1000 * p) + int(100 * h))
    mu = 2.0 * p - 1.0
    vals = []
    for _ in range(reps):
        steps = dichotomized_gaussian_walk(model, p, n, rng, factor=factor)
        vals.append(acf_known_mean(steps, mu, 1)[0])
    se = replicate_se(vals)
    predicted = float(n_step_correlation(p, model, 1))
    assert abs(np.mean(vals) - predicted) <= 4 * se


def test_dichotomized_lag2_true_vs_stated_law(model_07):
    """Lag-2: the true value uses the lag-2 fGn tetrachoric, not a power law.

    The dichotomised walk's lag-2 correlation is the phi coefficient at
    delta_2; the geometric n-step law overstates persistence.  Both gaps are
    measured; only the true prediction must match.
    """
    p, n, reps = 0.3, 1024, 64
    m = model_07
    factor = fgn_cholesky_factor(m, n)
    rng = np.random.default_rng(7)
    vals = []
    for _ in range(reps):
        steps = dichotomized_gaussian_walk(m, p, n, rng, factor=factor)
        vals.append(acf_known_mean(steps, 2.0 * p - 1.0, 2)[1])
    se = replicate_se(vals)
    mean = float(np.mean(vals))
    true_pred = float(phi_from_tetrachoric(p, fgn_autocovariance(2, m.h)))
    stated_pred = float(n_step_correlation(p, m, 2))
    assert abs(mean - true_pred) <= 4 * se, (mean, true_pred, se)
    gap_true = abs(mean - true_pred)
    gap_stated = abs(mean - stated_pred)
    assert gap_stated > gap_true  # the geometric law is measurably worse
    assert steps.dtype == np.int64 and steps.shape == (n,)  # the oracle returns its steps


def test_dichotomized_p_domain(model_07):
    with pytest.raises(ValueError):
        dichotomized_gaussian_walk(model_07, 0.0, 64, seed=0)
