import numpy as np
import pytest

from fbmwalk import HurstModel, cholesky_fbm, dsod_hurst, aggregated_variance_hurst, empirical_acf
from fbmwalk.estimators import (
    DegeneratePathError,
    InsufficientLengthError,
    estimate_report,
)
from fbmwalk._kernels import expand_steps
from fbmwalk.gaussian import fgn_cholesky_factor

from conftest import replicate_se


def _oracle_paths(h: float, n: int, seeds, scale=True):
    """Exact fBm paths drawn from one circulant factor."""
    model = HurstModel(h)
    factor = fgn_cholesky_factor(model, n)
    paths = [cholesky_fbm(model, n, s, factor=factor) for s in seeds]
    return paths if scale else [path * n**h for path in paths]


# ---------------------------------------------------------------- dsod


def test_dsod_degenerate_on_affine_path():
    # binary-exact slope so second differences vanish exactly
    with pytest.raises(DegeneratePathError):
        dsod_hurst(1.5 + 0.25 * np.arange(64, dtype=np.float64))


def test_dsod_length_check():
    with pytest.raises(InsufficientLengthError):
        dsod_hurst(np.zeros(15))


def test_dsod_unbiased_on_exact_fbm_07():
    ests = [dsod_hurst(p) for p in _oracle_paths(0.7, 4096, range(30))]
    assert abs(np.mean(ests) - 0.7) <= 0.03


def test_dsod_brownian_case():
    # iid Gaussian increments: the H=1/2 reference case
    rng = np.random.default_rng(123)
    ests = []
    for _ in range(30):
        path = np.concatenate(([0.0], np.cumsum(rng.standard_normal(4096))))
        ests.append(dsod_hurst(path))
    assert abs(np.mean(ests) - 0.5) <= 0.03


def test_dsod_affine_invariance():
    path = _oracle_paths(0.7, 1024, [7])[0]
    base = dsod_hurst(path)
    assert dsod_hurst(5.0 - 3.0 * path) == pytest.approx(base, abs=1e-12)
    assert dsod_hurst(1e6 * path) == pytest.approx(base, abs=1e-12)


def test_dsod_scale_free_in_time_normalisation():
    raw = _oracle_paths(0.85, 2048, [3], scale=False)[0]
    assert dsod_hurst(raw) == pytest.approx(dsod_hurst(raw / 2048**0.85), abs=1e-12)


# ---------------------------------------------------------------- aggregated variance


def test_aggvar_brownian():
    rng = np.random.default_rng(9)
    ests = []
    for _ in range(30):
        path = np.concatenate(([0.0], np.cumsum(rng.standard_normal(4096))))
        ests.append(aggregated_variance_hurst(path))
    assert abs(np.mean(ests) - 0.5) <= 0.05


def test_aggvar_exact_fbm_085():
    ests = [aggregated_variance_hurst(p) for p in _oracle_paths(0.85, 4096, range(30))]
    assert abs(np.mean(ests) - 0.85) <= 0.05


def test_aggvar_constant_increments_degenerate():
    assert aggregated_variance_hurst(np.arange(512, dtype=np.float64)) == 1.0


def test_aggvar_length_check():
    with pytest.raises(InsufficientLengthError):
        aggregated_variance_hurst(np.zeros(255))


# ---------------------------------------------------------------- estimator bias scan


def test_bias_scan_both_estimators():
    """Mean absolute bias across H in {0.55,...,0.9} on exact paths (30 seeds).

    The bias is averaged over the H grid; the aggregated-variance estimator
    is individually low-biased near H = 0.9 (grand-mean removal under strong
    long memory), which the grid mean absorbs.
    """
    dsod_bias, aggv_bias = [], []
    for h in np.round(np.arange(0.55, 0.91, 0.05), 2):
        paths = _oracle_paths(float(h), 4096, range(30))
        dsod_bias.append(abs(np.mean([dsod_hurst(p) for p in paths]) - h))
        aggv_bias.append(abs(np.mean([aggregated_variance_hurst(p) for p in paths]) - h))
    assert np.mean(dsod_bias) <= 0.03, f"dsod biases: {dsod_bias}"
    assert np.mean(aggv_bias) <= 0.05, f"aggvar biases: {aggv_bias}"


# ---------------------------------------------------------------- acf


def test_acf_white_noise_bounds():
    rng = np.random.default_rng(17)
    x = rng.choice([-1.0, 1.0], size=1_000_000)
    acf = empirical_acf(x, 10)
    assert np.all(np.abs(acf) < 4.0 / np.sqrt(x.shape[0]))


def test_acf_persistent_walk_law():
    # fixed persistence 0.75: increments correlate as (2 rho - 1)^n = 0.5^n
    from fbmwalk.aggregate import _walk_levels

    rng = np.random.default_rng(18)
    reps = 20
    rows = []
    for _ in range(reps):
        inc = expand_steps(*_walk_levels(rng, 50_000, 0.5, 0.5), 50_000)
        rows.append(empirical_acf(inc.astype(np.float64), 5))
    rows = np.array(rows)
    mean = rows.mean(axis=0)
    law = 0.5 ** np.arange(1, 6)
    for k in range(5):
        se = replicate_se(rows[:, k])
        assert abs(mean[k] - law[k]) <= 4 * se


def test_acf_insufficient_length():
    with pytest.raises(InsufficientLengthError):
        empirical_acf(np.ones(99), 10)


def test_acf_zero_variance():
    with pytest.raises(DegeneratePathError):
        empirical_acf(np.ones(1000), 5)


# ---------------------------------------------------------------- report


def test_estimate_report_roundtrip():
    path = _oracle_paths(0.7, 1024, [2])[0]
    rep = estimate_report(path, max_lag=10)
    d = rep.as_dict()
    assert d["n_used"] == 1025
    assert len(d["acf"]) == 10
    assert -1.0 <= min(d["acf"]) and max(d["acf"]) <= 1.0
