import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr, ndtri

from fbmwalk import HurstModel, n_step_correlation, persistence_from_p, phi_from_tetrachoric, sigma_max
from fbmwalk.link import n_step_correlation_from_delta, persistence_from_tetrachoric
from fbmwalk.sampling import P_FLOOR


def phi_quadrature(p: float, delta: float) -> float:
    """Independent phi-coefficient oracle via conditional-normal quadrature."""
    z = ndtri(p)
    s = math.sqrt(1.0 - delta * delta)

    def integrand(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * ndtr((z - delta * x) / s)

    phi2, _ = integrate.quad(integrand, -10.0, z, epsabs=1e-13, epsrel=1e-13, limit=200)
    return (phi2 - p * p) / (p * (1.0 - p))


# ---------------------------------------------------------------- phi coefficient


def test_phi_zero_at_independence():
    for p in (0.01, 0.3, 0.5, 0.87):
        assert phi_from_tetrachoric(p, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_phi_median_closed_form():
    # (2/pi) asin(delta) at p = 1/2
    for delta in (0.0718, 0.319508, 0.6245):
        assert phi_from_tetrachoric(0.5, delta) == pytest.approx(
            2.0 / math.pi * math.asin(delta), abs=1e-12
        )
    assert phi_from_tetrachoric(0.5, 0.319508) == pytest.approx(0.20703526030220495, abs=1e-10)


def test_phi_attenuates_off_median():
    v_med = phi_from_tetrachoric(0.5, 0.319508)
    v_off = phi_from_tetrachoric(0.1, 0.319508)
    assert 0.0 < v_off < v_med
    assert v_off == pytest.approx(phi_quadrature(0.1, 0.319508), abs=1e-9)


def test_phi_against_quadrature_grid():
    for p in (0.02, 0.2, 0.45, 0.7, 0.98):
        for delta in (-0.5, 0.0718, 0.3195, 0.6245, 0.9):
            assert phi_from_tetrachoric(p, delta) == pytest.approx(
                phi_quadrature(p, delta), abs=1e-9
            )


def test_phi_bounded():
    rng = np.random.default_rng(1)
    ps = rng.uniform(0.001, 0.999, 200)
    for delta in (-0.7, 0.3, 0.9):
        vals = np.atleast_1d(phi_from_tetrachoric(ps, delta))
        assert np.all(vals >= -1.0) and np.all(vals <= 1.0)


def test_phi_domain():
    with pytest.raises(ValueError):
        phi_from_tetrachoric(0.0, 0.3)
    with pytest.raises(ValueError):
        phi_from_tetrachoric(0.5, 1.0)
    # every law derived from the tetrachoric shares its domain check
    for delta in (-1.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            persistence_from_tetrachoric(0.3, delta)
        for n in (1, 2):
            with pytest.raises(ValueError):
                n_step_correlation_from_delta(0.3, delta, n)


# ---------------------------------------------------------------- persistence


def test_persistence_brownian_limit():
    # delta = 0 gives rho = 2p^2 - 2p + 1; at the median, exactly 1/2
    assert persistence_from_tetrachoric(0.5, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_persistence_median_07(model_07):
    expected = 0.5 + math.asin(model_07.delta1) / math.pi
    assert persistence_from_p(0.5, model_07) == pytest.approx(expected, abs=1e-12)
    assert persistence_from_p(0.5, model_07) == pytest.approx(0.6035176001781586, abs=1e-12)


def test_persistence_tends_to_one_at_tiny_p(model_07, model_055, model_085):
    for m in (model_07, model_055, model_085):
        assert persistence_from_p(1e-8, m) == pytest.approx(1.0, abs=1e-6)


def test_persistence_range(model_07, model_055, model_085):
    ps = np.linspace(0.001, 0.999, 499)
    for m in (model_07, model_055, model_085):
        rho = np.atleast_1d(persistence_from_p(ps, m))
        assert np.all(rho > 0.5)
        assert np.all(rho < 1.0)


# ---------------------------------------------------------------- n-step correlation


def test_n_step_brownian_limit_lag1():
    for p in (0.1, 0.25, 0.5, 0.9):
        assert n_step_correlation_from_delta(p, 0.0, 1) == pytest.approx(0.0, abs=1e-14)


def test_n_step_brownian_can_go_negative():
    # ((2p-1)^4 - (2p-1)^2)/(4p(1-p)) at p=1/4: (0.0625-0.25)/0.75 = -0.25
    assert n_step_correlation_from_delta(0.25, 0.0, 2) == pytest.approx(-0.25, abs=1e-14)


def test_n_step_median_equals_phi(model_07):
    assert n_step_correlation(0.5, model_07, 1) == pytest.approx(
        phi_from_tetrachoric(0.5, model_07.delta1), abs=1e-14
    )
    assert n_step_correlation(0.5, model_07, 1) == pytest.approx(0.20703520035631712, abs=1e-12)


def test_n_step_consistency_identity(model_07, model_055, model_085):
    # sigma1 == (2 rho - 1 - (2p-1)^2) / (4p(1-p)) for random (p, H)
    rng = np.random.default_rng(10)
    for _ in range(1000):
        p = float(rng.uniform(0.001, 0.999))
        m = (model_07, model_055, model_085)[int(rng.integers(3))]
        rho = float(persistence_from_p(p, m))
        lhs = (2.0 * rho - 1.0 - (2.0 * p - 1.0) ** 2) / (4.0 * p * (1.0 - p))
        assert lhs == pytest.approx(float(n_step_correlation(p, m, 1)), abs=1e-10)


def test_n_step_symmetry_in_p(model_07):
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = float(rng.uniform(0.001, 0.5))
        for n in (1, 2, 3):
            assert float(n_step_correlation(p, model_07, n)) == pytest.approx(
                float(n_step_correlation(1.0 - p, model_07, n)), abs=1e-10
            )


def test_sigma1_strictly_increasing_on_branch(model_07, model_055, model_085):
    ps = np.linspace(1e-4, 0.5, 10_000)
    for m in (model_07, model_055, model_085):
        vals = np.atleast_1d(n_step_correlation(ps, m, 1))
        assert np.all(np.diff(vals) > 0.0)


def test_n_step_law_at_the_median_and_the_floor(model_07):
    # at n >= 2 the stated law is the walk's lag-n correlation (2 rho - 1)^n
    # only at p = 1/2; as p -> 0 it tends to 1 - n, no correlation for n >= 3
    rho = persistence_from_p(0.5, model_07)
    for n in range(2, 6):
        assert n_step_correlation(0.5, model_07, n) == pytest.approx((2.0 * rho - 1.0) ** n, rel=1e-14, abs=0.0)
        assert n_step_correlation(P_FLOOR, model_07, n) == pytest.approx(1.0 - n, abs=1e-3)


def test_n_step_rejects_bad_lag(model_07):
    with pytest.raises(ValueError):
        n_step_correlation(0.3, model_07, 0)


# ---------------------------------------------------------------- feasible range

# sigma1 is a correlation on the whole open interval for n = 1, so the
# feasible p-range is (0, 1); its maximum sigma_max sits at p = 1/2.


def grid_max(model, n: int, grid: int = 4001) -> float:
    ps = np.linspace(0.0, 1.0, grid + 2)[1:-1]
    return float(np.max(n_step_correlation(ps, model, n)))


def test_feasible_range_07(model_07):
    ps = np.linspace(0.0, 1.0, 4003)[1:-1]
    vals = np.asarray(n_step_correlation(ps, model_07, 1))
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    s_max = sigma_max(model_07)
    assert s_max == pytest.approx(2.0 / math.pi * math.asin(model_07.delta1), abs=1e-10)
    assert s_max == pytest.approx(0.20703520035631712, abs=1e-10)
    assert grid_max(model_07, 1) == pytest.approx(s_max, abs=1e-10)


def test_feasible_range_085(model_085):
    s_max = sigma_max(model_085)
    assert s_max == pytest.approx(2.0 / math.pi * math.asin(model_085.delta1), abs=1e-10)
    assert s_max == pytest.approx(0.42939833088354085, abs=1e-10)
    assert grid_max(model_085, 1) == pytest.approx(s_max, abs=1e-10)


def test_sigma_max_attained_at_median(model_07, model_055, model_085):
    for m in (model_07, model_055, model_085):
        s_max = sigma_max(m)
        assert s_max == pytest.approx(float(n_step_correlation(0.5, m, 1)), abs=1e-12)
        assert grid_max(m, 1) <= s_max
        assert grid_max(m, 1) == pytest.approx(s_max, abs=1e-10)


def test_feasible_range_nonnegative_everywhere(model_07):
    ps = np.linspace(1e-4, 1 - 1e-4, 10_000)
    vals = np.atleast_1d(n_step_correlation(ps, model_07, 1))
    assert np.all(vals >= 0.0)


def test_feasible_range_n2_is_subinterval(model_07):
    # lag-2 law dips negative away from the median in the weak-dependence
    # case, so its feasible set is a proper subinterval around p = 1/2
    m = HurstModel(0.51)
    ps = np.linspace(0.0, 1.0, 4003)[1:-1]
    vals = np.asarray(n_step_correlation(ps, m, 2))
    assert vals[0] < 0.0 and vals[-1] < 0.0
    ok = np.flatnonzero(vals >= 0.0)
    assert 0 < ok[0] and ok[-1] < len(ps) - 1
    assert np.all(vals[ok[0] : ok[-1] + 1] >= 0.0)  # one contiguous run
    at_median = float(n_step_correlation(0.5, m, 2))
    assert 0.0 <= at_median <= 1.0
    assert grid_max(m, 2) == pytest.approx(at_median, abs=1e-10)
