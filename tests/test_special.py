import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr

from fbmwalk.link import _phi2_excess
from fbmwalk.special import bvn_cdf_excess_diag, std_normal_cdf, std_normal_quantile

# ---------------------------------------------------------------- oracles


def normal_cdf_series(x: float) -> float:
    """Taylor-series normal integral: 1/2 + phi(x) * sum x^(2n+1)/(2n+1)!!."""
    term = x
    acc = x
    n = 0
    while abs(term) > 1e-18 * max(1.0, abs(acc)):
        n += 1
        term *= x * x / (2 * n + 1)
        acc += term
        if n > 500:
            break
    return 0.5 + math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * acc


def quantile_bisect(p: float) -> float:
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if normal_cdf_series(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bvn_conditional_quad(h: float, k: float, r: float) -> float:
    """Phi2 via quadrature of phi(x) * Phi((k - r x)/sqrt(1-r^2)) on (-inf, h]."""
    s = math.sqrt(1.0 - r * r)

    def integrand(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * ndtr((k - r * x) / s)

    val, _ = integrate.quad(integrand, -9.0, h, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def bvn_density_dblquad(h: float, k: float, r: float) -> float:
    s2 = 1.0 - r * r

    def density(y, x):
        return math.exp(-(x * x - 2 * r * x * y + y * y) / (2 * s2)) / (2 * math.pi * math.sqrt(s2))

    val, _ = integrate.dblquad(density, -8.5, h, -8.5, k, epsabs=1e-11)
    return val


# ---------------------------------------------------------------- normal cdf


def test_cdf_at_zero():
    assert std_normal_cdf(0.0) == 0.5


def test_cdf_saturates():
    assert abs(std_normal_cdf(40.0) - 1.0) <= 1e-15
    assert std_normal_cdf(-40.0) >= 0.0


def test_cdf_against_series_oracle():
    # includes the 0.975-quantile point
    for x in (-6.0, -3.2, -1.0, -0.1, 0.3, 1.959964, 4.5, 6.0):
        assert std_normal_cdf(x) == pytest.approx(normal_cdf_series(x), abs=1e-14)
    assert abs(std_normal_cdf(1.959964) - 0.975) <= 1e-9


def test_cdf_scalar_and_array_agree_and_match_libm_erfc():
    # one array code path: a scalar call gives the same bits as the array
    # element; both are 0.5 erfc(-x / sqrt 2) of libm to 1e-15 relative while
    # the value is a normal double, and to a few subnormal ulps below that
    xs = np.concatenate(([0.0, -0.0, 0.46875 * math.sqrt(2.0), 4.0 * math.sqrt(2.0)], np.linspace(-38.0, 38.0, 40_001)))
    xs = np.concatenate((xs, -xs, np.nextafter(xs, np.inf)))
    got = std_normal_cdf(xs)
    assert isinstance(std_normal_cdf(0.3), float)
    assert all(std_normal_cdf(float(x)) == g for x, g in zip(xs[::37], got[::37]))
    ref = np.array([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in xs])
    normal = ref >= np.finfo(np.float64).tiny
    assert np.max(np.abs(got - ref)[normal] / ref[normal]) <= 4e-15
    assert np.max(np.abs(got - ref)[~normal]) <= 1e-322
    assert std_normal_cdf(-38.0) > 0.0 and std_normal_cdf(38.0) == 1.0


@given(st.floats(-8, 8), st.floats(-8, 8))
def test_cdf_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert std_normal_cdf(lo) <= std_normal_cdf(hi)


# ---------------------------------------------------------------- quantile


def test_quantile_median():
    assert std_normal_quantile(0.5) == 0.0


def test_quantile_against_bisection_oracle():
    assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    for p in (1e-6, 0.01, 0.3, 0.77, 0.999):
        assert std_normal_quantile(p) == pytest.approx(quantile_bisect(p), abs=1e-10)


def test_quantile_antisymmetry():
    # moderate p only: near p=0 the complement 1-p rounds at ulp(1)/2, which the
    # tail quantile derivative (1/phi) amplifies far beyond 1e-12
    for p in (1e-4, 0.0137, 0.137, 0.42):
        assert std_normal_quantile(p) == pytest.approx(-std_normal_quantile(1.0 - p), abs=1e-12)


def test_quantile_domain():
    for bad in (0.0, 1.0, -0.3, 1.7, float("nan")):
        with pytest.raises(ValueError):
            std_normal_quantile(bad)
        with pytest.raises(ValueError):
            std_normal_quantile(np.array([0.5, bad]))


def test_roundtrip_cdf_quantile():
    # quantile(cdf(x)) = x to 1e-10; above x ~ 5 the rounding of cdf values near
    # 1 destroys the tail information (ulp(1)/phi(x) > 1e-10), so the upper tail
    # is exercised through its exactly-representable mirror image
    for x in np.linspace(-6, 5, 221):
        assert std_normal_quantile(std_normal_cdf(x)) == pytest.approx(x, abs=1e-10)
    for x in np.linspace(5, 6, 21):
        assert -std_normal_quantile(std_normal_cdf(-x)) == pytest.approx(x, abs=1e-10)


def test_roundtrip_quantile_cdf():
    rng = np.random.default_rng(11)
    for p in rng.uniform(1e-10, 1 - 1e-10, 300):
        assert std_normal_cdf(std_normal_quantile(p)) == pytest.approx(p, abs=1e-12)


def test_quantile_vec_matches_scalar():
    # an array call and one scalar call per entry give the same bits
    ps = np.random.default_rng(5).uniform(1e-12, 1 - 1e-12, 3000)
    vec = std_normal_quantile(ps)
    scl = [std_normal_quantile(float(p)) for p in ps]
    assert all(type(v) is float for v in scl)
    assert np.array_equal(vec, np.array(scl))


@given(st.floats(1e-9, 1 - 1e-9), st.floats(1e-9, 1 - 1e-9))
def test_quantile_strictly_increasing(a, b):
    # inputs closer than the quantile's resolution may share one double
    # (1e-9 and the next double up both give -5.9978070150076865), so the
    # order is asserted only between inputs a relative 1e-12 apart
    lo, hi = min(a, b), max(a, b)
    if hi - lo > 1e-12 * hi:
        assert std_normal_quantile(lo) < std_normal_quantile(hi)


# ---------------------------------------------------------------- bivariate cdf


def bvn_diag(z, r: float) -> float:
    """Phi2(z, z, r) through the one bivariate route the library has."""
    return std_normal_cdf(z) ** 2 + bvn_cdf_excess_diag(z, r)


def test_bvn_independence_factorises():
    rng = np.random.default_rng(2)
    zs = rng.uniform(-4, 4, 50)
    assert np.array_equal(bvn_cdf_excess_diag(zs, 0.0), np.zeros(50))
    for z in zs:
        assert bvn_cdf_excess_diag(float(z), 0.0) == 0.0
        assert bvn_diag(float(z), 0.0) == pytest.approx(std_normal_cdf(z) * std_normal_cdf(z), abs=1e-14)


def test_bvn_median_closed_form():
    assert bvn_diag(0.0, 0.0) == pytest.approx(0.25, abs=1e-15)
    # quadrant probability 1/4 + asin(r)/(2 pi)
    for r in (-0.9, -0.31, 0.1, 0.319508, 0.77, 0.99):
        assert bvn_diag(0.0, r) == pytest.approx(0.25 + math.asin(r) / (2 * math.pi), abs=1e-12)
    assert bvn_diag(0.0, 0.319508) == pytest.approx(0.30175881507555125, abs=1e-9)


def test_bvn_against_conditional_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(250):
        z = rng.uniform(-4.5, 4.5)
        r = rng.uniform(-0.99, 0.99)
        assert bvn_diag(z, r) == pytest.approx(bvn_conditional_quad(z, z, r), abs=1e-8)
    # the high correlations of H near 1 (delta1 >= 0.925 once H >= 0.9725),
    # and one negative correlation past -0.925, at 1e-13
    for r in (0.93, 0.97, 0.99, 0.999, -0.95):
        for z in (-5.0, -3.2, -1.0, -0.2, 0.0, 0.7, 2.5):
            assert bvn_diag(z, r) == pytest.approx(bvn_conditional_quad(z, z, r), abs=1e-13)


def test_bvn_against_density_dblquad():
    rng = np.random.default_rng(4)
    for _ in range(12):
        z = rng.uniform(-3, 3)
        r = rng.uniform(-0.95, 0.95)
        assert bvn_diag(z, r) == pytest.approx(bvn_density_dblquad(z, z, r), abs=1e-8)


def test_bvn_monotone_in_each_argument():
    rng = np.random.default_rng(6)
    for _ in range(100):
        z = rng.uniform(-4, 4)
        r = rng.uniform(-0.9, 0.9)
        assert bvn_diag(z, r) <= bvn_diag(z + 0.3, r) + 1e-15
    # diagonal monotone in r, across the whole open interval
    for r in np.linspace(-0.9, 0.94, 30):
        assert bvn_diag(0.7, r) <= bvn_diag(0.7, r + 0.05) + 1e-15


def test_bvn_survival_identity():
    # P(Z1>z, Z2>z) = Phi2(-z,-z,r) = 1 - 2 Phi(z) + Phi2(z,z,r)
    rng = np.random.default_rng(7)
    for _ in range(40):
        z = rng.uniform(-3, 3)
        r = rng.uniform(-0.9, 0.9)
        identity = 1.0 - 2.0 * std_normal_cdf(z) + bvn_diag(z, r)
        assert bvn_diag(-z, r) == pytest.approx(identity, abs=1e-10)
    # equal-margin form used by the persistence derivation:
    # P(Z1>z, Z2>z) = Phi2(z,z,delta) - 2p + 1
    for p in (0.01, 0.2, 0.5, 0.9):
        z = std_normal_quantile(p)
        for delta in (0.0718, 0.3195, 0.6245, 0.9453):
            assert bvn_diag(-z, delta) == pytest.approx(bvn_diag(z, delta) - 2.0 * p + 1.0, abs=1e-10)


def test_bvn_domain():
    # the one correlation-domain check sits where the link layer calls the route
    for r in (-1.0, 1.0, 1.5, float("nan")):
        with pytest.raises(ValueError):
            _phi2_excess(0.5, r)


def test_bvn_deep_tail_positive():
    # p near 0 probes the joint lower tail; values must stay positive and tiny
    v = bvn_diag(-5.6, 0.319508)
    assert 0.0 < v < 1e-9
    assert bvn_cdf_excess_diag(-5.6, 0.319508) > 0.0


def test_bvn_excess_diag_matches_direct():
    # excess against adaptive quadrature of the same single integral
    rng = np.random.default_rng(8)
    for r in (0.05, 0.32, 0.62, 0.9, 0.93, 0.97, 0.99, 0.999):
        p = rng.uniform(1e-6, 1 - 1e-6, 50)
        z = std_normal_quantile(p)
        exc = bvn_cdf_excess_diag(z, r)
        direct = np.array(
            [
                integrate.quad(
                    lambda t, zi=zi: math.exp(-zi * zi / (1.0 + math.sin(t))),
                    0.0,
                    math.asin(r),
                    epsabs=0.0,
                    epsrel=2e-14,
                )[0]
                / (2.0 * math.pi)
                for zi in z
            ]
        )
        assert np.max(np.abs(exc - direct) / direct) < 1e-13
        assert np.all(exc >= 0.0)
