import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from fbmwalk import (
    HurstModel,
    fbm_covariance,
    fgn_autocovariance,
    one_step_fgn_correlation,
    scaling_constant,
    theoretical_mixture_correlation,
)


def mixture_integral(n: int, h: float) -> float:
    """Quadrature of (1-H) 2^(3-2H) (2v-1)^n (1-v)^(1-2H) over [1/2, 1].

    The endpoint singularity at v=1 is removed by substituting
    u = (1-v)^(2-2H), which leaves a smooth integrand on [0, (1/2)^(2-2H)].
    """
    e = 2.0 - 2.0 * h

    def integrand(u):
        v = 1.0 - u ** (1.0 / e)
        return (2.0 * v - 1.0) ** n

    val, _ = integrate.quad(integrand, 0.0, 0.5**e, epsabs=1e-12, epsrel=1e-12, limit=200)
    return 2.0**e * val


# ---------------------------------------------------------------- covariance


def test_variance_property():
    assert fbm_covariance(1.0, 1.0, 0.7) == pytest.approx(1.0, abs=1e-15)
    for t in (0.25, 1.0, 3.7):
        for h in (0.55, 0.7, 0.85):
            assert fbm_covariance(t, t, h) == pytest.approx(t ** (2 * h), rel=1e-14)


def test_brownian_covariance_is_min():
    for s, t in ((0.2, 0.9), (1.0, 1.0), (2.5, 7.0)):
        assert fbm_covariance(s, t, 0.5) == pytest.approx(min(s, t), abs=1e-14)


def test_covariance_value_07():
    assert fbm_covariance(1.0, 2.0, 0.7) == pytest.approx(2.0**1.4 / 2.0, abs=1e-12)
    assert fbm_covariance(1.0, 2.0, 0.7) == pytest.approx(1.3195079107728942, abs=1e-12)


def test_covariance_symmetric_and_domain():
    assert fbm_covariance(0.3, 1.7, 0.6) == fbm_covariance(1.7, 0.3, 0.6)
    with pytest.raises(ValueError):
        fbm_covariance(-1.0, 1.0, 0.7)
    with pytest.raises(ValueError):
        fbm_covariance(1.0, 1.0, 1.2)


# ---------------------------------------------------------------- autocovariance


def test_fgn_lag0_unit():
    for h in (0.51, 0.7, 0.99):
        assert fgn_autocovariance(0, h) == pytest.approx(1.0, abs=1e-15)


def test_fgn_brownian_uncorrelated():
    for m in (1, 2, 17):
        assert fgn_autocovariance(m, 0.5) == pytest.approx(0.0, abs=1e-14)


def test_fgn_lag1_07():
    assert fgn_autocovariance(1, 0.7) == pytest.approx((2.0**1.4 - 2.0) / 2.0, abs=1e-14)


def test_fgn_negative_lag_rejected():
    with pytest.raises(ValueError):
        fgn_autocovariance(-1, 0.7)


def test_fgn_sum_reproduces_fbm_variance():
    # Var(B(n)) from unit increments: sum_{i,j} autocov(|i-j|) = n^2H
    for h in (0.55, 0.7, 0.85):
        for n in (2, 16, 64, 256):
            lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
            row = np.array([fgn_autocovariance(m, h) for m in range(n)])
            total = row[lags].sum()
            assert total == pytest.approx(n ** (2 * h), rel=1e-8)


# ---------------------------------------------------------------- one-step correlation


def test_one_step_limits():
    assert one_step_fgn_correlation(0.5) == pytest.approx(0.0, abs=1e-15)
    assert one_step_fgn_correlation(1.0) == pytest.approx(1.0, abs=1e-15)


def test_one_step_085():
    assert one_step_fgn_correlation(0.85) == pytest.approx((2.0**1.7 - 2.0) / 2.0, abs=1e-14)
    assert one_step_fgn_correlation(0.85) == pytest.approx(0.624504792712471, abs=1e-12)


def test_one_step_monotone_and_bounded():
    hs = np.linspace(0.505, 0.995, 100)
    vals = [one_step_fgn_correlation(h) for h in hs]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------- scaling constant


def test_scaling_constant_075():
    # Gamma(1.5) = sqrt(pi)/2, so a = sqrt(0.75/sqrt(pi))
    assert scaling_constant(0.75) == pytest.approx(math.sqrt(0.75 / math.sqrt(math.pi)), abs=1e-12)


def test_scaling_constant_vanishes_at_half():
    assert scaling_constant(0.5 + 1e-9) < 1e-4


def test_scaling_constant_07_via_quadrature():
    gamma_16, _ = integrate.quad(lambda t: t**0.6 * math.exp(-t), 0.0, 200.0, epsabs=1e-13)
    assert scaling_constant(0.7) == pytest.approx(math.sqrt(0.28 / gamma_16), rel=1e-10)


def test_scaling_constant_domain():
    for h in (0.5, 1.0, 0.3):
        with pytest.raises(ValueError):
            scaling_constant(h)


# ---------------------------------------------------------------- mixture correlation


def test_mixture_r1_075_exact():
    assert theoretical_mixture_correlation(1, 0.75) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_mixture_equals_integral_on_grid():
    for h in np.linspace(0.55, 0.95, 10):
        for n in (1, 2, 3, 5, 8, 16, 32, 64):
            assert theoretical_mixture_correlation(n, h) == pytest.approx(
                mixture_integral(n, h), abs=1e-8
            )


def test_mixture_large_n_asymptotic():
    h = 0.75
    a2 = scaling_constant(h) ** 2
    n = 10_000
    asym = h * (2 * h - 1) / (a2 * n ** (2 - 2 * h))
    assert theoretical_mixture_correlation(n, h) / asym == pytest.approx(1.0, abs=0.01)


def test_mixture_positive_decreasing():
    for h in (0.55, 0.7, 0.85):
        vals = [theoretical_mixture_correlation(n, h) for n in range(1, 50)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_mixture_no_overflow_large_n():
    v = theoretical_mixture_correlation(10**7, 0.9)
    assert 0.0 < v < 1.0


# ---------------------------------------------------------------- model


def test_model_derived_fields():
    m = HurstModel(0.7)
    assert m.delta1 == pytest.approx((2.0**1.4 - 2.0) / 2.0, abs=1e-14)
    assert m.a_h == pytest.approx(scaling_constant(0.7), abs=1e-15)
    assert 0.0 < m.delta1 < 1.0


def test_model_rejects_out_of_range():
    for h in (0.5, 1.0, 0.2, 1.3):
        with pytest.raises(ValueError):
            HurstModel(h)


def test_model_derived_fields_not_arguments():
    # delta1 and a_h follow from h; passing them would be silently overwritten
    with pytest.raises(TypeError):
        HurstModel(0.7, delta1=0.99, a_h=5.0)  # type: ignore[call-arg]


def test_model_immutable():
    m = HurstModel(0.6)
    with pytest.raises(Exception):
        m.h = 0.7  # type: ignore[misc]


@given(st.floats(0.501, 0.999))
def test_model_invariants_hold(h):
    m = HurstModel(h)
    assert m.delta1 == pytest.approx((2.0 ** (2 * h) - 2.0) / 2.0, rel=1e-12)
    assert m.a_h > 0.0
