import math

import numpy as np
import pytest
from scipy import integrate

from fbmwalk import (
    HurstModel,
    density_p,
    feasibility_threshold,
    n_step_correlation,
    persistence_from_p,
    sigma_max,
    target_from_uniform,
)
from fbmwalk.sampling import P_FLOOR, InfeasibleTargetError, _draw_target, solve_p_batch


def solve_one(target: float, model) -> float:
    return float(solve_p_batch(np.array([target]), model)[0])


def draw_p(rng, model) -> tuple[float, float, float]:
    """One marginal draw as generate_fbm makes it: (u, target, p)."""
    u = rng.random()
    target = float(_draw_target(np.array([u]), model)[0])
    return u, target, solve_one(target, model)

# ---------------------------------------------------------------- target map


def test_target_zero_at_zero(model_07):
    assert target_from_uniform(0.0, model_07) == 0.0


def test_target_tends_to_one(model_07):
    assert target_from_uniform(1.0 - 1e-12, model_07) > 1.0 - 1e-6


def test_target_frozen_value(model_07):
    # 1 - 0.95^(1/0.6), high-precision log/exp evaluation
    expected = -math.expm1(math.log1p(-0.05) / 0.6)
    assert target_from_uniform(0.05, model_07) == pytest.approx(expected, abs=1e-15)
    assert target_from_uniform(0.05, model_07) == pytest.approx(0.08193659670753133, abs=1e-12)


def test_target_strictly_increasing(model_07):
    us = np.linspace(0.0, 0.999, 500)
    ts = [target_from_uniform(float(u), model_07) for u in us]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_target_domain(model_07):
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            target_from_uniform(bad, model_07)


def test_feasibility_threshold_07(model_07):
    u_max = feasibility_threshold(model_07)
    assert u_max == pytest.approx(1.0 - (1.0 - sigma_max(model_07)) ** 0.6, abs=1e-14)
    assert u_max == pytest.approx(0.12993370432217338, abs=1e-12)
    # agrees with the 6-decimal rounded sigma_max to the stated coarse tolerance
    assert u_max == pytest.approx(1.0 - (1.0 - 0.207064) ** 0.6, abs=1e-4)


# ---------------------------------------------------------------- solve


def test_solve_at_sigma_max_returns_half(model_07, model_055, model_085):
    for m in (model_07, model_055, model_085):
        assert solve_one(sigma_max(m), m) == pytest.approx(0.5, abs=1e-8)


def test_solve_at_zero_returns_floor(model_07):
    p = solve_one(0.0, model_07)
    assert p <= P_FLOOR * (1.0 + 1e-12)
    # the floor is degenerate: the residual correlation there is small but
    # not arbitrarily small (phi decays slowly in p), ~3.6e-5 at H=0.7
    assert float(n_step_correlation(p, model_07, 1)) < 1e-4


def test_solve_regression_value(model_07):
    target = target_from_uniform(0.05, model_07)
    p = solve_one(target, model_07)
    assert p == pytest.approx(0.02732615399869065, abs=1e-10)
    assert float(n_step_correlation(p, model_07, 1)) == pytest.approx(target, abs=1e-10)


def test_solve_roundtrip_batch(model_07, model_055, model_085):
    rng = np.random.default_rng(20)
    for m in (model_07, model_055, model_085):
        s_floor = float(n_step_correlation(P_FLOOR, m, 1))
        targets = rng.uniform(s_floor, sigma_max(m), 1000)
        ps = solve_p_batch(targets, m)
        achieved = np.asarray(n_step_correlation(ps, m, 1))
        assert np.max(np.abs(achieved - targets)) <= 1e-9
        assert np.all(ps > 0.0) and np.all(ps <= 0.5)


def test_solve_monotone_in_target(model_07):
    targets = np.linspace(1e-4, sigma_max(model_07), 300)
    ps = solve_p_batch(targets, model_07)
    assert np.all(np.diff(ps) >= 0.0)


def test_solve_infeasible_target_raises(model_07):
    with pytest.raises(InfeasibleTargetError):
        solve_one(sigma_max(model_07) + 1e-6, model_07)


def test_solve_negative_target_raises(model_07):
    with pytest.raises(ValueError, match="nonnegative"):
        solve_p_batch(np.array([-0.1]), model_07)


def test_scalar_solve_matches_batch(model_07):
    # each target is solved independently of the others in its batch
    targets = np.array([0.01, 0.05, 0.1, 0.2])
    batch = solve_p_batch(targets, model_07)
    for t, pb in zip(targets, batch):
        assert solve_one(float(t), model_07) == pb


# ---------------------------------------------------------------- draw


def test_sample_deterministic(model_07):
    a = draw_p(np.random.default_rng(42), model_07)
    b = draw_p(np.random.default_rng(42), model_07)
    assert a == b


def test_largest_uniform_stays_solvable():
    # t(u u_max) at the largest uniform below 1 can land one ulp above
    # sigma_max (10 of these 2000 H values, e.g. H = 0.6746); the draw clamps
    # it, so the solve succeeds.  The solve runs where the unclamped map
    # overshoots and on every 20th H, as 2000 solves take ~30 s.
    u = np.array([np.nextafter(1.0, 0.0)])
    overshoots = 0
    for i, h in enumerate(np.linspace(0.501, 0.999, 2000)):
        m = HurstModel(float(h))
        s_max = sigma_max(m)
        target = _draw_target(u, m)
        assert target[0] <= s_max, h
        overshoot = target_from_uniform(u * feasibility_threshold(m), m)[0] > s_max
        overshoots += overshoot
        if overshoot or i % 20 == 0:
            assert solve_p_batch(target, m)[0] == pytest.approx(0.5, abs=1e-6), h
    assert overshoots > 0


def test_sample_invariants(model_07):
    rng = np.random.default_rng(3)
    for _ in range(100):
        _, target, p = draw_p(rng, model_07)
        assert 0.0 < p <= 0.5
        assert abs(float(n_step_correlation(p, model_07, 1)) - target) <= 1e-9 or p == P_FLOOR
        assert 0.5 < float(persistence_from_p(p, model_07)) < 1.0


# ---------------------------------------------------------------- density


def test_density_nonnegative_on_branch(model_07):
    for p in np.linspace(0.003, 0.499, 1000):
        assert density_p(float(p), model_07) >= 0.0


def test_density_integrates_to_feasibility_threshold(model_07, model_085):
    # quadrature over the branch + closed-form mass below the cut equals
    # 1 - (1 - sigma_max)^(2-2H)
    for m in (model_07, model_085):
        eps = 1e-4
        val, _ = integrate.quad(
            lambda p: density_p(p, m), eps, 0.5 - 1e-9, epsabs=1e-10, limit=400
        )
        tail = 1.0 - (1.0 - float(n_step_correlation(eps, m, 1))) ** (2.0 - 2.0 * m.h)
        assert val + tail == pytest.approx(feasibility_threshold(m), abs=1e-5)


@pytest.mark.parametrize("h", [0.55, 0.7, 0.85])
def test_density_is_the_exact_derivative_of_the_target_law(h):
    # on every panel the density integrates to F(sigma1(b)) - F(sigma1(a)),
    # F(s) = 1 - (1-s)^(2-2H), to near machine precision; a finite-difference
    # derivative leaves up to ~1e-9 relative here
    m = HurstModel(h)

    def target_cdf(q: float) -> float:
        return -math.expm1((2.0 - 2.0 * h) * math.log1p(-float(n_step_correlation(q, m, 1))))

    for a, b in ((1e-4, 0.01), (0.01, 0.3), (0.3, 0.5 - 1e-9)):
        val, _ = integrate.quad(lambda q: density_p(q, m), a, b, epsabs=1e-14, limit=400)
        assert val == pytest.approx(target_cdf(b) - target_cdf(a), rel=1e-12, abs=0.0), (a, b)


def test_density_mass_deficit_below_one(model_07, model_055, model_085):
    for m in (model_07, model_055, model_085):
        assert 0.0 < feasibility_threshold(m) < 1.0


def test_density_domain(model_07):
    with pytest.raises(ValueError):
        density_p(1e-9, model_07)
    with pytest.raises(ValueError):
        density_p(1.0, model_07)


def test_sampled_p_distribution_matches_truncated_law(model_07):
    """KS distance between sampled p and the renormalised solvable-branch law.

    The draw scales u onto [0, u_max), so the CDF of p is
    F(sigma1(p)) / u_max with F(s) = 1 - (1-s)^(2-2H).  Draws go through the
    map and the batch solver that generate_fbm calls.
    """
    m = model_07
    rng = np.random.default_rng(99)
    n = 100_000
    u_max = feasibility_threshold(m)
    ps = solve_p_batch(_draw_target(rng.random(n), m), m)

    ps_sorted = np.sort(ps)
    model_cdf = (
        1.0 - (1.0 - np.asarray(n_step_correlation(ps_sorted, m, 1))) ** (2.0 - 2.0 * m.h)
    ) / u_max
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    ks = max(
        float(np.max(np.abs(empirical_hi - model_cdf))),
        float(np.max(np.abs(empirical_lo - model_cdf))),
    )
    assert ks < 0.01
