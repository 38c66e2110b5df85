import math

import numpy as np
import pytest
from scipy import integrate

from fbmwalk import (
    InfeasiblePolicy,
    density_p,
    feasibility_threshold,
    n_step_correlation,
    persistence_from_p,
    sigma_max,
    target_from_uniform,
)
from fbmwalk.sampling import (
    P_FLOOR,
    InfeasibleTargetError,
    InfeasibleUniformError,
    PSample,
    _draw_target,
    solve_p_batch,
)


def solve_one(target: float, model) -> float:
    return float(solve_p_batch(np.array([target]), model)[0])


def draw_p(rng, model, policy=InfeasiblePolicy.RESAMPLE) -> PSample:
    """One marginal draw as generate_fbm makes it: target draw, then batch solve."""
    u, target, count = _draw_target(rng, model, policy, sigma_max(model))
    p = solve_one(target, model)
    return PSample(u=u, target=target, p=p, rho=float(persistence_from_p(p, model)), resampled_count=count)

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


def test_sample_resample_counts_deterministic(model_07):
    rng = np.random.default_rng(7)
    counts = [draw_p(rng, model_07).resampled_count for _ in range(200)]
    rng = np.random.default_rng(7)
    counts2 = [draw_p(rng, model_07).resampled_count for _ in range(200)]
    assert counts == counts2
    assert sum(counts) > 0  # u_max ~ 0.13, so rejections must occur


def test_sample_clamp_policy(model_07):
    # find a seed whose first uniform is infeasible, then clamp must give p = 1/2
    for seed in range(100):
        u = float(np.random.default_rng(seed).random())
        if u > feasibility_threshold(model_07):
            s = draw_p(np.random.default_rng(seed), model_07, InfeasiblePolicy.CLAMP)
            assert s.p == pytest.approx(0.5, abs=1e-8)
            assert s.u == u
            return
    pytest.fail("no infeasible first draw among 100 seeds")


def test_sample_error_policy(model_07):
    for seed in range(100):
        u = float(np.random.default_rng(seed).random())
        if u > feasibility_threshold(model_07):
            with pytest.raises(InfeasibleUniformError):
                draw_p(np.random.default_rng(seed), model_07, InfeasiblePolicy.ERROR)
            return
    pytest.fail("no infeasible first draw among 100 seeds")


def test_sample_invariants(model_07):
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = draw_p(rng, model_07)
        assert 0.0 < s.p <= 0.5
        assert abs(float(n_step_correlation(s.p, model_07, 1)) - s.target) <= 1e-9 or s.p == P_FLOOR
        assert 0.5 < s.rho < 1.0


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

    Under resampling, accepted u is uniform on (0, u_max), so the CDF of p is
    F(sigma1(p)) / u_max with F(s) = 1 - (1-s)^(2-2H).  Draws use the batch
    solver (the identical code path generate_fbm takes).
    """
    m = model_07
    rng = np.random.default_rng(99)
    n = 100_000
    u_max = feasibility_threshold(m)
    us = rng.random(int(n / u_max * 1.15) + 1000)
    us = us[us <= u_max][:n]
    assert us.shape[0] == n
    targets = np.array([target_from_uniform(float(u), m) for u in us])
    ps = solve_p_batch(targets, m)

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
