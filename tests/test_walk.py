import math

import numpy as np
import pytest

import fbmwalk._kernels as kernels
from fbmwalk import (
    HurstModel,
    InfeasiblePolicy,
    generate_fbm,
    n_step_correlation,
    persistence_from_p,
    renewal_keep,
)
from fbmwalk.aggregate import _walk_levels
from fbmwalk.sampling import InfeasibleUniformError
from fbmwalk.walk import draw_persistence

from conftest import replicate_se


def chain_corr_enumeration(p: float, rho: float) -> float:
    """Brute-force lag-1 correlation of the renewal recursion.

    Enumerates the eight (previous, persistence-gate, refresh) outcomes with
    the stationary marginal for `previous`.
    """
    e_xy = 0.0
    for prev in (0, 1):
        w_prev = p if prev == 1 else 1.0 - p
        for keep in (0, 1):
            w_keep = rho if keep == 1 else 1.0 - rho
            for fresh in (0, 1):
                w_fresh = p if fresh == 1 else 1.0 - p
                nxt = prev if keep else fresh
                e_xy += w_prev * w_keep * w_fresh * prev * nxt
    var = p * (1.0 - p)
    return (e_xy - p * p) / var


# ---------------------------------------------------------------- paper kernel


def test_paper_kernel_pure_persistence():
    # rho = 1 never renews, so every step repeats the first one
    for seed in range(20):
        rng = np.random.default_rng(seed)
        steps = np.diff(kernels.renewal_levels(rng.random(64), 0.3, 1.0), prepend=0)
        assert np.all(steps == steps[0])


def test_paper_kernel_marginal(model_07):
    p, rho = 0.3, 0.6035176001781586
    reps, n = 24, 40_000
    rng = np.random.default_rng(8)
    means = []
    for _ in range(reps):
        inc = np.diff(kernels.renewal_levels(rng.random(n), p, rho), prepend=0)
        means.append(float(np.mean(inc == 1)))
    se = replicate_se(means)
    assert abs(np.mean(means) - p) <= 3 * se


# ---------------------------------------------------------------- generation


def test_single_step_trajectory():
    # N = 1: the kernel returns the single first step, +-1, at each mode's (p, keep)
    for p, keep in ((0.3, 0.7), (0.3, 0.2), (0.5, 0.5)):
        levels = _walk_levels(np.random.default_rng(5), 1, p, keep)
        assert levels.shape == (1,)
        assert levels[0] in (-1, 1)


def test_trajectory_determinism(model_07):
    for mode in ("paper", "matched", "enriquez"):
        a = generate_fbm(model_07, 512, 1, mode=mode, seed=123)
        b = generate_fbm(model_07, 512, 1, mode=mode, seed=123)
        assert np.array_equal(a.values, b.values)
        assert a.meta["resample_total"] == b.meta["resample_total"]


def test_trajectory_parity_invariant(model_07):
    for mode in ("paper", "matched", "enriquez"):
        p = 0.5 if mode == "enriquez" else 0.3
        keep = float(renewal_keep(mode, p, model_07, persistence=0.75))
        levels = _walk_levels(np.random.default_rng(9), 257, p, keep)
        k = np.arange(1, 258)
        assert np.all((levels - k) % 2 == 0)
        assert set(np.unique(np.diff(levels, prepend=0))) <= {-1, 1}


def test_trajectory_error_policy_propagates(model_07):
    raised = False
    for seed in range(50):
        try:
            generate_fbm(model_07, 8, 1, policy=InfeasiblePolicy.ERROR, seed=seed)
        except InfeasibleUniformError:
            raised = True
            break
    assert raised  # u_max ~ 0.13: an infeasible first draw appears quickly


def test_enriquez_persistence_law(model_07):
    # inverse-CDF draws against the closed-form CDF 1 - (2(1-rho))^(2-2H)
    rng = np.random.default_rng(21)
    n = 100_000
    rhos = np.sort([draw_persistence(rng, model_07) for _ in range(n)])
    assert rhos[0] >= 0.5 and rhos[-1] <= 1.0
    model_cdf = 1.0 - (2.0 * (1.0 - rhos)) ** (2.0 - 2.0 * model_07.h)
    empirical = np.arange(1, n + 1) / n
    ks = float(np.max(np.abs(empirical - model_cdf)))
    assert ks < 0.01


def test_enriquez_near_half_density_flattens():
    # as H -> 1/2+ the persistence density tends to uniform(1/2, 1)
    m = HurstModel(0.501)
    rng = np.random.default_rng(22)
    rhos = np.sort([draw_persistence(rng, m) for _ in range(100_000)])
    uniform_cdf = np.clip(2.0 * (rhos - 0.5), 0.0, 1.0)
    empirical = np.arange(1, 100_001) / 100_000
    assert float(np.max(np.abs(empirical - uniform_cdf))) < 0.015


def test_enriquez_trajectory_carries_persistence(model_07):
    # an enriquez trajectory draws its persistence first, then walks at p = 1/2,
    # where standardisation is the identity: one path is a_H X_k / N^H
    n = 16
    rng = np.random.default_rng(np.random.SeedSequence(3).spawn(2)[0])
    rho = draw_persistence(rng, model_07)
    assert 0.5 <= rho <= 1.0
    levels = kernels.renewal_levels(rng.random(n), 0.5, 2.0 * rho - 1.0)
    path = generate_fbm(model_07, n, 1, mode="enriquez", seed=3)
    assert np.array_equal(path.values[1:], model_07.a_h * levels / n**model_07.h)


# ---------------------------------------------------------------- chain lag law


def test_chain_lag_paper_median(model_07):
    v = renewal_keep("paper", 0.5, model_07)
    assert v == pytest.approx(0.6035176001781586, abs=1e-12)
    assert v == pytest.approx(float(persistence_from_p(0.5, model_07)), abs=1e-15)


def test_chain_lag_paper_matches_enumeration(model_07):
    for p in (0.05, 0.3, 0.5):
        rho = float(persistence_from_p(p, model_07))
        assert renewal_keep("paper", p, model_07) == pytest.approx(
            chain_corr_enumeration(p, rho), abs=1e-12
        )


def test_chain_lag_matched_is_phi(model_07):
    for p in (0.1, 0.3, 0.5):
        assert renewal_keep("matched", p, model_07) == pytest.approx(
            float(n_step_correlation(p, model_07, 1)), abs=1e-15
        )


def test_chain_lag_enriquez():
    m = HurstModel(0.7)
    assert renewal_keep("enriquez", 0.5, m, persistence=0.75) ** 3 == pytest.approx(
        0.125, abs=1e-15
    )
    with pytest.raises(ValueError):
        renewal_keep("enriquez", 0.5, m)


def test_empirical_lag_law_per_mode(model_07):
    """Lags 1..5 of each chain against its exact law, via replicate SE.

    The paper-mode walk must follow rho(p)^n, not the phi-coefficient power
    law it is nominally built to achieve; the matched mode follows the
    phi-coefficient law by construction.
    """
    from fbmwalk.estimators import empirical_acf

    p = 0.3
    rho = float(persistence_from_p(p, model_07))
    s1 = float(n_step_correlation(p, model_07, 1))
    reps, steps = 16, 62_500
    rng = np.random.default_rng(30)

    acc = {"paper": [], "matched": [], "enriquez": []}
    for _ in range(reps):
        u_paper, u = rng.random(steps), rng.random(steps)
        inc = np.diff(kernels.renewal_levels(u_paper, p, rho), prepend=np.int64(0))
        acc["paper"].append(empirical_acf(inc.astype(np.float64), 5))
        inc = np.diff(kernels.renewal_levels(u, p, s1), prepend=np.int64(0))
        acc["matched"].append(empirical_acf(inc.astype(np.float64), 5))
        inc = np.diff(kernels.renewal_levels(u, 0.5, 0.5), prepend=np.int64(0))  # rho = 0.75
        acc["enriquez"].append(empirical_acf(inc.astype(np.float64), 5))

    laws = {
        "paper": [rho**n for n in range(1, 6)],
        "matched": [s1**n for n in range(1, 6)],
        "enriquez": [0.5**n for n in range(1, 6)],
    }
    for mode, rows in acc.items():
        rows = np.array(rows)
        mean = rows.mean(axis=0)
        se = rows.std(axis=0, ddof=1) / math.sqrt(reps)
        z = np.abs(mean - laws[mode]) / se
        assert np.all(z <= 4.0), f"{mode}: z={z}"
    # paper mode demonstrably deviates from the phi-power law at lag 1
    paper_mean = np.array(acc["paper"]).mean(axis=0)
    stated = [s1**n for n in range(1, 6)]
    assert abs(paper_mean[0] - stated[0]) > 0.2


def test_stationary_marginal_all_modes(model_07):
    p = 0.3
    rho = float(persistence_from_p(p, model_07))
    s1 = float(n_step_correlation(p, model_07, 1))
    reps, steps = 16, 62_500
    rng = np.random.default_rng(31)
    for make in (
        lambda: kernels.renewal_levels(rng.random(steps), p, rho),
        lambda: kernels.renewal_levels(rng.random(steps), p, s1),
    ):
        props = []
        for _ in range(reps):
            inc = np.diff(make(), prepend=np.int64(0))
            props.append(float(np.mean(inc == 1)))
        se = replicate_se(props)
        assert abs(np.mean(props) - p) <= 4 * se
