"""Runtime validation harness: measurable claims checked at configurable scale.

Each check returns a record with the measured values; hard checks gate the
CLI exit status, informational ones document the known gaps between the walk
modes and the target laws (the paper-mode lag law versus the phi-coefficient
law, aggregate correlations versus the mixture closed form, and the mass the
nominal density loses to infeasible uniforms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._kernels import expand_steps
from .aggregate import _walk_levels, generate_fbm
from .estimators import estimate_report
from .fgn import HurstModel, theoretical_mixture_correlation
from .gaussian import dichotomized_gaussian_walk, fgn_cholesky_factor
from .link import n_step_correlation, persistence_from_p, sigma_max
from .sampling import density_p, feasibility_threshold, solve_p_batch, target_from_uniform

__all__ = ["Check", "run_validation", "jarque_bera", "replicate_spread"]


@dataclass
class Check:
    name: str
    passed: bool
    hard: bool
    details: dict = field(default_factory=dict)


def jarque_bera(x: np.ndarray) -> tuple[float, float]:
    """Jarque-Bera statistic and its chi-square(2) p-value exp(-JB/2)."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    c = x - x.mean()
    m2 = float(np.mean(c**2))
    skew = float(np.mean(c**3)) / m2**1.5
    kurt = float(np.mean(c**4)) / m2**2
    jb = n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    return jb, math.exp(-jb / 2.0)


def _acf_known_mean(x: np.ndarray, mean: float, max_lag: int) -> np.ndarray:
    """ACF centred at the known process mean.

    Sample-mean centring (the reporting estimator in ``estimators``) biases
    long-memory ACFs by -Var(xbar)/Var(x); validation against exact chain
    laws must avoid that shift.
    """
    x = np.asarray(x, dtype=np.float64) - mean
    denom = float(np.dot(x, x))
    n = x.shape[0]
    return np.array([float(np.dot(x[: n - k], x[k:])) / denom for k in range(1, max_lag + 1)])


def _acf_with_se(
    walks: list[np.ndarray], mean_value: float, max_lag: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean known-mean ACF across replicates with cross-replicate standard error."""
    acfs = np.array([_acf_known_mean(w, mean_value, max_lag) for w in walks])
    mean = acfs.mean(axis=0)
    se = acfs.std(axis=0, ddof=1) / math.sqrt(acfs.shape[0])
    return mean, se


def _check_threshold(model: HurstModel) -> Check:
    s_max = sigma_max(model)
    u_max = feasibility_threshold(model)
    closed = 1.0 - (1.0 - s_max) ** (2.0 - 2.0 * model.h)
    return Check(
        name="feasibility_threshold",
        passed=abs(u_max - closed) < 1e-12,
        hard=True,
        details={"sigma_max": s_max, "u_max": u_max},
    )


def _check_roundtrip(model: HurstModel, rng: np.random.Generator, k: int = 200) -> Check:
    s_floor = float(n_step_correlation(1e-8, model, 1))
    targets = rng.uniform(s_floor, sigma_max(model), k)
    ps = solve_p_batch(targets, model)
    achieved = np.asarray(n_step_correlation(ps, model, 1))
    worst = float(np.max(np.abs(achieved - targets)))
    return Check(
        name="inversion_roundtrip",
        passed=worst <= 1e-9,
        hard=True,
        details={"targets": k, "max_abs_error": worst, "solvable_floor": s_floor},
    )


def _check_paper_chain_law(
    model: HurstModel, rng: np.random.Generator, steps: int, reps: int = 16
) -> Check:
    u = 0.4 * feasibility_threshold(model)  # a representative feasible draw
    target = float(target_from_uniform(u, model))
    p = float(solve_p_batch(np.array([target]), model)[0])
    rho = float(persistence_from_p(p, model))
    walks = []
    for _ in range(reps):
        walks.append(expand_steps(*_walk_levels(rng, steps, p, rho), steps))
    mean, se = _acf_with_se(walks, 2.0 * p - 1.0, 5)
    lag_law = rho ** np.arange(1, 6)  # a renewal chain decays as keep^n
    prop2 = np.array([float(n_step_correlation(p, model, n)) for n in range(1, 6)])
    z = np.abs(mean - lag_law) / se
    return Check(
        name="paper_chain_lag_law",
        passed=bool(np.all(z <= 4.0)),
        hard=True,
        details={
            "p": p,
            "rho": rho,
            "acf_measured": mean.tolist(),
            "acf_rho_power": lag_law.tolist(),
            "acf_stated_nstep_law": prop2.tolist(),
            "max_z": float(np.max(z)),
            "gap_vs_stated_law": (mean - prop2).tolist(),
        },
    )


def _check_aggregate_acf(
    model: HurstModel,
    mode: str,
    rng: np.random.Generator,
    n_steps: int,
    n_paths: int,
    reps: int,
) -> Check:
    r_theory = np.array([theoretical_mixture_correlation(n, model.h) for n in range(1, 6)])
    walks = []
    for _ in range(reps):
        path = generate_fbm(
            model, n_steps, n_paths, mode=mode, seed=int(rng.integers(2**63)), workers=1
        )
        walks.append(np.diff(path.values))
    mean, se = _acf_with_se(walks, 0.0, 5)
    z = np.abs(mean - r_theory) / se
    hard = mode == "enriquez"  # the untruncated mixture is the only exact match
    return Check(
        name=f"aggregate_acf_{mode}",
        passed=bool(np.all(z <= 4.0)) if hard else True,
        hard=hard,
        details={
            "acf_measured": mean.tolist(),
            "mixture_closed_form": r_theory.tolist(),
            "gap": (mean - r_theory).tolist(),
            "max_z": float(np.max(z)),
        },
    )


def _check_density_mass(model: HurstModel) -> Check:
    u_max = feasibility_threshold(model)  # the mass of the solvable branch
    lo, hi = 1e-5, 0.5 - 1e-6
    # log-spaced panel through the steep small-p region, linear panel beyond
    xs = np.concatenate([np.geomspace(lo, 1e-2, 4000), np.linspace(1e-2, hi, 8000)[1:]])
    gs = np.asarray(density_p(xs, model))
    quad = float(np.trapezoid(gs, xs))
    tail = 1.0 - (1.0 - float(n_step_correlation(lo, model, 1))) ** (2.0 - 2.0 * model.h)
    total = quad + tail
    return Check(
        name="density_mass_deficit",
        passed=abs(total - u_max) < 1e-4,
        hard=True,
        details={
            "u_max": u_max,
            "quadrature_mass": total,
            "deficit": 1.0 - u_max,
        },
    )


def _check_dichotomized_oracle(
    model: HurstModel, rng: np.random.Generator, n: int = 1024, reps: int = 64
) -> Check:
    p = 0.3
    factor = fgn_cholesky_factor(model, n)
    lag1 = []
    marg = []
    for _ in range(reps):
        inc = dichotomized_gaussian_walk(model, p, n, rng, factor=factor).astype(np.float64)
        lag1.append(_acf_known_mean(inc, 2.0 * p - 1.0, 1)[0])
        marg.append(float(np.mean(inc == 1.0)))
    pred = float(n_step_correlation(p, model, 1))
    m_lag = float(np.mean(lag1))
    se_lag = float(np.std(lag1, ddof=1) / math.sqrt(reps))
    m_p = float(np.mean(marg))
    se_p = float(np.std(marg, ddof=1) / math.sqrt(reps))
    z_lag = abs(m_lag - pred) / se_lag
    z_p = abs(m_p - p) / se_p
    return Check(
        name="dichotomized_gaussian_link",
        passed=z_lag <= 4.0 and z_p <= 4.0,
        hard=True,
        details={
            "p": p,
            "marginal_measured": m_p,
            "lag1_measured": m_lag,
            "lag1_predicted": pred,
            "z_lag": z_lag,
            "z_marginal": z_p,
        },
    )


def _enriquez_endpoint_variance(model: HurstModel, n_steps: int) -> float:
    """Endpoint variance of a correctly scaled enriquez aggregate at n_steps.

    The walk sum S_N has Var S_N = N + 2 sum_k (N - k) r(k) over the mixture
    lag correlations r(k) ~ Gamma(3-2H) k^(2H-2), so Var S_N grows like
    L N^(2H) with L = Gamma(3-2H) / (H (2H-1)).  Scaled to reach
    Var B_H(1) = 1 in the limit, the endpoint has variance
    Var S_N / (L N^(2H)) at N: 0.899 at H = 0.7 and N = 512, 0.419 at
    H = 0.55.  L is taken from the tail of r(k), not from ``model.a_h``, so a
    wrong scaling constant in the aggregate still moves the measured variance
    off this value.
    """
    h = model.h
    lags = np.arange(1, n_steps)
    r = np.array([theoretical_mixture_correlation(int(k), h) for k in lags])
    var_sum = n_steps + 2.0 * float(np.dot(n_steps - lags, r))
    growth = math.exp(math.lgamma(3.0 - 2.0 * h)) / (h * (2.0 * h - 1.0))
    return var_sum / (growth * n_steps ** (2.0 * h))


def _check_gaussianity(
    model: HurstModel, rng: np.random.Generator, n_steps: int, n_paths: int, runs: int
) -> Check:
    endpoints = np.empty(runs)
    for i in range(runs):
        path = generate_fbm(
            model, n_steps, n_paths, mode="enriquez", seed=int(rng.integers(2**63)), workers=1
        )
        endpoints[i] = path.values[-1]
    jb, pval = jarque_bera(endpoints)
    var = float(np.var(endpoints, ddof=1))
    expected = _enriquez_endpoint_variance(model, n_steps)
    # the sample variance of `runs` Gaussian endpoints has standard error
    # expected * sqrt(2 / (runs - 1)); 2.576 of them is a two-sided 1% false
    # alarm rate, the rate of the Jarque-Bera gate
    band = 2.576 * expected * math.sqrt(2.0 / (runs - 1))
    return Check(
        name="aggregate_endpoint_gaussianity",
        passed=pval >= 0.01 and abs(var - expected) <= band,
        hard=True,
        details={
            "runs": runs,
            "jb": jb,
            "p_value": pval,
            "variance": var,
            "expected_variance": expected,
            "variance_band": band,
        },
    )


def run_validation(
    model: HurstModel,
    seed: int = 0,
    mode: str = "paper",
    n_steps: int = 2048,
    n_paths: int = 128,
    runs: int = 200,
) -> list[Check]:
    """Full property battery at the given scale; returns all check records."""
    rng = np.random.default_rng(seed)
    checks = [
        _check_threshold(model),
        _check_roundtrip(model, rng),
        _check_paper_chain_law(model, rng, steps=max(n_steps * 8, 2**16)),
        _check_aggregate_acf(model, mode, rng, n_steps, n_paths, reps=16),
        _check_density_mass(model),
        _check_dichotomized_oracle(model, rng),
        _check_gaussianity(model, rng, n_steps=512, n_paths=64, runs=runs),
    ]
    return checks


def replicate_spread(
    model: HurstModel,
    n_steps: int,
    n_paths: int,
    replicates: int,
    mode: str = "paper",
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """Hurst-estimate spread across independent replicate runs.

    Returns per-replicate estimates with summary statistics and a small
    histogram, the shape of the repeated-realisation figure.
    """
    estimates = []
    for r in range(replicates):
        path = generate_fbm(model, n_steps, n_paths, mode=mode, seed=seed + r, workers=workers)
        estimates.append(estimate_report(path.values, max_lag=5).h_dsod)
    est = np.asarray(estimates)
    counts, edges = np.histogram(est, bins=min(10, max(3, replicates // 5)))
    return {
        "target_h": model.h,
        "mode": mode,
        "n_steps": n_steps,
        "n_paths": n_paths,
        "replicates": replicates,
        "estimates": [float(e) for e in est],
        "mean": float(est.mean()),
        "std": float(est.std(ddof=1)) if replicates > 1 else 0.0,
        "min": float(est.min()),
        "max": float(est.max()),
        "histogram_counts": counts.tolist(),
        "histogram_edges": [float(e) for e in edges],
    }
