"""Acceptance criteria, one test per numbered criterion.

Each test prints a single `[criterion N] PASS/FAIL` line with the measured
values (run with ``pytest -s`` to see the lines for passing criteria too).
All tolerances are pinned here, not configurable.

Criteria 1 and 2 assert reference Hurst estimates for the renewal-walk
construction at full scale.  Measurement shows the finest-scale
second-difference estimator sees the pre-limit chain correlation
(E[rho(p)^n], with E[rho] ~ 0.83-0.93 under resampling), not the target fGn
correlation, so the estimator reads ~1.11-1.18 regardless of H; those
windows are not reachable by this construction.  The assertions are kept
faithful to the stated criteria and fail with the measured values.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy import integrate

from fbmwalk import (
    HurstModel,
    bvn_cdf_excess_diag,
    dsod_hurst,
    generate_fbm,
    n_step_correlation,
    persistence_from_p,
    sigma_max,
    std_normal_cdf,
    std_normal_quantile,
    theoretical_mixture_correlation,
)
from fbmwalk.cli import main as cli_main
from fbmwalk.gaussian import dichotomized_gaussian_walk, fgn_cholesky_factor
from fbmwalk.sampling import P_FLOOR, feasibility_threshold, solve_p_batch
from fbmwalk.validate import jarque_bera, replicate_spread

from conftest import acf_known_mean, replicate_se


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# -------------------------------------------------------------- criterion 1


@pytest.mark.parametrize(
    "h,reported",
    [(0.55, 0.5426), (0.70, 0.6960), (0.85, 0.8429)],
    ids=["H0.55", "H0.70", "H0.85"],
)
def test_criterion_1_full_scale_reproduction(h, reported):
    model = HurstModel(h)
    t0 = time.perf_counter()
    path = generate_fbm(model, 100_000, 1000, mode="paper", seed=101, workers=2)
    elapsed = time.perf_counter() - t0
    est = dsod_hurst(path.values)
    ok = abs(est - reported) <= 0.05 and elapsed <= 300.0
    report(
        1,
        ok,
        f"full-scale H={h}: dsod={est:.4f} vs reference {reported} (±0.05), "
        f"runtime {elapsed:.1f}s (limit 300s), "
        f"throughput {path.meta['throughput_steps_per_s']:.3g} steps/s",
    )
    assert elapsed <= 300.0
    assert abs(est - reported) <= 0.05, (
        f"paper-mode DSOD at H={h} measured {est:.4f}; the finest-scale "
        f"second-difference ratio reflects the pre-limit renewal-chain "
        f"correlation, not the reference {reported}"
    )


def test_criterion_1_desk_scale_variant():
    model = HurstModel(0.70)
    t0 = time.perf_counter()
    ests = []
    for seed in range(200, 210):
        path = generate_fbm(model, 2**14, 256, mode="paper", seed=seed, workers=2)
        ests.append(dsod_hurst(path.values))
    elapsed = time.perf_counter() - t0
    mean = float(np.mean(ests))
    ok = abs(mean - 0.6960) <= 0.07 and elapsed < 60.0
    report(
        1,
        ok,
        f"desk-scale H=0.7: mean dsod over 10 seeds = {mean:.4f} vs 0.6960 (±0.07), "
        f"runtime {elapsed:.1f}s (limit 60s)",
    )
    assert elapsed < 60.0
    assert abs(mean - 0.6960) <= 0.07, f"desk-scale mean DSOD {mean:.4f}"


# -------------------------------------------------------------- criterion 2


def test_criterion_2_reference_scale_run():
    model = HurstModel(0.70)
    path = generate_fbm(model, 10_000, 10_000, mode="paper", seed=42, workers=2)
    est = dsod_hurst(path.values)
    ok = abs(est - 0.6840) <= 0.05
    report(2, ok, f"reference scale (N=1e4, M=1e4): dsod={est:.4f} vs 0.6840 (±0.05)")
    assert ok, f"DSOD at the reference scale measured {est:.4f}"


def test_criterion_2_spread_report(tmp_path):
    # 30-replicate spread at N=1e4; M=1e3 by default to keep the suite
    # runtime down, full M=1e4 with FBMWALK_ACCEPT_FULL_SPREAD=1
    m_paths = 10_000 if os.environ.get("FBMWALK_ACCEPT_FULL_SPREAD") == "1" else 1000
    doc = replicate_spread(
        HurstModel(0.70), 10_000, m_paths, replicates=30, mode="paper", seed=500, workers=2
    )
    out = tmp_path / "spread_report.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True))
    ok = len(doc["estimates"]) == 30 and doc["std"] > 0.0
    report(
        2,
        ok,
        f"30-replicate spread report (M={m_paths}): mean={doc['mean']:.4f} "
        f"std={doc['std']:.4f} range=[{doc['min']:.4f},{doc['max']:.4f}] -> {out}",
    )
    assert ok


# -------------------------------------------------------------- criterion 3


def test_criterion_3_mixture_closed_form_vs_quadrature():
    worst = 0.0
    for h in np.linspace(0.55, 0.95, 10):
        e = 2.0 - 2.0 * h
        for n in np.unique(np.geomspace(1, 64, 20).astype(int)):
            val, _ = integrate.quad(
                lambda u, e=e, n=n: (1.0 - 2.0 * u ** (1.0 / e)) ** n,
                0.0,
                0.5**e,
                epsabs=1e-12,
                epsrel=1e-12,
                limit=200,
            )
            worst = max(worst, abs(theoretical_mixture_correlation(int(n), h) - 2.0**e * val))
    r1 = theoretical_mixture_correlation(1, 0.75)
    ok = worst <= 1e-8 and abs(r1 - 2.0 / 3.0) <= 1e-12
    report(3, ok, f"mixture law: max |closed form - quadrature| = {worst:.2e}, r(1,0.75)-2/3 = {r1 - 2/3:.2e}")
    assert worst <= 1e-8
    assert abs(r1 - 2.0 / 3.0) <= 1e-12


# -------------------------------------------------------------- criterion 4


def test_criterion_4_special_functions():
    rs = np.random.default_rng(4).uniform(-0.99, 0.99, 1000)
    worst_bvn = max(
        abs(0.25 + bvn_cdf_excess_diag(0.0, float(r)) - (0.25 + math.asin(r) / (2.0 * math.pi)))
        for r in rs
    )
    # round trip at 1e-10: the upper tail beyond x ~ 5 is exercised through its
    # mirror image because cdf values there round onto 1 at ulp precision
    worst_rt = 0.0
    for x in np.linspace(-6.0, 5.0, 441):
        worst_rt = max(worst_rt, abs(std_normal_quantile(std_normal_cdf(float(x))) - x))
    for x in np.linspace(5.0, 6.0, 41):
        worst_rt = max(worst_rt, abs(-std_normal_quantile(std_normal_cdf(float(-x))) - x))
    ok = worst_bvn <= 1e-10 and worst_rt <= 1e-10
    report(
        4,
        ok,
        f"special functions: median-dichotomy worst err {worst_bvn:.2e} (1e3 r values), "
        f"quantile/cdf round-trip worst err {worst_rt:.2e} on [-6,6]",
    )
    assert worst_bvn <= 1e-10
    assert worst_rt <= 1e-10


# -------------------------------------------------------------- criterion 5


@pytest.mark.parametrize(
    "p,h", [(0.5, 0.55), (0.3, 0.7), (0.5, 0.7), (0.2, 0.85), (0.45, 0.6)]
)
def test_criterion_5_dichotomized_oracle_equivalence(p, h):
    model = HurstModel(h)
    n, reps = 2048, 48
    factor = fgn_cholesky_factor(model, n)
    rng = np.random.default_rng(int(p * 1000) + int(h * 100))
    mu = 2.0 * p - 1.0
    lag1, marg = [], []
    for _ in range(reps):
        t = dichotomized_gaussian_walk(model, p, n, rng, factor=factor)
        lag1.append(acf_known_mean(t.increments, mu, 1)[0])
        marg.append(float(np.mean(t.increments == 1)))
    predicted = float(n_step_correlation(p, model, 1))
    z_lag = abs(np.mean(lag1) - predicted) / replicate_se(lag1)
    z_marg = abs(np.mean(marg) - p) / replicate_se(marg)
    ok = z_lag <= 4.0 and z_marg <= 4.0
    report(
        5,
        ok,
        f"dichotomized oracle (p={p}, H={h}): lag1 {np.mean(lag1):.4f} vs {predicted:.4f} "
        f"(z={z_lag:.2f}), marginal {np.mean(marg):.4f} vs {p} (z={z_marg:.2f})",
    )
    assert ok


# -------------------------------------------------------------- criterion 6


@pytest.mark.parametrize("h", [0.55, 0.7, 0.85])
def test_criterion_6_inversion_roundtrip(h):
    model = HurstModel(h)
    rng = np.random.default_rng(int(h * 1000))
    s_floor = float(n_step_correlation(P_FLOOR, model, 1))
    targets = rng.uniform(s_floor, sigma_max(model), 1000)
    ps = solve_p_batch(targets, model)
    worst = float(np.max(np.abs(np.asarray(n_step_correlation(ps, model, 1)) - targets)))
    ok = worst <= 1e-9
    detail = f"inversion H={h}: worst |achieved-target| = {worst:.2e} over 1000 targets"
    if h == 0.7:
        u_max = feasibility_threshold(model)
        ref = 1.0 - (1.0 - 0.207064) ** 0.6
        ok = ok and abs(u_max - ref) <= 1e-4
        detail += f", u_max = {u_max:.6f} vs 0.1299 (|diff| = {abs(u_max - ref):.2e})"
        assert abs(u_max - ref) <= 1e-4
    report(6, ok, detail)
    assert worst <= 1e-9


# -------------------------------------------------------------- criterion 7


def test_criterion_7_paper_chain_law():
    import fbmwalk._kernels as kernels

    model = HurstModel(0.7)
    p = 0.3
    rho = float(persistence_from_p(p, model))
    reps, steps = 16, 62_500  # 1e6 steps total
    rng = np.random.default_rng(77)
    rows = []
    for _ in range(reps):
        inc = np.diff(kernels.renewal_levels(rng.random(steps), p, rho), prepend=np.int64(0))
        rows.append(acf_known_mean(inc, 2.0 * p - 1.0, 5))
    rows = np.array(rows)
    mean = rows.mean(axis=0)
    law = np.array([rho**n for n in range(1, 6)])
    stated = np.array([float(n_step_correlation(p, model, n)) for n in range(1, 6)])
    se = rows.std(axis=0, ddof=1) / math.sqrt(reps)
    z = np.abs(mean - law) / se
    gap = mean - stated
    ok = bool(np.all(z <= 4.0)) and abs(gap[0]) > 10.0 * se[0]
    report(
        7,
        ok,
        f"chain law (p={p}): acf={np.round(mean, 4).tolist()} vs rho^n "
        f"{np.round(law, 4).tolist()} (max z={np.max(z):.2f}); "
        f"deviation from the stated n-step law: {np.round(gap, 4).tolist()}",
    )
    assert np.all(z <= 4.0)
    # the construction measurably deviates from the stated law at p != 1/2
    assert abs(gap[0]) > 10.0 * se[0]


# -------------------------------------------------------------- criterion 8


def test_criterion_8_clt_gaussianity():
    model = HurstModel(0.7)
    runs = 500
    endpoints = np.empty(runs)
    for i in range(runs):
        path = generate_fbm(model, 2**12, 256, mode="enriquez", seed=7000 + i)
        endpoints[i] = path.values[-1]
    jb, pval = jarque_bera(endpoints)
    var = float(np.var(endpoints, ddof=1))
    ok = pval >= 0.01 and abs(var - 1.0) <= 0.15
    report(
        8,
        ok,
        f"CLT: endpoint variance {var:.4f} (|1-var| <= 0.15), JB={jb:.2f}, p={pval:.3f} (alpha=0.01)",
    )
    assert pval >= 0.01
    assert abs(var - 1.0) <= 0.15


# -------------------------------------------------------------- criterion 9


def test_criterion_9_worker_determinism(tmp_path):
    digests = []
    for w in (1, 2, 8):
        out = tmp_path / f"det_w{w}.csv"
        code = cli_main(
            [
                "generate", "--hurst", "0.7", "--steps", "2048", "--paths", "64",
                "--seed", "11", "--workers", str(w), "--out", str(out),
            ]
        )
        assert code == 0
        digests.append(out.read_bytes())
    ok = digests[0] == digests[1] == digests[2]
    report(9, ok, f"determinism: byte-identical CSV at workers 1/2/8 = {ok}")
    assert ok
