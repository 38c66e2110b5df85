"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402

TINY = run.Workload("paper", 300, 8, 2)


def test_self_time_of_nested_spans():
    spans = [
        layers.Span("generate_fbm", 0.0, 10.0, None, None),
        # two overlapping children, as from two worker threads
        layers.Span("_walk_levels", 1.0, 4.0, 0, None),
        layers.Span("_walk_levels", 3.0, 6.0, 0, None),
        layers.Span("kernels.paper_levels", 2.0, 3.0, 1, {"steps": 100, "bytes": 2400}),
        layers.Span("kernels.paper_levels", 3.5, 5.5, 2, {"steps": 100, "bytes": 2400}),
        # a child reaching past its parent only covers the parent's part
        layers.Span("standardized_levels", 9.0, 12.0, 0, None),
    ]
    trace = layers.Trace(spans, absent=[])
    assert trace.self_time("generate_fbm") == pytest.approx(10.0 - (5.0 + 1.0))
    assert trace.self_time("_walk_levels") == pytest.approx((3.0 - 1.0) + (3.0 - 2.0))
    assert trace.busy("_walk_levels") == pytest.approx(6.0)
    assert trace.busy("kernels") == pytest.approx(3.0)
    metrics = layers.layer_metrics(trace, workers=2)
    assert metrics["walk.rng_s"] == pytest.approx(3.0)
    assert metrics["walk.kernel_steps_per_s"] == pytest.approx(200 / 3.0)
    assert metrics["walk.kernel_bytes_computed"] == 4800
    assert metrics["aggregate.worker_busy_frac"] == pytest.approx((6.0 + 3.0) / (2 * 10.0))


def test_worker_thread_spans_parent_to_the_dispatching_span():
    tracer = layers.Tracer()
    inner = tracer.wrap("inner", lambda x: x)

    def dispatch():
        inner(0)
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(inner, range(4)))

    tracer.wrap("outer", dispatch)()
    rows = [tracer.rows[i] for i in range(len(tracer.rows))]
    names = [row[0] for row in rows]
    outer = names.index("outer")
    assert names.count("inner") == 5
    assert all(row[3] == outer for row in rows if row[0] == "inner")
    assert rows[outer][3] is None


def test_peak_rss_is_read_per_child(tmp_path):
    env = run.child_env(None, 1)
    big = run.run_child([sys.executable, "-c", "b = b'x' * (256 << 20)"], env, tmp_path)
    small = run.run_child([sys.executable, "-c", "pass"], env, tmp_path)
    assert big.code == small.code == 0
    assert big.peak_rss_mb > 250
    # a high-water mark over all children would report the big child again
    assert small.peak_rss_mb < 100


def _write_output(csv: Path, values, **meta) -> None:
    rows = ["t,value"] + [f"{k / (len(values) - 1):.12g},{v!r}" for k, v in enumerate(values)]
    csv.write_text("\n".join(rows) + "\n")
    sidecar = {"mode": "paper", "seed": 1, "steps": 4, "backend": "numpy", "paths": 2,
               "workers": 1, "resample_total": 0}
    sidecar.update(meta)
    csv.with_name(csv.name + ".meta.json").write_text(json.dumps(sidecar))


def test_failures_count_nonzero_exit_and_changed_bytes(tmp_path):
    wl = run.Workload("paper", 4, 2, 1)
    checks = run.Checks(wl, seed=1)
    csv = tmp_path / "out.csv"
    ok = run.Child(code=0, wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0, stdout="")

    _write_output(csv, [0.0, 0.1, 0.2, 0.3, 0.4])
    assert checks.generate("first", ok, csv, "numpy")
    exited = run.run_child([sys.executable, "-c", "raise SystemExit(3)"], run.child_env(None, 1), tmp_path)
    assert exited.code == 3
    assert not checks.generate("nonzero exit", exited, csv, "numpy")
    _write_output(csv, [0.0, 0.1, 0.2, 0.3, 0.5])
    assert not checks.generate("changed bytes", ok, csv, "numpy")
    _write_output(csv, [0.0, 0.1, 0.2, 0.3, float("nan")])
    assert not checks.generate("non-finite", ok, csv, "numpy")
    _write_output(csv, [0.0, 0.1, 0.2, 0.3, 0.4], seed=2)
    assert not checks.generate("wrong sidecar", ok, csv, "numpy")
    assert (checks.attempted, checks.failed) == (5, 4)


def test_absent_layers_read_none(monkeypatch):
    fake = types.ModuleType("fake_layer_module")
    fake._walk_levels = lambda: 1
    monkeypatch.setitem(sys.modules, "fake_layer_module", fake)
    wrapped = {"fake_layer_module": ("_walk_levels", "standardized_levels"), "no_such_module": ("_pairwise_sum",)}
    absent = layers.install(layers.Tracer(), wrapped)
    assert sorted(absent) == ["_pairwise_sum", "standardized_levels"]
    assert fake._walk_levels() == 1

    metrics = layers.layer_metrics(layers.Trace([], absent), workers=1)
    assert metrics["aggregate.standardise_s"] is None
    assert metrics["aggregate.reduce_s"] is None
    assert metrics["aggregate.worker_busy_frac"] is None
    assert metrics["walk.levels_s"] == 0
    assert metrics["sampling.draw_target_calls"] == 0


def test_traced_run_gives_the_untraced_bytes(tmp_path):
    bench = run.Bench(TINY, 5, tmp_path, "numpy", ("numpy",), threads=1)
    series, info = bench.layers(seconds=0.0)
    assert (bench.checks.attempted, bench.checks.failed) == (5, 0)
    assert "workers1_wall_s" in info
    assert series["sampling.draw_target_calls"] == [TINY.paths]
    # per trajectory: two float64 uniform arrays in, one int64 levels array out
    assert series["walk.kernel_bytes_computed"] == [TINY.paths * TINY.steps * 8 * 3]
    assert series["cli.write_bytes"] == [len((tmp_path / "out.csv").read_bytes())]
    assert series["gaussian.factor_s"] == [0]
    assert all(v is not None for values in series.values() for v in values)


def test_end_to_end_reports_every_metric(tmp_path):
    bench = run.Bench(TINY, 5, tmp_path, "numpy", ("numpy",), threads=1)
    series, other_lanes = bench.end_to_end(seconds=0.0)
    assert set(series) == set(run.END_TO_END_UNITS)
    assert len(series["setup_s"]) == len(series["read_s"]) == run.REPEATS_PER_ROUND
    assert all(v > 0 for values in series.values() for v in values)
    assert other_lanes == {}
    assert bench.checks.failed == 0


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()


def test_no_program_means_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "oracle", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
