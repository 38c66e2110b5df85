"""End-to-end benchmark of the fbmwalk CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, nothing is installed.  Each workload is a
``fbmwalk generate`` run followed by ``fbmwalk estimate`` on its CSV, each in a
fresh process, closed loop, one client, samples back to back for ``--seconds``.
Every sample uses the same ``--seed``, so every output must have the same bytes.

``--trace 0`` prints the end-to-end metrics, medians over the samples of the
run.  ``--trace 1`` alternates untraced and traced samples (traced ones run
through ``perfbench/layers.py``) and prints the per-layer metrics; it also
checks that traced bytes equal untraced bytes and, for multi-worker
workloads, that one ``--workers 1`` run gives the same bytes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give each metric with its unit and sample count, and the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HURST = "0.7"
REPEATS_PER_ROUND = 2  # estimates and set-ups after each generate
CHILD_LIMIT_S = 150.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WALK_MODES = ("paper", "matched", "enriquez")


@dataclass(frozen=True)
class Workload:
    mode: str
    steps: int
    paths: int | None  # None: the mode aggregates no walks
    workers: int

    def generate_args(self, seed: int, out: str, workers: int | None = None) -> list[str]:
        args = ["generate", "--hurst", HURST, "--mode", self.mode, "--steps", str(self.steps)]
        if self.paths is not None:
            args += ["--paths", str(self.paths), "--workers", str(workers or self.workers)]
        return args + ["--seed", str(seed), "--out", out]

    @property
    def work_steps(self) -> int:
        return self.steps * (self.paths or 1)


# Each workload loads a different layer (BENCHMARK.json says which), so a
# change to one layer should move its own workload and leave the others.
WORKLOADS = {
    "paper_scale": Workload("paper", 100_000, 1000, 2),
    "many_short": Workload("paper", 1000, 20_000, 2),
    "long_roundtrip": Workload("enriquez", 1_000_000, 128, 1),
    "oracle": Workload("gaussian-oracle", 4096, None, 1),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "steps_per_s": "steps/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "read_s": "s",
}


# ---------------------------------------------------------------- children


@dataclass(frozen=True)
class Child:
    """One finished child process, with its own resource usage."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


def run_child(argv: list[str], env: dict, work: Path) -> Child:
    """Run argv to completion; usage comes from ``os.wait4`` on this child alone.

    ``RUSAGE_CHILDREN`` would keep one high-water mark over every child.
    """
    with tempfile.TemporaryFile(dir=work) as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode(errors="replace")
    return Child(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=text,
    )


def blas_threads(nproc: int, env: dict) -> int:
    """At most nproc, and no more than any BLAS thread limit already set."""
    limits = [nproc]
    for var in BLAS_THREAD_VARS:
        value = env.get(var, "")
        if value.isdigit() and int(value) > 0:
            limits.append(int(value))
    return min(limits)


def child_env(lane: str | None, threads: int) -> dict:
    """Environment of a child: this checkout's sources, one lane, bounded BLAS.

    The lane is chosen per child process, so no choice leaks between runs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("FBMWALK_BACKEND", None)
    if lane is not None:
        env["FBMWALK_BACKEND"] = lane
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    return env


# ---------------------------------------------------------------- checks


def csv_problems(data: bytes, steps: int) -> list[str]:
    """Schema ``t,value``: N+1 rows from ``0,0.0``, t = k/N, finite values."""
    try:
        lines = data.decode("ascii").split("\n")
    except UnicodeDecodeError:
        return ["csv is not ascii"]
    if lines[0] != "t,value":
        return [f"csv header {lines[0][:40]!r}"]
    if lines[-1] != "":
        return ["csv does not end with a newline"]
    rows = lines[1:-1]
    if len(rows) != steps + 1:
        return [f"csv has {len(rows)} rows, expected {steps + 1}"]
    if rows[0] != "0,0.0":
        return [f"csv first row {rows[0]!r}"]
    for k, row in enumerate(rows):
        t, _, value = row.partition(",")
        try:
            t, value = float(t), float(value)
        except ValueError:
            return [f"csv row {k + 2} unparsable: {row[:40]!r}"]
        if not math.isfinite(value) or abs(t - k / steps) > 1e-11:
            return [f"csv row {k + 2} out of range: {row[:40]!r}"]
    return []


def sidecar_problems(path: Path, wl: Workload, seed: int, workers: int, lane: str) -> list[str]:
    try:
        meta = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"sidecar unreadable: {exc}"]
    expected = {"mode": wl.mode, "seed": seed, "steps": wl.steps, "backend": lane}
    if wl.mode in WALK_MODES:
        expected.update(paths=wl.paths, workers=workers)
    problems = [f"sidecar {k}={meta.get(k)!r}, expected {v!r}" for k, v in expected.items() if meta.get(k) != v]
    if wl.mode in WALK_MODES and not (isinstance(meta.get("resample_total"), int) and meta["resample_total"] >= 0):
        problems.append(f"sidecar resample_total={meta.get('resample_total')!r}")
    return problems


def estimate_problems(stdout: str, steps: int) -> list[str]:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["estimate output is not JSON"]
    values = [doc.get("h_dsod"), doc.get("h_aggvar"), *doc.get("acf", [None])]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        return ["estimate has a missing or non-finite value"]
    if doc.get("n_used") != steps + 1:
        return [f"estimate n_used={doc.get('n_used')!r}, expected {steps + 1}"]
    return []


class Checks:
    """Counts checked invocations against failed ones, for one workload and seed.

    Outputs of one kind (the CSV, the estimate report) must have the bytes of
    the first one seen in the run; content is validated once per digest.
    """

    def __init__(self, wl: Workload, seed: int) -> None:
        self.wl = wl
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self._reference: dict[str, str] = {}
        self._verdicts: dict[str, list[str]] = {}

    def count(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)
        return not problems

    def _same_bytes(self, kind: str, data: bytes, validate) -> list[str]:
        digest = hashlib.sha256(data).hexdigest()
        reference = self._reference.setdefault(kind, digest)
        if digest not in self._verdicts:
            self._verdicts[digest] = validate(data)
        problems = list(self._verdicts[digest])
        if digest != reference:
            problems.append(f"{kind} bytes differ from the run's first ({digest[:12]} != {reference[:12]})")
        return problems

    def generate(self, what: str, child: Child, csv: Path, lane: str, workers: int | None = None) -> bool:
        if child.code != 0:
            return self.count(what, [f"exit code {child.code}"])
        try:
            data = csv.read_bytes()
        except OSError as exc:
            return self.count(what, [f"csv unreadable: {exc}"])
        problems = self._same_bytes("csv", data, lambda d: csv_problems(d, self.wl.steps))
        sidecar = csv.with_name(csv.name + ".meta.json")
        problems += sidecar_problems(sidecar, self.wl, self.seed, workers or self.wl.workers, lane)
        return self.count(what, problems)

    def estimate(self, what: str, child: Child) -> bool:
        if child.code != 0:
            return self.count(what, [f"exit code {child.code}"])
        problems = self._same_bytes(
            "estimate", child.stdout.encode(), lambda d: estimate_problems(d.decode(), self.wl.steps)
        )
        return self.count(what, problems)


# ---------------------------------------------------------------- provenance

# Run in a child with no lane forced: reports the lane the program picks.
PROBE = """
import json, platform, numpy, fbmwalk
try:
    import fbmwalk._kernels_cy
    compiled = True
except ImportError:
    compiled = False
print(json.dumps({"backend": fbmwalk.BACKEND, "compiled_lane_importable": compiled,
                  "python": platform.python_version(), "numpy": numpy.__version__}))
"""


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    env.pop("GIT_DIR", None)
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _last_level_cache() -> str | None:
    levels = []
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            levels.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    return max(levels)[1] if levels else None


def host_steal() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of this machine so far, if the kernel reports them.

    On a virtual machine, steal is time the host ran something else while
    this machine had work: it lengthens wall times without any change here.
    """
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def provenance(probe: dict, nproc: int, threads: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "backend": probe["backend"],
        "compiled_lane_importable": probe["compiled_lane_importable"],
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": probe["python"],
        "numpy": probe["numpy"],
        "blas_threads": threads,
    }


# ---------------------------------------------------------------- runs


class Bench:
    """One benchmark invocation: one workload, one seed, one lane per child."""

    def __init__(self, wl: Workload, seed: int, work: Path, lane: str, lanes: tuple[str, ...],
                 threads: int) -> None:
        self.wl = wl
        self.seed = seed
        self.work = work
        self.lane = lane
        self.lanes = lanes
        self.threads = threads
        self.csv = work / "out.csv"
        self.checks = Checks(wl, seed)

    def _cli(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "fbmwalk.cli", *args]

    def _traced(self, spans: Path, *args: str) -> list[str]:
        return [sys.executable, str(HERE / "layers.py"), str(spans), *args]

    def generate(self, tag: str, spans: Path | None = None, lane: str | None = None,
                 workers: int | None = None) -> Child:
        lane = lane or self.lane
        args = self.wl.generate_args(self.seed, str(self.csv), workers)
        argv = self._traced(spans, *args) if spans else self._cli(*args)
        child = run_child(argv, child_env(lane, self.threads), self.work)
        self.checks.generate(f"{tag} generate", child, self.csv, lane, workers)
        return child

    def estimate(self, tag: str, spans: Path | None = None, lane: str | None = None) -> Child:
        args = ["estimate", "--input", str(self.csv), "--format", "json"]
        argv = self._traced(spans, *args) if spans else self._cli(*args)
        child = run_child(argv, child_env(lane or self.lane, self.threads), self.work)
        self.checks.estimate(f"{tag} estimate", child)
        return child

    def setup(self, tag: str) -> float:
        """Interpreter start plus ``import fbmwalk.cli``, in its own process."""
        argv = [sys.executable, "-c", "import fbmwalk.cli"]
        child = run_child(argv, child_env(self.lane, self.threads), self.work)
        self.checks.count(f"{tag} setup", [] if child.code == 0 else [f"exit code {child.code}"])
        return child.wall_s

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        """Rounds of one generate, then estimates and set-ups in turn.

        The machine's speed drifts over tens of seconds, so the short
        processes are spread over the whole run rather than timed in a burst.
        """
        self.setup("warm-up")  # fills bytecode caches; not reported
        gens, reads, setups = [], [], []
        deadline = time.perf_counter() + seconds
        while not gens or time.perf_counter() < deadline:
            tag = f"round {len(gens)}"
            gens.append(self.generate(tag))
            for _ in range(REPEATS_PER_ROUND):
                reads.append(self.estimate(tag).wall_s)
                setups.append(self.setup(tag))
        series = {
            "wall_s": [g.wall_s for g in gens],
            "steps_per_s": [self.wl.work_steps / g.wall_s for g in gens],
            "cpu_s": [g.cpu_s for g in gens],
            "peak_rss_mb": [g.peak_rss_mb for g in gens],
            "setup_s": setups,
            "read_s": reads,
        }
        return series, self.other_lanes()

    def other_lanes(self) -> dict:
        """One round per other importable lane; its bytes must match this lane's."""
        out = {}
        for lane in self.lanes:
            if lane != self.lane:
                gen = self.generate(f"lane {lane}", lane=lane)
                est = self.estimate(f"lane {lane}", lane=lane)
                out[lane] = {"wall_s": gen.wall_s, "cpu_s": gen.cpu_s, "peak_rss_mb": gen.peak_rss_mb,
                             "read_s": est.wall_s}
        return out

    def layers(self, seconds: float) -> tuple[dict, dict]:
        """Untraced and traced rounds in turn; layer values are per traced round."""
        untraced, traced, per_round = [], [], []
        gen_spans, est_spans = self.work / "generate.spans.json", self.work / "estimate.spans.json"
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            tag = f"round {len(traced)}"
            untraced.append(self.generate(f"{tag} untraced"))
            self.estimate(f"{tag} untraced")
            traced.append(self.generate(f"{tag} traced", gen_spans))
            self.estimate(f"{tag} traced", est_spans)
            metrics = layers.layer_metrics(layers.Trace.load([gen_spans, est_spans]), self.wl.workers)
            metrics["sampling.accept_ratio"] = self._accept_ratio()
            per_round.append(metrics)
        series = {name: [m[name] for m in per_round] for name in per_round[0]}
        series["trace.overhead_s"] = [
            statistics.median(g.wall_s for g in traced) - statistics.median(g.wall_s for g in untraced)
        ]
        info = {}
        if self.wl.paths is not None and self.wl.workers > 1:
            # the output bytes must not depend on the worker count
            info["workers1_wall_s"] = self.generate("workers=1", workers=1).wall_s
        return series, info

    def _accept_ratio(self) -> float:
        """M / (M + rejected draws), from the sidecar; 1 when nothing was drawn."""
        meta = json.loads(self.csv.with_name(self.csv.name + ".meta.json").read_text())
        drawn = self.wl.paths or 1
        return drawn / (drawn + meta.get("resample_total", 0))


def layer_units() -> dict:
    units = {name: unit for name, unit, _, _ in layers.LAYER_METRICS}
    units["sampling.accept_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    for permille in (999, 990, 900, 500):
        if len(values) * (1000 - permille) >= 10_000:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[permille - 1]
            return f"p{permille / 10:g} {cut:.6g}"
    return "none (fewer than 20 samples)"


def summarise(series: dict, units: dict) -> dict:
    metrics = {}
    for name, unit in units.items():
        values = [v for v in series[name] if v is not None]
        value = statistics.median(values) if values else None
        metrics[name] = {"value": value, "unit": unit}
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:34s} {shown:>14s} {unit:8s} median of {len(values)}, tail {tail(values)}")
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fbmwalk" / "cli.py").is_file():
        print(f"perfbench: no fbmwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads(nproc, os.environ)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        probe_child = run_child([sys.executable, "-c", PROBE], child_env(None, threads), work)
        if probe_child.code != 0:
            print("perfbench: fbmwalk does not import from this checkout", file=sys.stderr)
            return 2
        probe = json.loads(probe_child.stdout)
        lanes = ("numpy", "cython") if probe["compiled_lane_importable"] else ("numpy",)
        bench = Bench(wl, args.seed, work, probe["backend"], lanes, threads)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "lane": bench.lane, "workers": wl.workers,
                  "provenance": provenance(probe, nproc, threads)}
        steal_before = host_steal()
        if args.trace:
            series, record["info"] = bench.layers(args.seconds)
            metrics = summarise(series, layer_units())
        else:
            series, record["other_lanes"] = bench.end_to_end(args.seconds)
            metrics = summarise(series, END_TO_END_UNITS)
        record["samples"] = series
        checks = bench.checks
        print(f"{'failed_frac':34s} {checks.failed / checks.attempted:>14.6g} {'ratio':8s} "
              f"{checks.failed} of {checks.attempted} checked invocations")
        steal_after = host_steal()
        if steal_before and steal_after and steal_after[1] > steal_before[1]:
            record["host_steal_frac"] = (steal_after[0] - steal_before[0]) / (steal_after[1] - steal_before[1])
            print(f"{'host_steal_frac':34s} {record['host_steal_frac']:>14.6g} {'ratio':8s} "
                  "CPU time the host took from this machine during the run")
        print("record " + json.dumps(record, sort_keys=True))
        print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                          "failed": checks.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
