"""Record the benchmark's end-to-end medians for this checkout and its parent.

    python3 tools/bench_record.py --out BENCH.json [--parent HEAD~1]

Runs ``perfbench/run.py --trace 0 --seed 1 --seconds 20`` on each workload of
``perfbench/run.py``, once per pair on this checkout and once on the parent
commit, for 10 pairs, alternating which side runs first, then one
``--trace 1`` run per workload on this checkout.  Both sides run the same
way: each from a ``git archive`` export of a commit into a temporary
directory, removed afterwards, so both run their own benchmark code with
the same settings from the same kind of tree.  This checkout's commit is a
snapshot of its tracked files as they are on disk (``git stash create``,
which leaves the checkout as it is), or HEAD when they have no changes.
New files are in the snapshot only once staged (``git add``); unstaged new
files are left out.  A run fails unless it exits 0, its last line parses as
strict JSON (no ``NaN`` or ``Infinity``), it reports 0 failed invocations
and every metric is a finite number.  The JSON written to ``--out`` holds,
per side and workload, every run's metrics, failure counts and provenance
record, the median and quartiles of each metric over the runs that did not
fail, and the traced runs.  Each end-to-end metric in the current side's
summary also carries the two numbers a gain is judged by: ``pair_wins``,
the pairs in which this checkout did better than the parent (a tie or a
failed run wins for neither), and ``parent_iqr``, the parent's ``q3 - q1``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import WORKLOADS  # noqa: E402

PAIRS = 10  # alternating pairs per workload, the count a claimed gain is judged on
SEED = 1
SECONDS = 20  # the benchmark's run length
# end-to-end metric name -> "lower" or "higher", the direction that is better
BETTER = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout


def snapshot() -> str:
    """A commit of the checkout's tracked and staged files as on disk; HEAD when they have no changes."""
    return git("stash", "create").strip() or git("rev-parse", "HEAD").strip()


def export(ref: str, into: Path) -> Path:
    """The tree of ``ref`` in a new directory ``into``, with no git metadata."""
    into.mkdir()
    archive = into.with_suffix(".tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", ref], cwd=ROOT, stdout=fh, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return into


def _reject_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def bench(tree: Path, workload: str, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its last line and record, and whether it failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1], parse_constant=_reject_constant)
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        attempted, failed = result["attempted"], result["failed"]
    except (IndexError, KeyError, TypeError, AttributeError, ValueError) as exc:
        return {"exit_code": out.returncode, "ok": False, "error": f"last line: {exc!r}",
                "stderr": out.stderr[-2000:]}
    bad = sorted(n for n, v in metrics.items() if not (isinstance(v, (int, float)) and math.isfinite(v)))
    record = next((json.loads(line[len("record "):]) for line in lines if line.startswith("record ")), None)
    return {"exit_code": out.returncode, "ok": out.returncode == 0 and failed == 0 and not bad,
            "attempted": attempted, "failed": failed, "bad_metrics": bad, "metrics": metrics, "record": record}


def summary(runs: list[dict]) -> dict:
    """Median and quartiles of each metric over the runs that did not fail."""
    values: dict[str, list[float]] = {}
    for run in runs:
        if run["ok"]:
            for name, value in run["metrics"].items():
                values.setdefault(name, []).append(value)
    out = {}
    for name, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
        out[name] = {"median": statistics.median(xs), "q1": q1, "q3": q3, "runs": len(xs)}
    return out


def pair_wins(current: list[dict], parent: list[dict], metric: str) -> int:
    """Pairs in which the current run is better on ``metric``; ties and failed runs win for neither."""
    wins = 0
    for mine, theirs in zip(current, parent):
        if mine["ok"] and theirs["ok"]:
            a, b = mine["metrics"][metric], theirs["metrics"][metric]
            wins += a < b if BETTER[metric] == "lower" else a > b
    return wins


def judge(current: dict, parent: dict) -> None:
    """Add ``pair_wins`` and ``parent_iqr`` to each end-to-end metric of ``current``'s summary."""
    for metric, stats in current["summary"].items():
        if metric in BETTER and metric in parent["summary"]:
            stats["pair_wins"] = pair_wins(current["runs"], parent["runs"], metric)
            stats["parent_iqr"] = parent["summary"][metric]["q3"] - parent["summary"][metric]["q1"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--parent", default="HEAD~1", help="git ref of the commit to compare with")
    args = parser.parse_args(argv)

    current = snapshot()
    scratch = Path(tempfile.mkdtemp(prefix="bench_record_"))
    try:
        trees = {"current": export(current, scratch / "current"), "parent": export(args.parent, scratch / "parent")}
        runs = {side: {w: [] for w in WORKLOADS} for side in trees}
        for pair in range(PAIRS):
            for workload in WORKLOADS:
                order = ("current", "parent") if pair % 2 == 0 else ("parent", "current")
                for side in order:
                    run = bench(trees[side], workload)
                    runs[side][workload].append(run)
                    shown = run.get("metrics", {}).get("wall_s")
                    print(f"pair {pair} {workload:15s} {side:8s} ok {run['ok']} wall_s {shown}", file=sys.stderr)
        traced = {}
        for workload in WORKLOADS:
            traced[workload] = bench(trees["current"], workload, trace=1)
            print(f"traced  {workload:15s} current  ok {traced[workload]['ok']}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    doc = {
        "command": "perfbench/run.py --trace 0, then --trace 1 once per workload on the current side",
        "seed": SEED,
        "seconds": SECONDS,
        "pairs": PAIRS,
        "current": {"git_sha": git("rev-parse", "HEAD").strip(), "snapshot_sha": current,
                    "worktree_clean": not git("status", "--porcelain", "--untracked-files=no").strip()},
        "parent": {"ref": args.parent, "git_sha": git("rev-parse", args.parent).strip()},
    }
    for side in trees:
        doc[side]["workloads"] = {
            w: {"summary": summary(r), "failed_runs": sum(not x["ok"] for x in r), "runs": r}
            for w, r in runs[side].items()
        }
    for w in WORKLOADS:
        judge(doc["current"]["workloads"][w], doc["parent"]["workloads"][w])
        wall = doc["current"]["workloads"][w]["summary"].get("wall_s", {})
        print(f"{w:15s} wall_s wins {wall.get('pair_wins')} of {PAIRS}, parent iqr {wall.get('parent_iqr')}",
              file=sys.stderr)
    doc["current"]["traced"] = traced
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
