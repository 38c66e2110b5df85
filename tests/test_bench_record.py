import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(*walls, ok=None):
    ok = ok or [True] * len(walls)
    return [{"ok": good, "metrics": {"wall_s": w, "steps_per_s": 1.0 / w}} for w, good in zip(walls, ok)]


def test_pair_wins_counts_better_pairs_only(bench_record):
    # pair 2 ties and pair 4 has a failed run: neither wins; lower wall and
    # higher steps/s are both better, so the two metrics count the same pairs
    current = _runs(1.0, 2.0, 3.0, 1.0, 1.0, 5.0, ok=[True, True, True, True, False, True])
    parent = _runs(2.0, 1.0, 3.0, 1.5, 9.0, 6.0)
    assert bench_record.pair_wins(current, parent, "wall_s") == 3
    assert bench_record.pair_wins(current, parent, "steps_per_s") == 3
    assert bench_record.pair_wins(parent, current, "wall_s") == 1


def test_judge_adds_wins_and_parent_spread(bench_record):
    current = {"runs": _runs(1.0, 1.0, 1.0, 1.0)}
    parent = {"runs": _runs(2.0, 3.0, 4.0, 5.0)}
    for side in (current, parent):
        side["summary"] = bench_record.summary(side["runs"])
    bench_record.judge(current, parent)
    assert current["summary"]["wall_s"]["pair_wins"] == 4
    assert current["summary"]["wall_s"]["parent_iqr"] == pytest.approx(4.25 - 2.75)


def test_current_side_is_a_snapshot_of_the_checkout(bench_record, tmp_path, monkeypatch):
    # the snapshot holds tracked changes and staged new files, not unstaged
    # ones, and leaves the checkout as it was; a clean checkout is HEAD
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                              capture_output=True, text=True, check=True).stdout

    git("init", "-q")
    (repo / "tracked").write_text("old\n")
    git("add", "tracked")
    git("commit", "-qm", "first")
    monkeypatch.setattr(bench_record, "ROOT", repo)
    assert bench_record.snapshot() == git("rev-parse", "HEAD").strip()
    (repo / "tracked").write_text("new\n")
    (repo / "staged").write_text("staged\n")
    git("add", "staged")
    (repo / "unstaged").write_text("unstaged\n")
    status = git("status", "--porcelain")
    tree = bench_record.export(bench_record.snapshot(), tmp_path / "tree")
    assert sorted(p.name for p in tree.iterdir()) == ["staged", "tracked"]
    assert (tree / "tracked").read_text() == "new\n"
    assert git("status", "--porcelain") == status
