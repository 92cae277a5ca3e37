"""scripts/ab.py: the A/B summary, its verdict, and one real short run."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
WALL_METRICS = ("setup_s", "ops_per_s", "op_p50_us", "op_p99_us")
SEEDS = [1, 2, 3]


def synthetic(failed=0, ops_per_s=1.0, comparisons=1.0):
    """Records of three sort-eager pairs in which the change side scales
    the parent's ops_per_s and comparisons_per_op and fails some ops."""
    records = {side: {} for side in ab.SIDES}
    for seed in SEEDS:
        for side in ab.SIDES:
            change = side == "change"
            metrics = {m["name"]: 10.0 + seed for m in END_TO_END}
            metrics["ops_per_s"] *= ops_per_s if change else 1
            metrics["comparisons_per_op"] *= comparisons if change else 1
            records[side][ab.key("sort-eager", seed, 0)] = {"result": {
                "correct": not (change and failed), "attempted": 100,
                "failed": failed if change else 0,
                "metrics": {name: {"value": v, "unit": ""}
                            for name, v in metrics.items()}}}
    return {"sort-eager": ab.summarize(records, "sort-eager", SEEDS,
                                       END_TO_END)}


def test_verdict_passes_equal_records():
    summary = synthetic()
    assert ab.verdict(summary, {}, same_counts=True) == []
    s = summary["sort-eager"]
    assert s["first"] == {"1": "parent", "2": "change", "3": "parent"}
    assert s["ops_per_s"]["parent"] == {"median": 12.0, "q1": 11.5,
                                        "q3": 12.5, "min": 11.0, "max": 13.0}
    assert s["ops_per_s"]["equal_pairs"] == 3


def test_verdict_fails_on_failed_ops():
    (line,) = ab.verdict(synthetic(failed=2), {}, same_counts=False)
    assert line == "sort-eager: 6 failed ops on the change side"


def test_verdict_fails_on_a_median_worse_than_its_bound():
    assert ab.verdict(synthetic(ops_per_s=0.8), {}, same_counts=True) == []
    (line,) = ab.verdict(synthetic(ops_per_s=0.7), {}, same_counts=True)
    assert line.startswith("sort-eager: ops_per_s median worse by 30.0%")


def test_verdict_fails_on_moved_counts_only_when_asked():
    summary = synthetic(comparisons=1.001)
    assert ab.verdict(summary, {}, same_counts=False) == []
    lines = ab.verdict(summary, {}, same_counts=True)
    assert len(lines) == len(SEEDS)
    assert lines[0].startswith("sort-eager seed 1: comparisons_per_op 11.0")


def test_verdict_fails_on_a_missing_run():
    summary = synthetic()
    summary["sort-eager"]["missing_runs"]["parent"] = 1
    assert ab.verdict(summary, {}, same_counts=False) == [
        "sort-eager: 1 parent runs gave no result"]


def test_same_commit_against_itself(tmp_path):
    """A real run of one commit against itself, in a repository of its own
    holding this tree's src/ and perfbench/ and a BENCHMARK.json trimmed to
    sort-eager: every run gives a result, no op fails, and the counts are
    equal, the traced carries included.  Wall-time medians of one-round runs can differ by
    more than their bounds on a shared host, so the wall-time bound is
    left to test_verdict_fails_on_a_median_worse_than_its_bound."""
    repo = tmp_path / "repo"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, repo / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench["workloads"] = [w for w in bench["workloads"]
                          if w["name"] == "sort-eager"]
    (repo / "BENCHMARK.json").write_text(json.dumps(bench))
    git = ["git", "-c", "user.name=ab", "-c", "user.email=ab@localhost"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "tree"]):
        subprocess.run(git + args, cwd=repo, check=True)
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, ROOT / "scripts" / "ab.py", "HEAD", "HEAD",
         "--seeds", "1-2", "--seconds", "0", "--same-counts", "--traced", "3",
         "--out", out],
        cwd=repo, capture_output=True, text=True, timeout=120)
    doc = json.loads(out.read_text())
    failures = doc["verdict"]["failures"]
    assert proc.returncode == (1 if failures else 0)
    assert [line for line in failures
            if not line.split(": ")[1].startswith(WALL_METRICS)] == []
    s = doc["summary"]["sort-eager"]
    assert s["pairs"] == 2 and s["failed_ops"] == {"parent": 0, "change": 0}
    assert s["comparisons_per_op"]["equal_pairs"] == 2
    carries = doc["per_layer"]["sort-eager"]["forest.fix.carries_per_op"]
    assert carries["parent"] == carries["change"] > 0
    assert set(doc["records"]["change"]) == {
        "sort-eager.seed1.trace0", "sort-eager.seed2.trace0",
        "sort-eager.seed3.trace1"}
    assert not (repo / ".git" / "worktrees").exists()
