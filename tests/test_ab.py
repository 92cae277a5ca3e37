"""scripts/ab.py: the A/B summary, its verdict, and real short runs."""

import contextlib
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

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


def traced_pairs(seeds, failed=None):
    """Traced sort-eager pairs whose change side reads the parent's
    forest.fix.self_us_per_op times 1.1, value 10 * seed on the parent;
    the change run on seed failed, when given, fails an op."""
    pairs = {}
    for seed in seeds:
        pairs[seed] = {}
        for side in ab.SIDES:
            change = side == "change"
            value = 10.0 * seed * (1.1 if change else 1)
            pairs[seed][side] = {"result": {
                "correct": True, "attempted": 100,
                "failed": int(change and seed == failed),
                "metrics": {"forest.fix.self_us_per_op":
                            {"value": value, "unit": "us/op"}}}}
    return pairs


def test_traced_pairs_give_medians_quartiles_and_per_seed_values():
    (name, m), = ab.layers(traced_pairs([1, 2, 4])).items()
    assert name == "forest.fix.self_us_per_op"
    assert m["parent"] == {"median": 20.0, "q1": 15.0, "q3": 30.0,
                           "min": 10.0, "max": 40.0}
    assert m["change"]["median"] == pytest.approx(22.0)
    assert m["change"]["q1"] == pytest.approx(16.5)
    assert m["change"]["q3"] == pytest.approx(33.0)
    assert m["per_seed"]["4"] == {"parent": 40.0,
                                  "change": pytest.approx(44.0)}
    assert list(m["per_seed"]) == ["1", "2", "4"]
    traced = {"sort-eager": traced_pairs([1, 2, 4])}
    assert ab.verdict(synthetic(), traced, same_counts=True) == []


def span_pairs(seeds, scale):
    """Traced pairs with three spans and a non-span metric; the parent
    reads 1, 2 and 3 us/op times seed, the change scale[span] times that."""
    spans = {"forest.fix": 1.0, "forest.scan_min": 2.0, "queue.insert": 3.0}
    pairs = {}
    for seed in seeds:
        pairs[seed] = {}
        for side in ab.SIDES:
            metrics = {f"{span}.self_us_per_op": {
                "value": base * seed * (scale.get(span, 1.0)
                                        if side == "change" else 1.0),
                "unit": "us/op"} for span, base in spans.items()}
            metrics["forest.fix.carries_per_op"] = {"value": 4.0,
                                                    "unit": "1/op"}
            pairs[seed][side] = {"result": {"correct": True,
                                            "attempted": 100, "failed": 0,
                                            "metrics": metrics}}
    return pairs


def test_span_shares_cancel_a_uniform_slowdown():
    """Every span 10% slower on the change side: the self times rise, the
    shares (value over the run's sum of spans) do not move."""
    slower = {span: 1.1 for span in
              ("forest.fix", "forest.scan_min", "queue.insert")}
    out = ab.layers(span_pairs([1, 2, 3], slower))
    assert "share" not in out["forest.fix.carries_per_op"]
    for span, base in (("forest.fix", 1), ("forest.scan_min", 2),
                       ("queue.insert", 3)):
        m = out[f"{span}.self_us_per_op"]
        assert m["change"]["median"] == pytest.approx(
            1.1 * m["parent"]["median"])
        for side in ab.SIDES:
            assert m["share"][side]["median"] == pytest.approx(base / 6)
        assert list(m["share"]["per_seed"]) == ["1", "2", "3"]


def test_span_share_rises_when_one_span_doubles():
    out = ab.layers(span_pairs([1, 2, 3], {"forest.scan_min": 2.0}))
    share = {span: out[f"{span}.self_us_per_op"]["share"] for span in
             ("forest.fix", "forest.scan_min", "queue.insert")}
    assert share["forest.scan_min"]["parent"]["median"] == pytest.approx(2 / 6)
    assert share["forest.scan_min"]["change"]["median"] == pytest.approx(4 / 8)
    for span in ("forest.fix", "queue.insert"):
        assert share[span]["change"]["median"] < \
            share[span]["parent"]["median"]


def test_verdict_fails_on_a_failed_traced_run():
    traced = {"sort-eager": traced_pairs([1, 2, 4], failed=2)}
    assert ab.verdict(synthetic(), traced, same_counts=True) == [
        "sort-eager: traced change run on seed 2 failed"]
    traced["sort-eager"][4]["parent"]["result"] = None
    assert ab.verdict(synthetic(), traced, same_counts=True)[1] == \
        "sort-eager: traced parent run on seed 4 failed"
    assert list(ab.layers(traced["sort-eager"])["forest.fix.self_us_per_op"]
                ["per_seed"]) == ["1", "2"]


GIT = ["git", "-c", "user.name=ab", "-c", "user.email=ab@localhost"]


def bench_repo(tmp_path, workloads=("sort-eager",)):
    """A repository of its own holding this tree's src/ and perfbench/ and
    a BENCHMARK.json trimmed to workloads, with nothing committed yet."""
    repo = tmp_path / "repo"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, repo / part,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench["workloads"] = [w for w in bench["workloads"]
                          if w["name"] in workloads]
    (repo / "BENCHMARK.json").write_text(json.dumps(bench))
    subprocess.run(GIT + ["init", "-q"], cwd=repo, check=True)
    return repo


def commit_all(repo, message):
    for args in (["add", "-A"], ["commit", "-qm", message]):
        subprocess.run(GIT + args, cwd=repo, check=True)


def run_ab(repo, *args):
    return subprocess.run([sys.executable, ROOT / "scripts" / "ab.py", *args],
                          cwd=repo, capture_output=True, text=True,
                          timeout=120)


def test_same_commit_against_itself(tmp_path):
    """A real run of one commit against itself, in a repository of its own
    holding this tree's src/ and perfbench/ and a BENCHMARK.json trimmed to
    sort-eager: every run gives a result, no op fails, the counts are
    equal, the carries of the two traced pairs included, and the side that
    goes first alternates, in the traced pairs too.  Wall-time medians of
    one-round runs can differ by more than their bounds on a shared host,
    so the wall-time bound is left to
    test_verdict_fails_on_a_median_worse_than_its_bound."""
    repo = bench_repo(tmp_path)
    commit_all(repo, "tree")
    out = tmp_path / "ab.json"
    proc = run_ab(repo, "HEAD", "HEAD", "--seeds", "1-2", "--seconds", "0",
                  "--same-counts", "--traced", "3-4", "--out", out)
    doc = json.loads(out.read_text())
    failures = doc["verdict"]["failures"]
    assert proc.returncode == (1 if failures else 0)
    assert [line for line in failures
            if not line.split(": ")[1].startswith(WALL_METRICS)] == []
    s = doc["summary"]["sort-eager"]
    assert s["pairs"] == 2 and s["failed_ops"] == {"parent": 0, "change": 0}
    assert s["comparisons_per_op"]["equal_pairs"] == 2
    carries = doc["per_layer"]["sort-eager"]["forest.fix.carries_per_op"]
    assert carries["parent"] == carries["change"]
    assert carries["parent"]["median"] > 0
    assert list(carries["per_seed"]) == ["3", "4"]
    firsts = [line.split()[2] for line in proc.stderr.splitlines()
              if line.startswith("# ")][::2]
    assert firsts == ["parent", "change", "parent", "change"]
    assert set(doc["records"]["change"]) == {
        "sort-eager.seed1.trace0", "sort-eager.seed2.trace0",
        "sort-eager.seed3.trace1", "sort-eager.seed4.trace1"}
    assert not (repo / ".git" / "worktrees").exists()


def test_planted_extra_comparison_fails_same_counts(tmp_path):
    """A parent commit whose Queue.insert charges one extra comparison,
    against this tree: --same-counts fails on comparisons_per_op, which
    the change lowers by the 10,000 inserts over 20,000 ops."""
    repo = bench_repo(tmp_path)
    queue_py = repo / "src" / "triheap" / "queue.py"
    real = queue_py.read_text()
    anchor = "        node = Node(key, payload)\n"  # in Queue.insert only
    assert real.count(anchor) == 1
    queue_py.write_text(real.replace(
        anchor, anchor + "        self.comparator.count += 1\n"))
    commit_all(repo, "planted: one extra comparison per insert")
    queue_py.write_text(real)
    commit_all(repo, "tree")
    out = tmp_path / "ab.json"
    proc = run_ab(repo, "HEAD~1", "HEAD", "--same-counts", "--seeds", "1-1",
                  "--seconds", "0", "--out", out)
    assert proc.returncode == 1
    doc = json.loads(out.read_text())
    pair = doc["summary"]["sort-eager"]["comparisons_per_op"]["per_seed"]["1"]
    assert pair["parent"] - pair["change"] == pytest.approx(0.5)
    failures = doc["verdict"]["failures"]
    assert [line for line in failures if "comparisons_per_op" in line] == [
        f"sort-eager seed 1: comparisons_per_op {pair['parent']} -> "
        f"{pair['change']}"]
    assert [line for line in failures if "comparisons_per_op" not in line
            and not line.split(": ")[1].startswith(WALL_METRICS)] == []


def test_workloads_runs_only_the_named_ones(tmp_path):
    """--workloads with one of a BENCHMARK.json's two workloads: only its
    pair runs, and only it is summarized."""
    repo = bench_repo(tmp_path, ("sort-eager", "verify-audit"))
    commit_all(repo, "tree")
    out = tmp_path / "ab.json"
    proc = run_ab(repo, "HEAD", "HEAD", "--seeds", "1-1", "--seconds", "0",
                  "--workloads", "verify-audit", "--out", out)
    doc = json.loads(out.read_text())
    assert proc.returncode == (1 if doc["verdict"]["failures"] else 0)
    assert list(doc["summary"]) == ["verify-audit"]
    assert doc["summary"]["verify-audit"]["failed_ops"] == {"parent": 0,
                                                           "change": 0}
    for side in ab.SIDES:
        assert list(doc["records"][side]) == ["verify-audit.seed1.trace0"]


@pytest.mark.parametrize("names", ["nope", "sort-eager,mixed-relaxed"])
def test_unknown_workload_is_a_usage_error_before_any_export(tmp_path,
                                                             names):
    """A --workloads name that BENCHMARK.json does not list (the bench
    repository lists only sort-eager): exit 2 naming it, before any run,
    with nothing left in TMPDIR and no output written."""
    repo = bench_repo(tmp_path)
    commit_all(repo, "tree")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, ROOT / "scripts" / "ab.py", "HEAD", "HEAD",
         "--seeds", "1-1", "--seconds", "0", "--workloads", names,
         "--out", out],
        cwd=repo, capture_output=True, text=True, timeout=60,
        env={**os.environ, "TMPDIR": str(tmp)})
    assert proc.returncode == 2 and proc.stdout == ""
    unknown = names.split(",")[-1]
    assert f"error: unknown workloads {unknown};" in proc.stderr
    assert "# 1/" not in proc.stderr
    assert list(tmp.iterdir()) == [] and not out.exists()


def test_sigterm_removes_the_exports_and_stops_the_child(tmp_path):
    """SIGTERM during a run: ab.py exits, its ab-* exports are gone, and no
    process of its session is left, the perfbench child included."""
    repo = bench_repo(tmp_path)
    commit_all(repo, "tree")
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    log = tmp_path / "stderr"
    with open(log, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, ROOT / "scripts" / "ab.py", "HEAD", "HEAD",
             "--seeds", "1-1", "--seconds", "60"],
            cwd=repo, stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True, env={**os.environ, "TMPDIR": str(tmp)})
    try:
        deadline = time.monotonic() + 60
        while not (list(tmp.glob("ab-*")) and "# 1/" in log.read_text()):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        time.sleep(0.5)  # the perfbench child is running by now
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        assert list(tmp.glob("ab-*")) == []
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
