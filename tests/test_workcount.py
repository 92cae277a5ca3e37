"""scripts/workcount.py: real counts of two commits in a repository of its
own."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from triheap.workload import generate_script

ROOT = Path(__file__).resolve().parent.parent
GIT = ["git", "-c", "user.name=wc", "-c", "user.email=wc@localhost"]
SIZES = ["--sort-keys", "60", "--mixed-ops", "300", "--verify-fill", "20",
         "--verify-mix", "30"]
INPUTS = ["sort-eager", "mixed-relaxed", "verify-audit"]


def src_repo(tmp_path):
    """A repository of its own holding this tree's src/, nothing committed."""
    repo = tmp_path / "repo"
    shutil.copytree(ROOT / "src", repo / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    subprocess.run(GIT + ["init", "-q"], cwd=repo, check=True)
    return repo


def commit_all(repo, message):
    for args in (["add", "-A"], ["commit", "-qm", message]):
        subprocess.run(GIT + args, cwd=repo, check=True)


def workcount(repo, *refs):
    proc = subprocess.run(
        [sys.executable, ROOT / "scripts" / "workcount.py", *refs, *SIZES],
        cwd=repo, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_same_code_gives_the_same_counts(tmp_path):
    """One commit against itself: every count, per callee included, is
    equal, and nonzero where the replay does work."""
    repo = src_repo(tmp_path)
    commit_all(repo, "tree")
    doc = workcount(repo, "HEAD", "HEAD")
    first, second = (r["counts"] for r in doc["refs"])
    assert list(first) == INPUTS
    assert first == second
    for name in INPUTS:
        assert first[name]["bytecodes"] > first[name]["python_calls"] > 0
        assert first[name]["c_calls"] == round(sum(
            n * first[name]["ops"]
            for n in first[name]["c_calls_per_op_by_callee"].values()))
        assert set(doc["second_over_first"][name].values()) == {0.0}
    assert first["sort-eager"]["ops"] == 120


def count_inserts(n):
    return sum(op[0] == "i" for op in generate_script(1, n).ops)


def planted(tmp_path, lines):
    """The counts of a parent commit whose Queue.insert runs these extra
    lines, and of this tree after it, each input's insert count beside."""
    repo = src_repo(tmp_path)
    queue_py = repo / "src" / "triheap" / "queue.py"
    real = queue_py.read_text()
    anchor = "        node = Node(key, payload)\n"  # in Queue.insert only
    assert real.count(anchor) == 1
    queue_py.write_text(real.replace(anchor, anchor + lines))
    commit_all(repo, "planted")
    queue_py.write_text(real)
    commit_all(repo, "tree")
    doc = workcount(repo, "HEAD~1", "HEAD")
    inserts = {"sort-eager": 60, "mixed-relaxed": count_inserts(300),
               "verify-audit": 20 + count_inserts(30)}
    return [(*(r["counts"][name] for r in doc["refs"]), inserts[name])
            for name in INPUTS]


def test_planted_len_moves_the_c_calls(tmp_path):
    """One extra len() per insert in the parent: C calls fall by one per
    insert, all of them len, bytecodes fall too, and Python calls stay."""
    for p, t, inserts in planted(tmp_path, "        len(self.forest.roots)\n"):
        assert p["c_calls"] - t["c_calls"] == inserts > 0
        assert round((p["c_calls_per_op_by_callee"]["len"]
                      - t["c_calls_per_op_by_callee"]["len"])
                     * p["ops"]) == inserts
        assert p["bytecodes"] > t["bytecodes"]
        assert p["python_calls"] == t["python_calls"]


def test_planted_loop_moves_only_the_bytecodes(tmp_path):
    """An extra three-step loop per insert in the parent, over a tuple: the
    same bytecodes more per insert, and no call of either kind."""
    loop = "        for _ in (0, 0, 0):\n            pass\n"
    extra = set()
    for p, t, inserts in planted(tmp_path, loop):
        assert p["c_calls_per_op_by_callee"] == \
            t["c_calls_per_op_by_callee"]
        assert p["python_calls"] == t["python_calls"]
        more, rest = divmod(p["bytecodes"] - t["bytecodes"], inserts)
        assert rest == 0
        extra.add(more)
    assert len(extra) == 1 and extra.pop() > 0
