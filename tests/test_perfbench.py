"""The benchmark's self-test against this checkout's sources.

perfbench wraps triheap functions by name, overrides Queue methods to plant
faults and reads forest internals; a change under src/ that breaks any of
that fails here rather than only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("all cases ok")
