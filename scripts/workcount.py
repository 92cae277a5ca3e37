#!/usr/bin/env python3
"""Deterministic work counts of a ref's src/: bytecodes, Python calls and C
calls per op, on three fixed inputs.

Usage, from anywhere inside a checkout:

    python3 scripts/workcount.py REF [REF] [--sort-keys 10000] \
        [--mixed-ops 25000] [--verify-fill 600] [--verify-mix 800] \
        [--out FILE]

Each ref is exported with `git archive` into a temporary directory, as
scripts/ab.py exports it, so the repository stays as it is.  A child Python
imports triheap from that export's src/ alone and replays three inputs, the
shapes of the benchmark's workloads at seed 1:

- sort-eager: a heapsort of --sort-keys random 32-bit keys, eager policy;
- mixed-relaxed: generate_script(1, --mixed-ops) through QueueRunner,
  relaxed policy;
- verify-audit: run_differential with audit="always", eager policy, on the
  parsed text of --verify-fill inserts (seed "1-fill") and a --verify-mix
  generate_script mix.

Only the replay is counted; building its input is not.  Bytecodes are
sys.settrace's "opcode" events (f_trace_opcodes), Python calls
sys.setprofile's "call" events and C calls its "c_call" events, also split
by callee.  The counts include the replay's own driving loop, alike for
every ref, and see no work inside a C call (list.remove's scan, a type
call with no Python __init__).  The same code gives the same counts on
every run; they do not replace wall time.

The output is JSON: per ref its commit and, per input, its op count, the
three totals, the three per-op figures and C calls per op by callee, most
first; with two refs also each per-op figure's change over the first.
Exit status 1 when a replay gave a wrong result or a child failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter

from ab import export, git

FIGURES = ("bytecodes", "python_calls", "c_calls")


def measure(replay):
    """Run replay() under both hooks; returns (bytecodes, python calls,
    C calls by callee object)."""
    opcodes = 0
    calls = 0
    c_calls = Counter()

    def local(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
        elif event == "c_call":
            c_calls[arg] += 1

    sys.settrace(trace)
    sys.setprofile(profile)
    try:
        replay()
    finally:
        sys.setprofile(None)
        sys.settrace(None)
    c_calls.pop(sys.setprofile, None)  # the call that ends the count
    return opcodes, calls, c_calls


def inputs(sizes):
    """(name, op count, replay, check) per input; check() is True when the
    replay's result is right."""
    from triheap import FixPolicy, Queue
    from triheap.oracle import run_differential
    from triheap.workload import (QueueRunner, WorkloadScript, format_script,
                                  generate_script, parse_script)

    rng = random.Random(1)
    keys = [rng.getrandbits(32) for _ in range(sizes["sort_keys"])]
    out = []

    def sort():
        q = Queue(policy=FixPolicy("eager"))
        for key in keys:
            q.insert(key)
        out.extend(q.delete_min()[0] for _ in keys)

    mixed = generate_script(1, sizes["mixed_ops"]).ops
    runner = QueueRunner(policy=FixPolicy("relaxed"))

    fill = sizes["verify_fill"]
    ops = generate_script("1-fill", fill, weights={"i": 1}).ops + [
        (op[0], op[1] + fill) + op[2:] if op[0] in ("dk", "del") else op
        for op in generate_script(1, sizes["verify_mix"]).ops]
    script = parse_script(format_script(WorkloadScript(ops, 1)))
    verdicts = []
    return [
        ("sort-eager", 2 * len(keys), sort, lambda: out == sorted(keys)),
        ("mixed-relaxed", len(mixed), lambda: runner.run(mixed),
         lambda: runner.queue.validate() == []),
        ("verify-audit", len(script.ops),
         lambda: verdicts.append(run_differential(
             script, policy=FixPolicy("eager"), audit="always")),
         lambda: verdicts[0].passed),
    ]


def count(sizes):
    """The counts of every input, in this process's triheap."""
    result = {}
    for name, ops, replay, check in inputs(sizes):
        opcodes, calls, c_calls = measure(replay)
        if not check():
            raise RuntimeError(f"{name}: the replay's result is wrong")
        totals = dict(zip(FIGURES, (opcodes, calls, sum(c_calls.values()))))
        by_callee = Counter()
        for callee, n in c_calls.items():
            by_callee[callee.__qualname__] += n
        result[name] = {
            "ops": ops,
            **totals,
            **{f"{f}_per_op": totals[f] / ops for f in FIGURES},
            "c_calls_per_op_by_callee": {
                callee: n / ops for callee, n in by_callee.most_common()},
        }
    return result


def run_child(src, sizes):
    """Count in a fresh Python that imports triheap from src alone."""
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", src,
         "--sizes", json.dumps(sizes)],
        env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout)


def compare(first, second):
    """Each per-op figure's change of second over first, per input."""
    return {name: {f"{f}_per_op": second[name][f"{f}_per_op"]
                   / first[name][f"{f}_per_op"] - 1 for f in FIGURES}
            for name in first}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("refs", nargs="*", metavar="REF")
    parser.add_argument("--sort-keys", type=int, default=10_000)
    parser.add_argument("--mixed-ops", type=int, default=25_000)
    parser.add_argument("--verify-fill", type=int, default=600)
    parser.add_argument("--verify-mix", type=int, default=800)
    parser.add_argument("--out", help="write the JSON here, not to stdout")
    # The parent process runs this file again, in a fresh interpreter, to
    # count one export.
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--sizes", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        import triheap
        if not triheap.__file__.startswith(args.child):
            raise RuntimeError(f"triheap imported from {triheap.__file__}")
        json.dump(count(json.loads(args.sizes)), sys.stdout)
        return 0
    if not 1 <= len(args.refs) <= 2:
        parser.error("give one or two refs")
    sizes = {"sort_keys": args.sort_keys, "mixed_ops": args.mixed_ops,
             "verify_fill": args.verify_fill, "verify_mix": args.verify_mix}
    if min(sizes.values()) < 1:
        parser.error("every size must be at least 1")
    commits = [git("rev-parse", "--verify", f"{ref}^{{commit}}")
               for ref in args.refs]
    refs = []
    with tempfile.TemporaryDirectory(prefix="workcount-") as tmp:
        for i, (ref, commit) in enumerate(zip(args.refs, commits)):
            into = os.path.join(tmp, str(i))
            export(commit, into)
            print(f"# counting {ref} ({commit[:12]})", file=sys.stderr,
                  flush=True)
            refs.append({"ref": ref, "commit": commit,
                         "counts": run_child(os.path.join(into, "src"),
                                             sizes)})
    doc = {
        "command": " ".join(["python3", "scripts/workcount.py",
                             *(sys.argv[1:] if argv is None else argv)]),
        "host": f"Python {sys.version.split()[0]}",
        "sizes": sizes,
        "refs": refs,
    }
    failed = any(r["counts"] is None for r in refs)
    if len(refs) == 2 and not failed:
        doc["second_over_first"] = compare(refs[0]["counts"],
                                           refs[1]["counts"])
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
