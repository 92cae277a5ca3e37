#!/usr/bin/env python3
"""A/B run of perfbench: two git refs, alternating pairs, one JSON summary.

Usage, from anywhere inside a checkout:

    python3 scripts/ab.py PARENT CHANGE --seeds 1201-1210 --seconds 40 \
        [--same-counts] [--traced 1211-1213] [--workloads NAME[,NAME]] \
        [--out BENCH_n.json]

Both refs are exported with `git archive` into a temporary directory, so
the repository and its .git stay as they are.  For each seed and each
workload of BENCHMARK.json it runs `perfbench/run.py --trace 0` once in
each export, the parent first on even-numbered pairs and the change first
on odd ones; with --traced (a seed or a range, as --seeds takes), one pair
of --trace 1 runs per traced seed and workload follows, alternating alike.
--workloads runs only the named workloads, in BENCHMARK.json's order; a
name it does not list is a usage error (exit 2) before any export.

The output has BENCH_10.json's summary per workload (medians, quartiles by
statistics.quantiles(..., method="inclusive"), change_over_parent, better
and equal pairs, worse_by against the BENCHMARK.json bound), the per-layer
metrics of the traced pairs (median and quartiles per side, and the value
per seed; for each *.self_us_per_op span also its share of that run's
sum of them, which a slow host phase leaves alone), each run's result without its per-round arrays, and the
verdict.  Exit status 1 when any op failed or a run gave no result, the
traced runs included, when a median is worse than its bound, or, with
--same-counts, when comparisons_per_op differs in any pair; else 0.
SIGTERM stops it like an error, so the exports are removed and a running
child is killed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shlex
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def export(ref, into):
    """Write the files of ref, as committed, into the directory into."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref], check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def run_one(checkout, workload, seed, seconds, trace):
    """One perfbench run in checkout: its host probes and result, or a
    result of None when it gave none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    probes = [float(line.split()[-2]) for line in lines
              if line.startswith("# host-probe")]
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        result = None
    if result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return {"args": {"workload": workload, "seed": seed, "seconds": seconds,
                     "trace": trace},
            "host_probe_ms": probes, "result": result}


def key(workload, seed, trace):
    return f"{workload}.seed{seed}.trace{trace}"


def value(record, metric):
    return record["result"]["metrics"][metric]["value"]


def spread(values):
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def summarize(records, workload, seeds, end_to_end):
    """BENCH_10's summary of one workload's untraced pairs."""
    runs = {side: [records[side][key(workload, s, 0)] for s in seeds]
            for side in SIDES}
    whole = all(r["result"] is not None for side in SIDES
                for r in runs[side])
    out = {
        "pairs": len(seeds),
        "seeds": list(seeds),
        "first": {str(s): SIDES[i % 2] for i, s in enumerate(seeds)},
        "missing_runs": {side: sum(r["result"] is None for r in runs[side])
                         for side in SIDES},
        "failed_ops": {side: sum(r["result"]["failed"] for r in runs[side]
                                 if r["result"] is not None)
                       for side in SIDES},
        "attempted_ops": {side: sum(r["result"]["attempted"]
                                    for r in runs[side]
                                    if r["result"] is not None)
                          for side in SIDES},
    }
    if not whole:
        return out
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(value(p, name), value(c, name))
                 for p, c in zip(runs["parent"], runs["change"])]
        parent = spread([p for p, _ in pairs])
        change = spread([c for _, c in pairs])
        over = change["median"] / parent["median"] - 1
        worse_by = over if lower else -over
        out[name] = {
            "parent": parent,
            "change": change,
            "change_over_parent": over,
            "change_better_pairs": sum((c < p) if lower else (c > p)
                                       for p, c in pairs),
            "equal_pairs": sum(c == p for p, c in pairs),
            "worse_by": worse_by,
            "bound": metric["bound"],
            "within_bound": worse_by <= metric["bound"],
            "parent_iqr_over_median":
                (parent["q3"] - parent["q1"]) / parent["median"],
        }
        if name == "comparisons_per_op":
            out[name]["per_seed"] = {
                str(s): {"parent": p, "change": c,
                         "change_over_parent": c / p - 1}
                for s, (p, c) in zip(seeds, pairs)}
    return out


SPAN_TIME = ".self_us_per_op"


def shares(metrics):
    """Each *.self_us_per_op span's value over the sum of them in one run's
    metrics: a host phase that slows every span alike leaves them as they
    are."""
    spans = {name: m["value"] for name, m in metrics.items()
             if name.endswith(SPAN_TIME)}
    total = sum(spans.values())
    return {name: v / total if total else 0.0 for name, v in spans.items()}


def layers(pairs):
    """Per-layer metrics of one workload's traced pairs, {seed: {side:
    record}}: per metric, spread() per side and the values per seed, and
    for each *.self_us_per_op span the same of its share (shares()).
    Pairs with a run that gave no result are left out."""
    pairs = {seed: {side: r["result"] for side, r in runs.items()}
             for seed, runs in pairs.items()
             if all(r["result"] is not None for r in runs.values())}
    if not pairs:
        return {}
    share = {seed: {side: shares(result["metrics"])
                    for side, result in runs.items()}
             for seed, runs in pairs.items()}

    def tabulate(read):
        per_seed = {str(seed): {side: read(seed, side) for side in SIDES}
                    for seed in pairs}
        out = {side: spread([v[side] for v in per_seed.values()])
               for side in SIDES}
        out["per_seed"] = per_seed
        return out

    out = {}
    for name in next(iter(pairs.values()))["parent"]["metrics"]:
        out[name] = tabulate(lambda seed, side:
                            pairs[seed][side]["metrics"][name]["value"])
        if name.endswith(SPAN_TIME):
            out[name]["share"] = tabulate(lambda seed, side:
                                         share[seed][side][name])
    return out


def verdict(summary, traced, same_counts):
    """The reasons to exit 1, as lines; empty when the A/B passes."""
    failures = []
    for workload, s in summary.items():
        for side in SIDES:
            if s["missing_runs"][side]:
                failures.append(f"{workload}: {s['missing_runs'][side]} "
                                f"{side} runs gave no result")
            if s["failed_ops"][side]:
                failures.append(f"{workload}: {s['failed_ops'][side]} "
                                f"failed ops on the {side} side")
        for name, m in s.items():
            if isinstance(m, dict) and "within_bound" in m \
                    and not m["within_bound"]:
                failures.append(f"{workload}: {name} median worse by "
                                f"{m['worse_by']:.1%}, bound {m['bound']:.0%}")
        per_seed = s.get("comparisons_per_op", {}).get("per_seed", {})
        for seed, pair in per_seed.items() if same_counts else ():
            if pair["parent"] != pair["change"]:
                failures.append(f"{workload} seed {seed}: comparisons_per_op "
                                f"{pair['parent']} -> {pair['change']}")
    for workload, pairs in traced.items():
        for seed, runs in pairs.items():
            for side, r in runs.items():
                if r["result"] is None or r["result"]["failed"]:
                    failures.append(f"{workload}: traced {side} run on seed "
                                    f"{seed} failed")
    return failures


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        metavar="A-B")
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--same-counts", action="store_true",
                        help="fail when comparisons_per_op differs in a pair")
    parser.add_argument("--traced", type=parse_seeds, default=[],
                        metavar="A-B",
                        help="add one traced pair per workload and seed")
    parser.add_argument("--workloads", type=lambda text: text.split(","),
                        metavar="NAME[,NAME]",
                        help="run only these workloads of BENCHMARK.json")
    parser.add_argument("--out", help="write the JSON here, not to stdout")
    args = parser.parse_args(argv)

    top = git("rev-parse", "--show-toplevel")
    with open(os.path.join(top, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        unknown = [w for w in args.workloads if w not in workloads]
        if unknown:
            parser.error(f"unknown workloads {', '.join(unknown)}; "
                         f"BENCHMARK.json has {', '.join(workloads)}")
        workloads = [w for w in workloads if w in args.workloads]
    commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}")
               for side, ref in zip(SIDES, (args.parent, args.change))}
    records = {side: {} for side in SIDES}
    traced = {w: {} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        checkouts = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            export(commits[side], checkouts[side])
        plan = [(w, s, trace, i % 2)
                for trace, seeds in enumerate((args.seeds, args.traced))
                for i, s in enumerate(seeds) for w in workloads]
        for n, (w, seed, trace, change_first) in enumerate(plan, 1):
            order = SIDES[::-1] if change_first else SIDES
            for side in order:
                print(f"# {n}/{len(plan)} {side} {key(w, seed, trace)}",
                      file=sys.stderr, flush=True)
                records[side][key(w, seed, trace)] = run_one(
                    checkouts[side], w, seed, args.seconds, trace)
            if trace:
                traced[w][seed] = {side: records[side][key(w, seed, 1)]
                                   for side in SIDES}

    summary = {w: summarize(records, w, args.seeds, bench["end_to_end"])
               for w in workloads}
    per_layer = {w: layers(pairs) for w, pairs in traced.items() if pairs}
    failures = verdict(summary, traced, args.same_counts)
    doc = {
        "parent": {"ref": args.parent, "commit": commits["parent"]},
        "change": {"ref": args.change, "commit": commits["change"]},
        "command": shlex.join(["python3", "scripts/ab.py",
                               *(sys.argv[1:] if argv is None else argv)]),
        "host": f"Python {sys.version.split()[0]}, nproc {os.cpu_count()}",
        "quartiles": "statistics.quantiles(values, n=4, method='inclusive') "
                     "over the pairs' per-run values",
        "summary": summary,
        "per_layer": per_layer,
        "records": records,
        "verdict": {"passed": not failures, "failures": failures},
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for line in failures:
        print(f"ab: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    # As SystemExit, SIGTERM unwinds through subprocess.run and
    # TemporaryDirectory, which kill the child and remove the exports.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
