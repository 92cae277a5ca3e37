#!/usr/bin/env python3
r"""Benchmark of triheap's three user paths: heapsort, mixed replay, verify.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sort-eager --seed 1 \
        --seconds 40 --trace 0

A run repeats short rounds of one workload for --seconds seconds.  Every
round rebuilds its inputs from the seed (timed as set-up), starts a fresh
queue, runs the ops with gc collected and then paused, and checks the
outputs outside the timed part.  Every round replays the same ops, so the
time metrics take each op's least latency over the rounds: on a host that
switches between speed phases, that repeats far better than a mean, a
median or one long pass (see README.md).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics of the fastest traced round,
plus the tracing overhead against the fastest untraced one.  The last line
of stdout is one JSON object; lines before it starting with "#" are
diagnostics, such as the host-speed probe.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

clock = time.perf_counter_ns


def load_triheap():
    """Import triheap from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "triheap", "__init__.py")):
        sys.exit(f"perfbench: no triheap sources at {SRC}")
    sys.dont_write_bytecode = True
    sys.path[:0] = [SRC, HERE]
    import triheap
    if not os.path.abspath(triheap.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported triheap from {triheap.__file__}")


def host_probe():
    """Best of three runs of a fixed pure-Python loop, in ms."""
    best = None
    for _ in range(3):
        t0 = clock()
        x = 0
        for i in range(200_000):
            x += i & 7
        took = (clock() - t0) / 1e6
        best = took if best is None else min(best, took)
    return best


def quantile(sorted_values, q):
    """Nearest-rank quantile of an already sorted list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Round:
    __slots__ = ("traced", "setup_ns", "time_ns", "lat_ns", "comparisons",
                 "failed", "problems", "tracer")

    def __init__(self, traced):
        self.traced = traced
        self.setup_ns = None
        self.time_ns = None
        self.lat_ns = None
        self.comparisons = None
        self.failed = 0
        self.problems = []
        self.tracer = None


def run_round(w, seed, tracer=None):
    """One round: set-up and timed ops, traced if a tracer is given; checks."""
    r = Round(tracer is not None)
    r.tracer = tracer
    gc.collect()
    gc.disable()
    if tracer is not None:
        tracer.install()
    try:
        t0 = clock()
        inputs = w.build(seed)
        r.setup_ns = clock() - t0
        played = w.play(inputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
        gc.enable()
    failed, r.problems = w.check(inputs, played)
    r.failed = len(failed)
    r.lat_ns = played.lat_ns
    r.time_ns = sum(played.lat_ns)
    r.comparisons = played.comparisons
    return r


def attempt_round(w, seed, tracer=None):
    """run_round, with a round that raises counted as all its ops failed."""
    try:
        return run_round(w, seed, tracer)
    except Exception:
        traceback.print_exc()
        r = Round(tracer is not None)
        r.failed = w.round_ops
        r.problems = ["round raised; see the traceback on stderr"]
        return r


def run(w, seed, seconds, traced, tracer_cls):
    """Whole rounds until the time is up.

    Returns the Rounds, each op's least latency over the untraced rounds
    that passed their checks, and the fastest traced round that did.
    Rounds cycle through the CPUs this process may use, one CPU per round,
    since each vCPU has slow phases of its own; a traced run takes a block
    of untraced rounds, then a block of traced ones, each block one round
    per CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    rounds = []
    op_min = None
    best_traced = None
    deadline = clock() + seconds * 1_000_000_000
    try:
        while (len(rounds) < (2 * len(cpus) if traced else 1)
               or clock() < deadline):
            k = len(rounds)
            trace_this = traced and (k // len(cpus)) % 2 == 1
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            r = attempt_round(w, seed, tracer_cls() if trace_this else None)
            rounds.append(r)
            if timed(r, True) and (best_traced is None
                                   or r.time_ns < best_traced.time_ns):
                best_traced = r
            if timed(r, False):
                op_min = (r.lat_ns if op_min is None
                          else list(map(min, op_min, r.lat_ns)))
            # Memory, and peak_rss_mb with it, must not grow with the run.
            r.lat_ns = None
            if r is not best_traced:
                r.tracer = None
    finally:
        os.sched_setaffinity(0, cpus)
    return rounds, op_min, best_traced


def timed(r, traced):
    """Whether a round of this kind ran to the end and passed its checks."""
    return r.traced == traced and r.time_ns is not None and not r.failed


def count_failed(w, rounds):
    """The run's failed ops; all of them when rounds disagree on the
    comparison count, since every round replays the same ops."""
    counts = {r.comparisons for r in rounds if r.comparisons is not None}
    if len(counts) > 1:
        print(f"perfbench: comparison counts differ between rounds of one "
              f"seed: {sorted(counts)}", file=sys.stderr)
        return w.round_ops * len(rounds)
    return sum(r.failed for r in rounds)


def end_to_end(w, rounds, op_min):
    plain = [r for r in rounds if timed(r, False)]
    if not plain:
        sys.exit("perfbench: no round ran to the end and passed its checks")
    lat = sorted(op_min)
    ops = w.round_ops
    times = [r.time_ns / 1e9 for r in plain]
    print(f"# rounds timed: {len(plain)}, fastest {min(times):.4f} s, median "
          f"{statistics.median(times):.4f} s, sum of per-op least latencies "
          f"{sum(lat) / 1e9:.4f} s")
    print(f"# latency samples: {len(lat)} ops, "
          f"{len(lat) - math.ceil(0.99 * len(lat))} beyond p99")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (min(r.setup_ns for r in plain) / 1e9, "s"),
        "ops_per_s": (ops / (sum(lat) / 1e9), "1/s"),
        "op_p50_us": (quantile(lat, 0.50) / 1e3, "us"),
        "op_p99_us": (quantile(lat, 0.99) / 1e3, "us"),
        "comparisons_per_op": (plain[0].comparisons / ops, "1/op"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(w, rounds, best_traced):
    plain = [r.time_ns for r in rounds if timed(r, False)]
    if not plain or best_traced is None:
        sys.exit("perfbench: no round ran to the end and passed its checks")
    print(f"# fastest untraced round {min(plain) / 1e9:.4f} s, "
          f"fastest traced round {best_traced.time_ns / 1e9:.4f} s")
    metrics = best_traced.tracer.metrics(w.round_ops)
    metrics["trace.overhead_pct"] = (
        (best_traced.time_ns / min(plain) - 1) * 100, "%")
    return metrics


def write_record(args, probes, rounds, best_traced, result):
    """Keep the run's result, every round's times and, for a traced run,
    the raw span counters of the fastest traced round, in perfbench/out/."""
    record = {
        "args": vars(args),
        "host_probe_ms": probes,
        "rounds": [{"traced": r.traced, "setup_ns": r.setup_ns,
                    "time_ns": r.time_ns, "failed": r.failed}
                   for r in rounds],
        "spans": {name: {k: getattr(stat, k) for k in stat.__slots__}
                  for name, stat in best_traced.tracer.stats.items()}
        if best_traced is not None else {},
        "result": result,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}.seed{args.seed}"
                             f".trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_triheap()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]()

    print(f"# python {sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"workload {w.name}, seed {args.seed}, {w.round_ops} ops per round")
    probes = [host_probe()]
    print(f"# host-probe start: {probes[0]:.3f} ms")
    rounds, op_min, best_traced = run(w, args.seed, args.seconds,
                                      args.trace == 1, Tracer)
    probes.append(host_probe())
    print(f"# host-probe end: {probes[1]:.3f} ms")

    for r in rounds:
        for p in r.problems[:5]:
            print(f"perfbench: {p}", file=sys.stderr)
    failed = count_failed(w, rounds)

    metrics = (per_layer(w, rounds, best_traced) if args.trace
               else end_to_end(w, rounds, op_min))
    result = {
        "correct": failed == 0,
        "attempted": w.round_ops * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    write_record(args, probes, rounds, best_traced, result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
