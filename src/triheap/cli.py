"""Command-line front end: workload replay, heapsort, counter, dot dumps.

Exit codes: 0 pass, 1 divergence or invariant failure, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import random
import sys

from .counter import SkewCounter
from .errors import ContractViolation, HeapError
from .forest import FixPolicy
from .oracle import run_differential
from .workload import (STATS_COLUMNS, QueueRunner, ScriptParseError,
                       generate_script, parse_script)

_TABLE_FMT = "{:>8} {:<12} {:>8} {:>6} {:>14} {:>12} {:>9} {:>10}"


def policy_from_args(args):
    """The FixPolicy the flags name; a bad value is a usage error."""
    try:
        return FixPolicy(mode=args.policy, relaxed_budget=args.relaxed_budget)
    except ContractViolation as exc:
        raise ScriptParseError(str(exc)) from exc


def _stats_writer(stream, fmt):
    """Returns a callable that streams StatsRecords to one output line each."""
    if fmt == "table":
        stream.write(_TABLE_FMT.format(*STATS_COLUMNS) + "\n")

        def write(rec):
            stream.write(_TABLE_FMT.format(*rec.row()) + "\n")
    else:
        stream.write(",".join(STATS_COLUMNS) + "\n")

        def write(rec):
            stream.write(",".join(str(x) for x in rec.row()) + "\n")
    return write


def run_sort(keys, policy=None, stats_sink=None):
    """Heapsort: insert every key, then delete-min until empty.

    Returns (sorted keys, final StatsRecord).  stats_sink, when given, gets
    one StatsRecord per operation.
    """
    runner = QueueRunner(policy=policy)
    insert = runner.queue.insert
    delete_min = runner.queue.delete_min
    n = len(keys)
    for i, key in enumerate(keys):
        insert(key)
        if stats_sink is not None:
            stats_sink(runner.stats(i, "i"))
    out = []
    for i in range(n, 2 * n):
        out.append(delete_min()[0])
        if stats_sink is not None:
            stats_sink(runner.stats(i, "dm"))
    return out, runner.stats(2 * n - 1 if n else 0, "dm" if n else "none")


def _read_text(path):
    """The whole text of a file, or of stdin when path is "-"."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _read_keys(path):
    text = _read_text(path)
    try:
        return [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise ScriptParseError(f"bad key in input: {exc}") from exc


def cmd_sort(args):
    keys = _read_keys(args.input)
    policy = policy_from_args(args)  # a usage error leaves --stats unopened
    if args.stats in ("-", "none"):
        sink = _stats_writer(sys.stderr, args.fmt) if args.stats == "-" \
            else None
        out, _ = run_sort(keys, policy, stats_sink=sink)
    else:
        with open(args.stats, "w") as fh:
            out, _ = run_sort(keys, policy,
                              stats_sink=_stats_writer(fh, args.fmt))
    sys.stdout.write("".join(f"{k}\n" for k in out))
    return 0


def cmd_counter(args):
    if args.increments < 0:
        raise ScriptParseError("increment count must be >= 0")
    counter = SkewCounter(policy_from_args(args))
    write = sys.stdout.write
    if args.fmt == "table":
        write(f"{'step':>8} {'carries':>8}  digits\n")
        row = "{:>8} {:>8}  {}\n"
    else:
        write("step,carries,digits\n")
        row = "{},{},{}\n"
    for step in range(1, args.increments + 1):
        counter.increment()
        digits = " ".join(str(d) for d in counter.digits)
        write(row.format(step, counter.carries, digits))
    return 0


def cmd_verify(args):
    script = parse_script(_read_text(args.script))
    verdict = run_differential(script, policy_from_args(args),
                               audit=args.audit)
    if verdict.passed:
        print(verdict)
        return 0
    print(verdict, file=sys.stderr)
    return 1


def cmd_bench(args):
    if min(args.sizes) < 0:
        raise ScriptParseError("bench sizes must be >= 0")
    policy = policy_from_args(args)
    write = _stats_writer(sys.stdout, args.fmt)
    for n in args.sizes:
        print(f"# bench n={n} workload=sort policy={args.policy} "
              f"seed={args.seed}")
        rng = random.Random(f"{args.seed}:{n}:sort")
        keys = [rng.getrandbits(32) for _ in range(n)]
        run_sort(keys, policy, stats_sink=write)
        print(f"# bench n={n} workload=mixed policy={args.policy} "
              f"seed={args.seed}")
        script = generate_script(f"{args.seed}:{n}:mixed", n)
        runner = QueueRunner(policy=policy)
        for i, op in enumerate(script.ops):
            runner.apply(op)
            write(runner.stats(i, op[0]))
    return 0


def cmd_dot(args):
    script = parse_script(_read_text(args.script))
    at = len(script.ops) if args.at is None else args.at
    if not 0 <= at <= len(script.ops):
        raise ScriptParseError(
            f"--at {at} out of range for a {len(script.ops)}-op script")
    runner = QueueRunner(policy=policy_from_args(args))
    for op in script.ops[:at]:
        runner.apply(op)
    sys.stdout.write(forest_to_dot(runner.queue))
    return 0


def forest_to_dot(queue):
    """Graphviz text for the forest: keys as labels, trees grouped by height."""
    lines = ["digraph forest {", "  node [shape=circle];"]
    idx = 0
    for h, bucket in queue.forest.buckets.items():
        lines.append(f"  subgraph cluster_h{h} {{")
        lines.append(f'    label="height {h}";')
        for root in bucket:
            stack = [(root, None)]
            while stack:
                node, parent_id = stack.pop()
                nid = f"n{idx}"
                idx += 1
                lines.append(f'    {nid} [label="{node.key}"];')
                if parent_id is not None:
                    lines.append(f"    {parent_id} -> {nid};")
                if node.left is not None:
                    stack.append((node.right, nid))
                    stack.append((node.left, nid))
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def build_parser():
    """Every subcommand takes --policy and --relaxed-budget; the other flags
    go only to the subcommands that read them."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--policy", choices=["eager", "relaxed"],
                        default="eager")
    common.add_argument("--relaxed-budget", type=int, default=1, metavar="K")
    formatted = argparse.ArgumentParser(add_help=False, parents=[common])
    formatted.add_argument("--format", choices=["csv", "table"],
                           default="csv", dest="fmt")

    parser = argparse.ArgumentParser(
        prog="triheap",
        description="Priority queue built from perfect heap-ordered binary "
                    "trees, with potential-function instrumentation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sort", parents=[formatted],
                       help="heapsort keys from a file or stdin")
    p.add_argument("input", nargs="?", default="-",
                   help="file of whitespace-separated integer keys, - for stdin")
    p.add_argument("--stats", default="-", metavar="PATH",
                   help="per-op stats destination: - for stderr, none, or a file")
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser("counter", parents=[formatted],
                       help="simulate the pure number system, no keys")
    p.add_argument("increments", type=int)
    p.set_defaults(func=cmd_counter)

    p = sub.add_parser("verify", parents=[common],
                       help="replay a script against the oracle with auditing")
    p.add_argument("script", help="workload script path, - for stdin")
    p.add_argument("--audit", choices=["always", "final"], default="always")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", parents=[formatted],
                       help="insert/delete and mixed workloads over sizes")
    p.add_argument("sizes", type=int, nargs="+")
    p.add_argument("--seed", type=int, default=0, metavar="U64")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("dot", parents=[common],
                       help="dump the forest as graphviz text")
    p.add_argument("script", help="workload script path, - for stdin")
    p.add_argument("--at", type=int, default=None, metavar="N",
                   help="render the state after the first N ops (default all)")
    p.set_defaults(func=cmd_dot)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScriptParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HeapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
