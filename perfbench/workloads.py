"""The benchmark's three workloads: inputs, the timed ops, and the checks.

Each workload splits one round into three steps so the runner can time and
trace them apart:

    inputs = w.build(seed)          # set-up: the round's inputs, from the seed
    played = w.play(inputs)         # the timed ops, one latency sample per op
    failed, problems = w.check(inputs, played)   # outside any timing

check() never compares against stored output.  It recomputes the answer
with code that shares nothing with triheap (sorted(), or the Model below),
or tests a property the method guarantees (digit bounds, the comparison
ceiling, validate()).  failed is the set of op indices whose result is
wrong; a check on the round's end state fails every op of the round.

The constructors take the sizes, and the classes and functions that the
self-test swaps for faulty ones; the benchmark always runs the defaults.
Calls into triheap go through module attributes (workload.generate_script,
oracle.run_differential) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import bisect
import math
import random
import time
from dataclasses import dataclass, field

from triheap import oracle, workload
from triheap.forest import FixPolicy
from triheap.workload import QueueRunner

clock = time.perf_counter_ns

# Sizes are chosen so that one round's timed ops take a few tenths of a
# second on a 2-vCPU host, and every round holds well over 1000 ops.
SORT_KEYS = 10_000          # 20,000 ops: n inserts, n delete-mins
MIXED_OPS = 25_000
VERIFY_FILL = 600          # inserts, then
VERIFY_MIX = 800            # mixed ops


@dataclass
class Played:
    """What one round's timed ops produced."""

    lat_ns: list                 # per-op latency, in op order
    comparisons: int             # CountingComparator.count at the end
    results: list = field(default_factory=list)
    runner: object = None        # the QueueRunner, for end-state checks
    extra: dict = field(default_factory=dict)


class Model:
    """Live multiset keyed by script handle number; the checks' reference.

    A sorted key list gives the minimum, and a handle map follows dk/del.
    On a tied delete-min the lowest handle number leaves; the queue may
    remove another holder of the same key, which `removed_at` allows for.
    """

    def __init__(self):
        self.keys = []           # sorted multiset of live keys
        self.live = {}           # handle number -> key
        self.holders = {}        # key -> set of live handle numbers
        self.removed_at = {}     # handle number -> key it held at delete-min
        self.inserts = 0

    def _add(self, eid, key):
        self.live[eid] = key
        self.holders.setdefault(key, set()).add(eid)
        bisect.insort(self.keys, key)

    def _drop(self, eid):
        key = self.live.pop(eid)
        holders = self.holders[key]
        holders.discard(eid)
        if not holders:
            del self.holders[key]
        del self.keys[bisect.bisect_left(self.keys, key)]
        return key

    def apply(self, op):
        """Apply one script op; returns the expected key for dm/fm."""
        kind = op[0]
        if kind == "i":
            self._add(self.inserts, op[1])
            self.inserts += 1
        elif kind == "fm":
            return self.keys[0]
        elif kind == "dm":
            key = self.keys[0]
            eid = min(self.holders[key])
            self._drop(eid)
            self.removed_at[eid] = key
            return key
        elif kind == "dk":
            self._drop(op[1])
            self._add(op[1], op[2])
        elif kind == "del":
            self._drop(op[1])
        return None

    def handle_problems(self, handles):
        """Each live handle must hold the key the model gives its number."""
        problems = []
        for eid, handle in enumerate(handles):
            if not handle.alive:
                continue
            want = self.live.get(eid, self.removed_at.get(eid))
            if handle.key != want:
                problems.append(f"handle {eid} holds {handle.key!r}, "
                                f"model says {want!r}")
        return problems


def queue_keys(queue):
    return sorted(key for tree in queue.forest.trees() for key in tree.keys())


class SortEager:
    """Heapsort of random 32-bit keys, the path of run_sort / triheap sort."""

    name = "sort-eager"
    policy = FixPolicy("eager")

    def __init__(self, keys=SORT_KEYS, runner_cls=QueueRunner):
        self.n = keys
        self.round_ops = 2 * keys
        self.runner_cls = runner_cls

    def build(self, seed):
        rng = random.Random(seed)
        return [rng.getrandbits(32) for _ in range(self.n)]

    def play(self, keys):
        runner = self.runner_cls(policy=self.policy)
        queue = runner.queue
        forest = queue.forest
        insert = queue.insert
        delete_min = queue.delete_min
        lat = []
        digits = []
        out = []
        for key in keys:
            t0 = clock()
            insert(key)
            lat.append(clock() - t0)
            digits.append(forest.max_digit())
        for _ in keys:
            t0 = clock()
            key = delete_min()[0]
            lat.append(clock() - t0)
            out.append(key)
            digits.append(forest.max_digit())
        return Played(lat, queue.comparator.count, out,
                      extra={"digits": digits})

    def check(self, keys, played):
        n = len(keys)
        failed = set()
        problems = []
        for i, (got, want) in enumerate(zip(played.results, sorted(keys))):
            if got != want:
                failed.add(n + i)
        if failed:
            problems.append(f"{len(failed)} delete-min keys out of order")
        over = [i for i, d in enumerate(played.extra["digits"]) if d > 2]
        if over:
            failed.update(over)
            problems.append(f"digit above 2 after {len(over)} ops")
        ceiling = 4 * n * math.log2(max(2, n))
        if played.comparisons > ceiling:
            failed.update(range(2 * n))
            problems.append(f"{played.comparisons} comparisons > "
                            f"4 n log2 n = {ceiling:.0f}")
        return failed, problems


class MixedRelaxed:
    """A generate_script mix replayed through QueueRunner, relaxed policy."""

    name = "mixed-relaxed"
    policy = FixPolicy("relaxed")

    def __init__(self, ops=MIXED_OPS, runner_cls=QueueRunner):
        self.round_ops = ops
        self.runner_cls = runner_cls

    def build(self, seed):
        return workload.generate_script(seed, self.round_ops).ops

    def play(self, ops):
        runner = self.runner_cls(policy=self.policy)
        apply = runner.apply
        lat = []
        results = []
        for op in ops:
            t0 = clock()
            got = apply(op)
            lat.append(clock() - t0)
            results.append(got)
        return Played(lat, runner.queue.comparator.count, results, runner)

    def check(self, ops, played):
        model = Model()
        failed = set()
        for i, (op, got) in enumerate(zip(ops, played.results)):
            if model.apply(op) != got:
                failed.add(i)
        problems = [f"{len(failed)} find-min/delete-min keys differ from "
                    f"the model"] if failed else []
        queue = played.runner.queue
        end = []
        if queue_keys(queue) != model.keys:
            end.append("final key multiset differs from the model")
        end.extend(model.handle_problems(played.runner.handles))
        end.extend(queue.validate())
        if queue.forest.max_digit() > 4:
            end.append(f"digit {queue.forest.max_digit()} above 4 at the end")
        if end:
            failed.update(range(len(ops)))
            problems.extend(end)
        return failed, problems


class VerifyAudit:
    """run_differential with audit="always" on a script passed as text.

    The script is `fill` inserts followed by a `mix`-op generate_script mix.
    Every op audits the whole queue, so an op's cost follows the queue size.
    A bare mix starts empty and its size follows a random walk, which spread
    p99 latency by 27% over five seeds; the inserts in front set the size,
    and the walk is then a small share of it.
    """

    name = "verify-audit"
    policy = FixPolicy("eager")  # triheap verify's default

    def __init__(self, fill=VERIFY_FILL, mix=VERIFY_MIX,
                 runner_cls=QueueRunner, parse=None):
        self.fill = fill
        self.mix = mix
        self.round_ops = fill + mix
        self.runner_cls = runner_cls
        self.parse = parse

    def build(self, seed):
        fill = workload.generate_script(f"{seed}-fill", self.fill,
                                        weights={"i": 1}).ops
        mix = workload.generate_script(seed, self.mix).ops
        # The mix numbers its handles from 0; they follow the fill's.
        ops = fill + [(op[0], op[1] + self.fill) + op[2:]
                      if op[0] in ("dk", "del") else op for op in mix]
        text = workload.format_script(workload.WorkloadScript(ops, seed))
        parsed = (self.parse or workload.parse_script)(text)
        # The model replays the generated ops, not the parsed ones, so a
        # fault in the text round trip shows even though run_differential
        # feeds the same parsed script to the queue and its oracle.
        return ops, parsed

    def play(self, inputs):
        runners = []
        stamps = []

        def factory(policy):
            runner = self.runner_cls(policy=policy)
            apply = runner.apply

            def stamped(op):
                stamps.append(clock())
                return apply(op)

            runner.apply = stamped
            runners.append(runner)
            return runner

        verdict = oracle.run_differential(inputs[1], policy=self.policy,
                                          audit="always",
                                          runner_factory=factory)
        stamps.append(clock())
        # An op's latency runs from its apply to the next op's apply, so it
        # holds the oracle step and the full audit that follow it.
        lat = [b - a for a, b in zip(stamps, stamps[1:])]
        runner = runners[0]
        return Played(lat, runner.queue.comparator.count, runner=runner,
                      extra={"verdict": verdict})

    def check(self, inputs, played):
        ops = inputs[0]
        model = Model()
        for op in ops:
            model.apply(op)
        problems = []
        verdict = played.extra["verdict"]
        if not verdict.passed:
            problems.append(f"verdict: {verdict}")
        if len(played.lat_ns) != len(ops):
            problems.append(f"{len(played.lat_ns)} ops ran, script has "
                            f"{len(ops)}")
        if queue_keys(played.runner.queue) != model.keys:
            problems.append("final key multiset differs from the model")
        return (set(range(len(ops))) if problems else set()), problems


WORKLOADS = {w.name: w for w in (SortEager, MixedRelaxed, VerifyAudit)}
