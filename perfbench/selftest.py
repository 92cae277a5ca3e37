#!/usr/bin/env python3
"""Self-test of the benchmark's checks: planted faults must fail ops.

Runs every workload at a tiny size through the same round machinery as the
benchmark: once clean, where no op may fail, and once per planted fault,
where the fault must be reported as failed ops by the check named beside
it.  Also runs one traced round per workload and checks that the tracer
restores every wrapped name.  Exits 1 if any case goes wrong.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys

import run

run.load_triheap()

from triheap import tree, workload  # noqa: E402
from triheap.forest import FixPolicy  # noqa: E402
from triheap.queue import Queue  # noqa: E402
from triheap.workload import QueueRunner  # noqa: E402

import tracing  # noqa: E402
from workloads import MixedRelaxed, SortEager, VerifyAudit  # noqa: E402

SEED = 7
MIXED_OPS = 2000


def runner_with(queue_cls, forced=None):
    """A QueueRunner class whose queue is a queue_cls, with a forced policy."""

    class Runner(QueueRunner):
        def __init__(self, policy=None):
            super().__init__(policy=forced or policy)
            self.queue = queue_cls(policy=forced or policy)

    return Runner


class WrongDeleteMin(Queue):
    """The fifth delete-min returns its key plus one."""

    def delete_min(self):
        key, payload = super().delete_min()
        self.dm_calls = getattr(self, "dm_calls", 0) + 1
        return (key + 1 if self.dm_calls == 5 else key), payload


class ExtraComparisons(Queue):
    """Charges 100 phantom comparisons per insert."""

    def insert(self, key, payload=None):
        self.comparator.count += 100
        return super().insert(key, payload)


class DriftingComparisons(Queue):
    """Every other queue made charges one phantom comparison."""

    made = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        DriftingComparisons.made += 1
        self.comparator.count += DriftingComparisons.made % 2


class NoFix(Queue):
    """Never carries, so digits grow without bound."""

    def _run_fix(self):
        return 0


class NoCarries(runner_with(NoFix)):
    """Skips meld-split too, which would move the trees to a queue that
    carries; the split leaves the key multiset as it was anyway."""

    def _meld_split(self, fraction):
        pass


def wrong_nth(kind, nth):
    """A QueueRunner class that reports the nth dm or fm key plus one."""

    class Runner(QueueRunner):
        seen = 0

        def apply(self, op):
            got = super().apply(op)
            if op[0] == kind:
                self.seen += 1
                if self.seen == nth:
                    return got + 1
            return got

    return Runner


class ShiftedInserts(QueueRunner):
    """Stores every insert after the first 100 as key + 1."""

    def apply(self, op):
        if op[0] == "i" and len(self.handles) >= 100:
            op = ("i", op[1] + 1)
        return super().apply(op)


class AfterLastOp(QueueRunner):
    """Runs every op correctly, then plants fault() after the last one."""

    done = 0

    def apply(self, op):
        got = super().apply(op)
        self.done += 1
        if self.done == MIXED_OPS:
            self.fault()
        return got


class SwapHandles(AfterLastOp):
    """Two live handles trade elements: keys, heap order and back-links stay
    consistent, but each handle now holds the other's key."""

    def fault(self):
        a, b = [h.node for h in self.handles if h.alive][:2]
        a.handle, b.handle = b.handle, a.handle
        a.handle.node = a
        b.handle.node = b


class BreakHeapOrder(AfterLastOp):
    """A root and its left child swap contents; handles follow them."""

    def fault(self):
        for t in self.queue.forest.trees():
            if t.height > 0 and t.root.key != t.root.left.key:
                tree._swap_contents(t.root, t.root.left)
                return
        raise AssertionError("no tree to break")


class RaisesMidway(QueueRunner):
    """Raises on every op once 100 elements went in."""

    def apply(self, op):
        if len(self.handles) == 100:
            raise RuntimeError("planted fault")
        return super().apply(op)


def shifted_parse(text):
    """A text round trip that adds one to every inserted key."""
    script = workload.parse_script(text)
    script.ops = [("i", op[1] + 1) if op[0] == "i" else op
                  for op in script.ops]
    return script


def dropped_parse(text):
    """A text round trip that loses the last line."""
    script = workload.parse_script(text)
    script.ops = script.ops[:-1]
    return script


def sort(**kw):
    return SortEager(keys=300, **kw)


def mixed(**kw):
    return MixedRelaxed(ops=MIXED_OPS, **kw)


def verify(**kw):
    return VerifyAudit(fill=50, mix=250, **kw)


# (case, workload, substring the reported problems must contain)
FAULTS = [
    ("sort: wrong delete-min key",
     sort(runner_cls=runner_with(WrongDeleteMin)), "out of order"),
    ("sort: relaxed digits under eager",
     sort(runner_cls=runner_with(Queue, FixPolicy("relaxed"))),
     "digit above 2"),
    ("sort: comparisons over 4 n log2 n",
     sort(runner_cls=runner_with(ExtraComparisons)), "comparisons >"),
    ("mixed: wrong find-min key", mixed(runner_cls=wrong_nth("fm", 3)),
     "differ from the model"),
    ("mixed: inserted keys altered", mixed(runner_cls=ShiftedInserts),
     "final key multiset"),
    ("mixed: handles swapped", mixed(runner_cls=SwapHandles), "model says"),
    ("mixed: heap order broken", mixed(runner_cls=BreakHeapOrder),
     "heap order broken"),
    ("mixed: no carries", mixed(runner_cls=NoCarries), "above 4"),
    ("mixed: a round raises", mixed(runner_cls=RaisesMidway),
     "round raised"),
    ("verify: runner returns a wrong key",
     verify(runner_cls=wrong_nth("dm", 10)), "verdict: divergence"),
    ("verify: parse shifts inserted keys", verify(parse=shifted_parse),
     "final key multiset"),
    ("verify: parse drops the last op", verify(parse=dropped_parse),
     "ops ran"),
]


def main():
    bad = 0
    originals = [vars(owner)[attr] for owner, attr, _, _ in tracing.SPANS]

    def report(ok, case, detail):
        nonlocal bad
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {case}: {detail}")

    for w in (sort(), mixed(), verify()):
        r = run.attempt_round(w, SEED)
        report(r.failed == 0, f"{w.name}: clean round",
               f"{r.failed} of {w.round_ops} ops failed {r.problems[:2]}")

        t = tracing.Tracer()
        r = run.attempt_round(w, SEED, t)
        ops = sum(t.stats[f"queue.{op}"].calls
                  for op in ("insert", "delete_min", "find_min",
                             "decrease_key", "delete", "meld"))
        restored = all(vars(owner)[attr] is fn for (owner, attr, _, _), fn
                       in zip(tracing.SPANS, originals))
        report(r.failed == 0 and ops == w.round_ops and restored
               and len(t.metrics(w.round_ops)) == len(tracing.METRICS),
               f"{w.name}: traced round",
               f"{ops} queue ops traced of {w.round_ops}, "
               f"originals restored: {restored}")

    for case, w, expect in FAULTS:
        r = run.attempt_round(w, SEED)
        hit = any(expect in p for p in r.problems)
        report(r.failed > 0 and hit, case,
               f"{r.failed} of {w.round_ops} ops failed; "
               f"{r.problems[0] if r.problems else 'no problem reported'}")

    w = sort(runner_cls=runner_with(DriftingComparisons))
    rounds, _, _ = run.run(w, SEED, 0.05, False, tracing.Tracer)
    failed = run.count_failed(w, rounds)
    report(len(rounds) > 1 and failed == w.round_ops * len(rounds),
           "sort: comparison counts differ between rounds",
           f"{failed} of {w.round_ops * len(rounds)} ops failed")

    print(f"{bad} case(s) went wrong" if bad else "all cases ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
