"""Reference priority queue and differential runs against the real one.

The oracle is a sorted multiset with a handle map, realized as a lazy-
deletion binary heap of (key, element id) pairs: trivially correct, fast
enough for long scripts, and structurally nothing like the forest it checks.
Differential comparison is key-based only; which of several minimal-key
elements gets removed is implementation freedom.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import (ContractViolation, EmptyQueueError, HeapError,
                     InvalidHandleError)
from .workload import QueueRunner, WorkloadScript


class OracleQueue:
    """Trivially correct min-queue over (key, insertion id) pairs."""

    def __init__(self):
        self._heap = []
        self._live = {}      # element id -> current key
        self._next = 0       # ids follow insertion order, like script handles

    def __len__(self):
        return len(self._live)

    def insert(self, key):
        eid = self._next
        self._next += 1
        self._live[eid] = key
        heapq.heappush(self._heap, (key, eid))
        return eid

    def _settle(self):
        heap = self._heap
        live = self._live
        while heap and live.get(heap[0][1]) != heap[0][0]:
            heapq.heappop(heap)

    def find_min(self):
        if not self._live:
            raise EmptyQueueError("find_min on empty oracle")
        self._settle()
        return self._heap[0][0]

    def delete_min(self):
        if not self._live:
            raise EmptyQueueError("delete_min on empty oracle")
        self._settle()
        key, eid = heapq.heappop(self._heap)
        del self._live[eid]
        return key

    def decrease_key(self, eid, new_key):
        key = self._live.get(eid)
        if key is None:
            raise InvalidHandleError(f"oracle element {eid} is gone")
        if new_key > key:
            raise ContractViolation(
                f"decrease_key to {new_key!r} would raise {key!r}")
        self._live[eid] = new_key
        heapq.heappush(self._heap, (new_key, eid))

    def delete(self, eid):
        if eid not in self._live:
            raise InvalidHandleError(f"oracle element {eid} is gone")
        del self._live[eid]

    def key_of(self, eid):
        """Current key of a live element, None otherwise."""
        return self._live.get(eid)


def oracle_apply(oracle, op):
    """Apply one script op to an OracleQueue; returns the result key or None.

    meld-split leaves the population unchanged, so it is a no-op here.
    """
    kind = op[0]
    if kind == "i":
        oracle.insert(op[1])
        return None
    if kind == "dm":
        return oracle.delete_min()
    if kind == "fm":
        return oracle.find_min()
    if kind == "dk":
        oracle.decrease_key(op[1], op[2])
        return None
    if kind == "del":
        oracle.delete(op[1])
        return None
    if kind == "meld-split":
        return None
    raise ContractViolation(f"unknown op {op!r}")


@dataclass
class Divergence:
    op_index: int
    op: tuple
    expected: object
    got: object

    def __str__(self):
        return (f"op {self.op_index} {self.op!r}: expected "
                f"{self.expected!r}, got {self.got!r}")


@dataclass
class Verdict:
    passed: bool
    ops_run: int
    divergence: Divergence | None = None
    failures: list = field(default_factory=list)

    def __str__(self):
        if self.passed:
            return f"pass ({self.ops_run} ops)"
        if self.divergence is not None:
            return f"divergence at {self.divergence}"
        return "invariant failure: " + "; ".join(self.failures)


def _outcome(fn):
    try:
        return ("ok", fn())
    except HeapError as exc:
        return ("err", type(exc).__name__)


def run_differential(script, policy=None, audit="always", runner_factory=None):
    """Run a script against the real queue and the oracle, comparing results.

    Every find-min/delete-min key (and any error raised) must agree exactly.
    With audit="always" the queue is fully validated and its ledger audited
    after every op; with audit="final" once at the end.  Either way the
    final state is cross-checked: sizes match and every live script handle
    holds the key the oracle recorded for it.  Returns a Verdict carrying
    the first divergence or the invariant diagnostics.
    """
    ops = script.ops if isinstance(script, WorkloadScript) else list(script)
    if runner_factory is None:
        runner = QueueRunner(policy=policy)
    else:
        runner = runner_factory(policy)
    oracle = OracleQueue()

    for i, op in enumerate(ops):
        got = _outcome(lambda: runner.apply(op))
        want = _outcome(lambda: oracle_apply(oracle, op))
        if got != want:
            return Verdict(False, i + 1,
                           divergence=Divergence(i, op, want, got))
        if audit == "always":
            problems = runner.queue.validate()
            if problems:
                return Verdict(False, i + 1,
                               failures=[f"after op {i}: {p}" for p in problems])

    problems = runner.queue.validate()
    if len(runner.queue) != len(oracle):
        problems.append(f"final sizes differ: queue {len(runner.queue)}, "
                        f"oracle {len(oracle)}")
    queue_keys = sorted(key for tree in runner.queue.forest.trees()
                        for key in tree.keys())
    oracle_keys = sorted(oracle._live.values())
    if queue_keys != oracle_keys:
        problems.append("final key multisets differ")
    # Which element dies on a tied delete-min is implementation freedom, so
    # only handles still alive on both sides must agree on their key.
    for eid, handle in enumerate(runner.handles):
        expected = oracle.key_of(eid)
        if expected is None or not handle.alive:
            continue
        if handle.key != expected:
            problems.append(f"handle {eid} holds {handle.key!r}, oracle "
                            f"recorded {expected!r}")
    if problems:
        return Verdict(False, len(ops), failures=problems)
    return Verdict(True, len(ops))
