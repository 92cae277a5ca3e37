"""Timing wrappers around each layer's public functions, for the traced run.

Each wrapper is installed where its caller looks the name up: a module
global for functions that another module imported by name (forest imports
rearrange_roots and validate_tree, queue imports sift_up, sift_to_root and
detach_root, oracle's run_differential calls oracle_apply), a class
attribute for methods.  Nothing in triheap is edited; uninstall() puts the
originals back.

A span's self time is its duration minus the full duration, wrapper
bookkeeping included, of the spans nested in it.  Counts that need a walk
(sift path length, trees scanned) are taken after the inner timer stops and
are charged to nobody's self time.
"""

from __future__ import annotations

import time

from triheap import forest, ledger, oracle, queue, workload

clock = time.perf_counter_ns


def _depth(node):
    d = 0
    node = node.parent
    while node is not None:
        d += 1
        node = node.parent
    return d


def _find_root_scanned(args, result):
    height, index = result
    scanned = index + 1
    for h, bucket in args[0].buckets.items():
        if h == height:
            return scanned
        scanned += len(bucket)
    return scanned


# (owner, attribute, span name, count(args, result) or None).  The count's
# meaning is fixed by the metrics derived from it in METRICS below.
SPANS = [
    (forest, "rearrange_roots", "tree.rearrange_roots", None),
    (queue, "detach_root", "tree.detach_root", None),
    (queue, "sift_up", "tree.sift_up",
     lambda a, r: _depth(a[0]) - _depth(r)),
    (queue, "sift_to_root", "tree.sift_to_root", lambda a, r: _depth(a[0])),
    (forest, "validate_tree", "tree.validate_tree", lambda a, r: a[0].size),
    (forest.Forest, "fix", "forest.fix", lambda a, r: r),
    (forest.Forest, "scan_min", "forest.scan_min",
     lambda a, r: a[0].tree_count()),
    (forest.Forest, "find_root", "forest.find_root", _find_root_scanned),
    (forest.Forest, "add_root", "forest.add_root", None),
    (forest.Forest, "remove_root", "forest.remove_root", None),
    (forest.Forest, "validate", "forest.validate", None),
    (ledger.PotentialLedger, "record_rearrangement",
     "ledger.record_rearrangement", None),
    (ledger.PotentialLedger, "record_structural",
     "ledger.record_structural", None),
    (ledger.PotentialLedger, "finish_op", "ledger.finish_op", None),
    (ledger.PotentialLedger, "audit", "ledger.audit", None),
] + [
    (queue.Queue, op, f"queue.{op}", None)
    for op in ("insert", "delete_min", "find_min", "decrease_key", "delete",
               "meld", "validate")
] + [
    (workload, "generate_script", "workload.generate_script", None),
    (workload, "parse_script", "workload.parse_script", None),
    (workload.QueueRunner, "apply", "workload.apply", None),
    (oracle, "oracle_apply", "oracle.oracle_apply", None),
    (oracle, "run_differential", "oracle.run_differential", None),
]

# metric suffix -> (unit, value from (stat, workload ops)).
QUANTITIES = {
    "calls": ("count", lambda s, ops: s.calls),
    "self_us_per_op": ("us/op", lambda s, ops: s.self_ns / 1e3 / ops),
    "self_ms": ("ms", lambda s, ops: s.self_ns / 1e6),
    "steps_per_call": ("1/call", lambda s, ops: s.total / max(1, s.calls)),
    "trees_per_call": ("1/call", lambda s, ops: s.total / max(1, s.calls)),
    "nodes_per_op": ("1/op", lambda s, ops: s.total / ops),
    "carries_per_op": ("1/op", lambda s, ops: s.total / ops),
    "carries_per_call_max": ("count", lambda s, ops: s.most),
}

METRICS = [
    "tree.rearrange_roots.calls", "tree.rearrange_roots.self_us_per_op",
    "tree.detach_root.self_us_per_op",
    "tree.sift_up.calls", "tree.sift_up.steps_per_call",
    "tree.sift_up.self_us_per_op",
    "tree.sift_to_root.steps_per_call", "tree.sift_to_root.self_us_per_op",
    "tree.validate_tree.nodes_per_op", "tree.validate_tree.self_us_per_op",
    "forest.fix.carries_per_op", "forest.fix.carries_per_call_max",
    "forest.fix.self_us_per_op",
    "forest.scan_min.trees_per_call", "forest.scan_min.self_us_per_op",
    "forest.find_root.trees_per_call", "forest.find_root.self_us_per_op",
    "forest.add_root.self_us_per_op", "forest.remove_root.self_us_per_op",
    "forest.validate.self_us_per_op",
    "ledger.record_rearrangement.self_us_per_op",
    "ledger.record_structural.self_us_per_op",
    "ledger.finish_op.self_us_per_op",
    "ledger.audit.self_us_per_op",
] + [
    f"queue.{op}.{q}"
    for op in ("insert", "delete_min", "find_min", "decrease_key", "delete",
               "meld", "validate")
    for q in ("calls", "self_us_per_op")
] + [
    "workload.generate_script.self_ms", "workload.parse_script.self_ms",
    "workload.apply.self_us_per_op",
    "oracle.oracle_apply.self_us_per_op",
    "oracle.run_differential.self_us_per_op",
]


class Stat:
    __slots__ = ("calls", "self_ns", "total", "most")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.total = 0
        self.most = 0


class Tracer:
    """Installs the spans for one round and collects their Stats."""

    def __init__(self):
        self.stats = {name: Stat() for _, _, name, _ in SPANS}
        self._stack = [0]   # per open span: time spent in nested spans
        self._saved = []

    def install(self):
        for owner, attr, name, count in SPANS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, self.stats[name], count))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, original, stat, count):
        stack = self._stack

        def span(*args, **kwargs):
            outer = clock()
            stack.append(0)
            inner = clock()
            took = None
            try:
                result = original(*args, **kwargs)
                took = clock() - inner
                if count is not None:
                    n = count(args, result)
                    stat.total += n
                    if n > stat.most:
                        stat.most = n
                return result
            finally:
                if took is None:
                    took = clock() - inner
                stat.calls += 1
                stat.self_ns += took - stack.pop()
                stack[-1] += clock() - outer

        return span

    def metrics(self, ops):
        """Every per-layer metric as {name: (value, unit)}."""
        out = {}
        for name in METRICS:
            span, quantity = name.rsplit(".", 1)
            unit, value = QUANTITIES[quantity]
            out[name] = (value(self.stats[span], ops), unit)
        return out
