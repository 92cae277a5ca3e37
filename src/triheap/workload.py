"""Workload scripts: the text format, random generation, and queue replay.

Script format, one operation per line, ASCII decimal keys, # for comments:

    i <key>              insert; inserts implicitly number handles from 0
    dm                   delete-min
    fm                   find-min
    dk <handle#> <newkey>  decrease-key
    del <handle#>        delete
    meld-split <fraction>  split the queue's trees at the fraction point
                           (height order) into two queues and meld them back

A generated script carries its seed as a "# seed=<n>" comment.
"""

from __future__ import annotations

import heapq
import random
import re
from dataclasses import dataclass, field

from .errors import HeapError
from .queue import Queue

_SEED_RE = re.compile(r"#\s*seed\s*=\s*(\d+)")


class ScriptParseError(HeapError):
    """A workload script line could not be parsed or referenced a bad handle."""


@dataclass
class WorkloadScript:
    """An ordered list of op tuples plus the seed that generated them."""

    ops: list = field(default_factory=list)
    seed: int | None = None

    def __len__(self):
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)


def parse_script(text):
    """Parse script text into a WorkloadScript; raises ScriptParseError."""
    ops = []
    seed = None
    inserts = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        m = _SEED_RE.search(raw)
        if m is not None and seed is None:
            seed = int(m.group(1))
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        try:
            if kind == "i" and len(fields) == 2:
                ops.append(("i", int(fields[1])))
                inserts += 1
            elif kind == "dm" and len(fields) == 1:
                ops.append(("dm",))
            elif kind == "fm" and len(fields) == 1:
                ops.append(("fm",))
            elif kind == "dk" and len(fields) == 3:
                ref = int(fields[1])
                if not 0 <= ref < inserts:
                    raise ScriptParseError(
                        f"line {lineno}: handle {ref} not inserted yet")
                ops.append(("dk", ref, int(fields[2])))
            elif kind == "del" and len(fields) == 2:
                ref = int(fields[1])
                if not 0 <= ref < inserts:
                    raise ScriptParseError(
                        f"line {lineno}: handle {ref} not inserted yet")
                ops.append(("del", ref))
            elif kind == "meld-split" and len(fields) == 2:
                frac = float(fields[1])
                if not 0.0 <= frac <= 1.0:
                    raise ScriptParseError(
                        f"line {lineno}: fraction {frac} outside [0, 1]")
                ops.append(("meld-split", frac))
            else:
                raise ScriptParseError(f"line {lineno}: bad op {line!r}")
        except ValueError as exc:
            raise ScriptParseError(f"line {lineno}: {exc}") from exc
    return WorkloadScript(ops, seed)


def format_script(script):
    """Render a WorkloadScript back to its text form."""
    lines = []
    if script.seed is not None:
        lines.append(f"# seed={script.seed}")
    for op in script.ops:
        lines.append(" ".join(str(x) for x in op))
    return "\n".join(lines) + "\n"


# Mixed-workload weights: inserts dominate so queues stay populated, every
# other operation still gets steady traffic.
DEFAULT_WEIGHTS = {
    "i": 40,
    "dm": 25,
    "fm": 15,
    "dk": 10,
    "del": 5,
    "meld-split": 5,
}

KEY_REUSE_RATE = 0.10  # forced duplicate keys, to exercise tie paths


class _Pool:
    """Set with O(1) random choice: list plus position map, swap-remove."""

    __slots__ = ("items", "pos")

    def __init__(self):
        self.items = []
        self.pos = {}

    def __len__(self):
        return len(self.items)

    def add(self, item):
        self.pos[item] = len(self.items)
        self.items.append(item)

    def discard(self, item):
        i = self.pos.pop(item, None)
        if i is None:
            return
        last = self.items.pop()
        if last != item:
            self.items[i] = last
            self.pos[last] = i

    def choice(self, rng):
        return self.items[rng.randrange(len(self.items))]


def generate_script(seed, n_ops, weights=None):
    """Generate a random mixed workload of n_ops operations.

    The generator tracks queue contents as it goes so that every dk/del
    references a handle that is provably live no matter how delete-min
    breaks key ties: whenever the minimum key is shared, all its holders
    leave the referencable pool at once.  Ops that need elements fall back
    to inserts while the queue is empty.
    """
    rng = random.Random(seed)
    weights = weights or DEFAULT_WEIGHTS
    kinds = list(weights)
    cum = []
    total = 0
    for k in kinds:
        total += weights[k]
        cum.append(total)

    ops = []
    live = {}            # eid -> key, full population
    by_key = {}          # key -> set of eids holding it
    key_heap = []        # lazy min-heap over keys
    safe = _Pool()       # eids never referenced by an ambiguous delete-min
    used_keys = []
    next_eid = 0

    def fresh_key():
        if used_keys and rng.random() < KEY_REUSE_RATE:
            return used_keys[rng.randrange(len(used_keys))]
        return rng.getrandbits(32)

    def add_key(eid, key):
        live[eid] = key
        by_key.setdefault(key, set()).add(eid)
        heapq.heappush(key_heap, key)

    def drop_key(eid):
        key = live.pop(eid)
        by_key[key].discard(eid)
        if not by_key[key]:
            del by_key[key]

    def current_min():
        while key_heap and key_heap[0] not in by_key:
            heapq.heappop(key_heap)
        return key_heap[0]

    for _ in range(n_ops):
        roll = rng.randrange(total)
        kind = kinds[0]
        for k, edge in zip(kinds, cum):
            if roll < edge:
                kind = k
                break
        if kind in ("dm", "fm", "meld-split") and not live:
            kind = "i"
        if kind in ("dk", "del") and not len(safe):
            kind = "i"

        if kind == "i":
            key = fresh_key()
            used_keys.append(key)
            add_key(next_eid, key)
            safe.add(next_eid)
            ops.append(("i", key))
            next_eid += 1
        elif kind == "dm":
            m = current_min()
            holders = by_key[m]
            if len(holders) == 1:
                victim = next(iter(holders))
            else:
                # Ambiguous tie: the implementation may remove any of these,
                # so none may be referenced again.
                victim = min(holders)
                for eid in sorted(holders):
                    safe.discard(eid)
            safe.discard(victim)
            drop_key(victim)
            ops.append(("dm",))
        elif kind == "fm":
            ops.append(("fm",))
        elif kind == "dk":
            eid = safe.choice(rng)
            new_key = live[eid] - rng.randint(0, 1 << 20)
            drop_key(eid)
            add_key(eid, new_key)
            ops.append(("dk", eid, new_key))
        elif kind == "del":
            eid = safe.choice(rng)
            safe.discard(eid)
            drop_key(eid)
            ops.append(("del", eid))
        else:
            ops.append(("meld-split", round(rng.random(), 3)))
    return WorkloadScript(ops, seed)


class QueueRunner:
    """Applies script operations to a real queue.

    Keeps the script's implicit handle numbering (one per insert, from 0)
    and implements meld-split as Queue.split at the fraction point followed
    by a meld of the split-off queue back into the runner's queue; elements
    never move between nodes, so every handle survives.
    """

    def __init__(self, policy=None, keep_records=False, keep_events=False):
        self.queue = Queue(policy=policy, keep_records=keep_records,
                           keep_events=keep_events)
        self.handles = []

    def apply(self, op):
        """Run one op; returns the result key for dm/fm, else None."""
        kind = op[0]
        if kind == "i":
            self.handles.append(self.queue.insert(op[1]))
            return None
        if kind == "dm":
            return self.queue.delete_min()[0]
        if kind == "fm":
            return self.queue.find_min()[0]
        if kind == "dk":
            self.queue.decrease_key(self.handles[op[1]], op[2])
            return None
        if kind == "del":
            self.queue.delete(self.handles[op[1]])
            return None
        if kind == "meld-split":
            self._meld_split(op[1])
            return None
        raise ScriptParseError(f"unknown op {op!r}")

    def run(self, ops):
        """Apply every op; returns the list of per-op results."""
        return [self.apply(op) for op in ops]

    def _meld_split(self, fraction):
        self.queue.meld(self.queue.split(fraction))

    def stats(self, op_index, op_name):
        """One StatsRecord snapshot of the current queue state."""
        q = self.queue
        return StatsRecord(op_index, op_name, q.forest.size, q.ledger.phi,
                           q.ledger.rearrangements, q.comparator.count,
                           q.forest.digits())


@dataclass
class StatsRecord:
    """Per-operation stats snapshot, cumulative counters included."""

    op_index: int
    op: str
    n: int
    phi: int
    rearrangements: int
    comparisons: int
    digits: list

    @property
    def max_digit(self):
        return max(self.digits, default=0)

    @property
    def tree_count(self):
        return sum(self.digits)

    def row(self):
        return (self.op_index, self.op, self.n, self.phi, self.rearrangements,
                self.comparisons, self.max_digit, self.tree_count)


STATS_COLUMNS = ("op_index", "op", "n", "phi", "rearrangements",
                 "comparisons", "max_digit", "tree_count")
