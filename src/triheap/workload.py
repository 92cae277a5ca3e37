"""Workload scripts: the text format, random generation, and queue replay.

Script format, one operation per line, ASCII decimal keys, # for comments:

    i <key>              insert; inserts implicitly number handles from 0
    dm                   delete-min
    fm                   find-min
    dk <handle#> <newkey>  decrease-key
    del <handle#>        delete
    meld-split <fraction>  split the queue's trees at the fraction point
                           (height order) into two queues and meld them back

A generated script carries its seed as a "# seed=<seed>" comment, which
parses back to the int, or else the string, it was written from.  A string
seed whose bare text would read back as something else, such as "5" (an
int), is written in quotes: # seed="5".
"""

from __future__ import annotations

import random
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import accumulate

from .errors import HeapError
from .queue import Queue

_SEED_RE = re.compile(r'#\s*seed\s*=\s*(?:"(.*)"|(-?[0-9]+)(?!\S)|(\S+))')


class ScriptParseError(HeapError):
    """A workload script line could not be parsed or referenced a bad handle."""


@dataclass
class WorkloadScript:
    """An ordered list of op tuples plus the seed that generated them."""

    ops: list = field(default_factory=list)
    seed: int | str | None = None

    def __len__(self):
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)


def _seed_of(line):
    """The seed of line's "# seed=" comment, or None when it has none."""
    m = _SEED_RE.search(line)
    if m is None:
        return None
    quoted, number, bare = m.groups()
    return quoted if quoted is not None else int(number) if number else bare


def parse_script(text):
    """Parse script text into a WorkloadScript; raises ScriptParseError."""
    ops = []
    seed = None
    inserts = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            if seed is None:
                seed = _seed_of(line)
            line = line.split("#", 1)[0]
        fields = line.split()
        if not fields:
            continue
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
                raise ScriptParseError(
                    f"line {lineno}: bad op {line.strip()!r}")
        except ValueError as exc:
            raise ScriptParseError(f"line {lineno}: {exc}") from exc
    return WorkloadScript(ops, seed)


def format_script(script):
    """Render a WorkloadScript back to its text form."""
    lines = [" ".join(map(str, op)) for op in script.ops]
    seed = script.seed
    if seed is not None:
        text = f"# seed={seed}"
        if isinstance(seed, str) and _seed_of(text) != seed:
            text = f'# seed="{seed}"'
        lines.insert(0, text)
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


def generate_script(seed, n_ops, weights=None):
    """Generate a random mixed workload of n_ops operations.

    weights maps op kinds of DEFAULT_WEIGHTS to non-negative ints with a
    positive sum (default DEFAULT_WEIGHTS), else ValueError before any
    draw.  Each draw below n is getrandbits(n.bit_length()) until one falls
    below n, as Python 3.11's random.randrange(n) draws, so seed and
    weights define the script.

    The generator tracks queue contents as it goes so that every dk/del
    references a handle that is provably live no matter how delete-min
    breaks key ties: whenever the minimum key is shared, all its holders
    leave the referencable pool at once.  Ops that need elements fall back
    to inserts while the queue is empty.  One loop does it all with no
    Python call per op; by_key maps a key to the eid that holds it, or to
    a set only while the key is shared, so an insert allocates no set.
    """
    weights = weights or DEFAULT_WEIGHTS
    if unknown := [kind for kind in weights if kind not in DEFAULT_WEIGHTS]:
        raise ValueError(f"unknown op kinds: {unknown!r}")
    if not all(isinstance(w, int) and w >= 0 for w in weights.values()) \
            or not sum(weights.values()):
        raise ValueError(f"weights must be ints >= 0, not all 0: {weights!r}")
    kinds = list(weights)
    cum = list(accumulate(weights.values()))
    total = cum[-1]
    total_bits = total.bit_length()
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    rand = rng.random

    ops = []
    append = ops.append
    live = {}            # eid -> key, full population
    by_key = {}          # key -> the eid holding it, or a set of 2+ eids
    key_heap = []        # lazy min-heap over keys
    safe = []            # eids never referenced by an ambiguous delete-min,
    safe_at = {}         # each with its index in safe
    used_keys = []       # the key of each insert, by eid

    for _ in range(n_ops):
        r = getrandbits(total_bits)
        while r >= total:
            r = getrandbits(total_bits)
        kind = kinds[bisect_right(cum, r)]
        # safe is a subset of live, so a nonempty safe serves every kind.
        if kind == "i" or not safe and (
                not live or kind == "dk" or kind == "del"):
            if used_keys and rand() < KEY_REUSE_RATE:
                n = len(used_keys)
                r = getrandbits(n.bit_length())
                while r >= n:
                    r = getrandbits(n.bit_length())
                key = used_keys[r]
            else:
                key = getrandbits(32)
            eid = len(used_keys)
            used_keys.append(key)
            safe_at[eid] = len(safe)
            safe.append(eid)
            append(("i", key))
        elif kind == "dm":
            while key_heap[0] not in by_key:
                heappop(key_heap)
            key = key_heap[0]
            held = by_key.pop(key)
            if type(held) is set:
                # Ambiguous tie: the implementation may remove any of these,
                # so none may be referenced again.
                tied = sorted(held)
                victim = tied[0]
                held.discard(victim)
                by_key[key] = held if len(held) > 1 else held.pop()
            else:
                victim = held
                tied = (held,)
            for eid in tied:
                i = safe_at.pop(eid, None)
                if i is not None:
                    last = safe.pop()
                    if last != eid:
                        safe[i] = last
                        safe_at[last] = i
            del live[victim]
            append(("dm",))
            continue
        elif kind == "fm":
            append(("fm",))
            continue
        elif kind == "meld-split":
            append(("meld-split", round(rand(), 3)))
            continue
        else:  # dk or del, of a handle drawn from safe
            n = len(safe)
            i = getrandbits(n.bit_length())
            while i >= n:
                i = getrandbits(n.bit_length())
            eid = safe[i]
            key = live.pop(eid)
            held = by_key.pop(key)
            if type(held) is set:
                held.discard(eid)
                by_key[key] = held if len(held) > 1 else held.pop()
            if kind == "del":
                del safe_at[eid]
                last = safe.pop()
                if last != eid:
                    safe[i] = last
                    safe_at[last] = i
                append(("del", eid))
                continue
            r = getrandbits(21)  # a drop below 2**20 + 1, of 21 bits
            while r > 1 << 20:
                r = getrandbits(21)
            key -= r
            append(("dk", eid, key))
        # An insert or a decrease-key: eid now holds key.
        live[eid] = key
        held = by_key.setdefault(key, eid)
        if type(held) is set:
            held.add(eid)
        elif held != eid:
            by_key[key] = {held, eid}
        heappush(key_heap, key)
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
