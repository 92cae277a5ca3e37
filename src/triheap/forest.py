"""Height-indexed buckets of perfect trees and the digit-bound fix procedure.

The forest is the queue's whole state: a dense list whose entry h is the
list of trees of height h.  Read the bucket sizes as digits of a positional
number system with place values 2**(h+1) - 1 (Okasaki's skew binary
numbers); fix() is then carry propagation, three same-height trees being
traded for one taller tree (and two shorter ones) via the rearrangement step,
which fix() does inline (tree.rearrange_roots is its reference).

Internally a bucket holds bare root nodes; the height lives once in the
list index instead of once per tree, which keeps the carry path free of
wrapper churn.  PerfectTree views are materialized where callers want whole
trees (iteration, validation).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolation, EmptyQueueError
# fix does the step inline; the traced benchmark wraps rearrange_roots here.
from .tree import PerfectTree, rearrange_roots, validate_tree

EAGER = "eager"
RELAXED = "relaxed"
SCAN = -1  # Forest.pending: any filing but one insert or one root removal


@dataclass(frozen=True)
class FixPolicy:
    """How aggressively fix() restores the per-height tree-count bound.

    eager repeats carries until no height holds three or more trees, keeping
    every digit <= 2, mostly by walking an op's carry chain (Forest.fix).
    relaxed spends at most relaxed_budget carries per call on digits >= 3,
    then force-fixes any digit that reached 5, keeping every digit <= 4:
    near-constant carries per call; a call that spends its budget then
    looks for a 5 from its last carry up, or only in two buckets (Forest.fix).
    """

    mode: str = EAGER
    relaxed_budget: int = 1

    def __post_init__(self):
        if self.mode not in (EAGER, RELAXED):
            raise ContractViolation(f"unknown fix policy mode {self.mode!r}")
        if self.relaxed_budget < 1:
            raise ContractViolation("relaxed_budget must be >= 1")

    @property
    def digit_bound(self):
        return 2 if self.mode == EAGER else 4


class Forest:
    """Buckets of perfect trees indexed by height.

    roots[h] lists the root nodes of the height-h trees, for every h up to
    the tallest tree; an empty list is a zero digit, and the last list is
    never empty.  Lists keep insertion order, and all scheduling below is
    deterministic, so identical operation sequences produce identical
    forests.

    pending says where fix may start, from the filings since fix last
    completed: None for none, 0 for one insert, h - 1 for one removal of a
    height-h root, SCAN for anything else (a second filing, a tree above
    height 0, a meld, or a fix cut short by a raising key comparison,
    which can leave a digit over the bound).

    suffix[h] is the (height, root) a scan of heights >= h picks, kept for
    each height above stale: the highest height whose bucket or root keys
    may have changed since scan_min last completed, -1 for none.  Every
    mutation, Queue.decrease_key's sift included, raises it; at or above
    the top, as in a new forest, it makes every height stale.
    """

    __slots__ = ("roots", "size", "policy", "pending", "budget", "suffix",
                 "stale")

    def __init__(self, policy=None):
        self.roots = []
        self.size = 0
        self.policy = policy if policy is not None else FixPolicy()
        self.pending = None
        self.suffix = []
        self.stale = 0
        # fix's relaxed budget, 0 under eager; read once: policy is frozen.
        self.budget = (self.policy.relaxed_budget
                       if self.policy.mode == RELAXED else 0)

    @property
    def buckets(self):
        """Read-only map from each nonempty height to its list of roots."""
        return {h: bucket for h, bucket in enumerate(self.roots) if bucket}

    def add_root(self, root, height):
        """File a root node under its height.  Never triggers fixing; notes
        0 in pending for a singleton filed with nothing pending (an
        insert), SCAN for any other filing."""
        roots = self.roots
        while len(roots) <= height:
            roots.append([])
        roots[height].append(root)
        self.size += (1 << (height + 1)) - 1
        self.pending = 0 if height == 0 and self.pending is None else SCAN
        if height > self.stale:
            self.stale = height

    def remove_root(self, height, root):
        """Remove root, filed at height, and its element; returns the phi
        change, height - 2, or 0 for a singleton.

        The root's handle dies; its two subtrees, freed, are filed at
        height - 1, left then right (tree.detach_root is the reference).
        That filing notes height - 1 in pending when nothing was pending,
        SCAN otherwise.  Raises stale to height.  No comparison; never fixes.
        """
        roots = self.roots
        roots[height].remove(root)
        handle = root.handle
        if handle is not None:
            handle.node = None
            root.handle = None
        left = root.left
        delta = 0
        if left is not None:
            right = root.right
            left.parent = right.parent = root.left = root.right = None
            delta = height - 2
            roots[height - 1] += left, right
            self.pending = height - 1 if self.pending is None else SCAN
        while roots and not roots[-1]:
            roots.pop()
        if height > self.stale:
            self.stale = height
        self.size -= 1
        return delta

    def split(self, count, into):
        """Keep the first count trees and move the rest into into, an
        empty forest; returns the moved phi.

        Trees count in height order, then bucket order.  The pass that
        finds the boundary bucket gives into an empty bucket per height
        below it; only the boundary bucket is sliced, every bucket above
        it moves as it is, and one pass over the moved heights sums their
        size and phi.  into takes this forest's pending and is all stale;
        this forest's stale rises to the boundary height.  Cost: a few list
        operations per height, no comparison; never fixes.
        """
        roots = self.roots
        tail = []
        for h, bucket in enumerate(roots):
            if count < len(bucket):
                break
            count -= len(bucket)
            tail.append([])
        else:
            return 0
        tail.append(bucket[count:])
        tail += roots[h + 1:]
        del bucket[count:]
        del roots[h + 1:]
        while roots and not roots[-1]:
            roots.pop()
        size = phi = 0
        for g in range(h, len(tail)):
            n = len(tail[g])
            size += n * ((1 << (g + 1)) - 1)
            phi += n * g
        into.roots = tail
        into.size = size
        into.pending = self.pending
        into.stale = len(tail)
        if h > self.stale:
            self.stale = h
        self.size -= size
        return phi

    def meld(self, other):
        """Move all of other's trees into this forest, leaving other empty.

        Other's list at each height goes onto the end of this forest's list
        at that height; its lists above this forest's top are adopted as
        they are, so the trees land exactly where filing each of them with
        add_root would put them.  Every height becomes stale.  Cost: one
        list operation per height, no comparison; never fixes.
        """
        roots = self.roots
        theirs = other.roots
        for bucket, more in zip(roots, theirs):
            bucket += more
        roots += theirs[len(roots):]
        self.size += other.size
        self.pending = SCAN
        self.stale = len(roots)
        other.pending = None
        other.roots = []
        other.size = 0

    def find_root(self, root):
        """Locate the tree rooted at this node; returns (height, index).

        Node defines no __eq__, so in and index test identity, in C, and
        never touch a key."""
        for h, bucket in enumerate(self.roots):
            if root in bucket:
                return h, bucket.index(root)
        raise ContractViolation("node does not root any tree of this forest")

    def digits(self):
        """Dense digit vector from height 0 up to the tallest present tree."""
        return [len(bucket) for bucket in self.roots]

    def max_digit(self):
        return max(map(len, self.roots), default=0)

    def tree_count(self):
        return sum(map(len, self.roots))

    def height_sum(self):
        """The potential: sum of heights over all trees in the forest."""
        return sum(h * len(bucket) for h, bucket in enumerate(self.roots))

    def trees(self):
        """All trees as PerfectTree views, height ascending, bucket order."""
        for h, bucket in enumerate(self.roots):
            for root in bucket:
                yield PerfectTree(root, h)

    def scan_min(self, counter):
        """Find a tree with minimal root key; returns (height, root).

        Reads heights stale to 0 from suffix[stale + 1] down, writing
        suffix[h] at each; ties go to the lower height, then the earlier
        bucket position.  One < per root read, less one from the top, charged
        to counter once the scan completes, which alone sets stale to -1.
        """
        h = self.stale
        suffix = self.suffix
        if h < 0:
            return suffix[0]
        roots = self.roots
        n = len(roots)
        if h < n - 1:
            best = suffix[h + 1]
            key = best[1].key
            compared = 0
        elif n:
            h, best, compared = n - 1, None, -1
            suffix += [None] * (n - len(suffix))
        else:
            raise EmptyQueueError("scan_min on an empty forest")
        for h in range(h, -1, -1):
            bucket = roots[h]
            compared += len(bucket)
            above = True  # best is from above h: a tie goes to the root
            for root in bucket:
                if above:
                    if best is None or not key < root.key:
                        best, key, above = (h, root), root.key, False
                elif root.key < key:
                    best, key = (h, root), root.key
            suffix[h] = best
        counter.count += compared
        self.stale = -1
        return best

    def fix(self, counter, ledger=None):
        """Restore the policy's digit bound; returns carries performed.

        A carry takes the first three trees of a bucket (FIFO) whose digit
        reaches the threshold.  Two schedules pick the heights; they carry
        alike wherever both apply:

        - The walk, under eager when pending is a height, which the
          filing rule (see Forest) allows only for one insert or one root
          removal after a completed fix.  That fix left every digit <= 2,
          so each carry pushes one height at most to 3: the one below
          through the released pair (a removal's chain, running down) or
          else the one above through the new top (an insert's chain,
          running up).  The walk follows that chain from the pending
          height, so k >= 1 carries visit k + 1 heights; fix returns at
          once when nothing is pending or the pending height holds fewer
          than 3 trees.
        - The scan, for everything else (pending SCAN, the relaxed
          policy): it carries at the lowest height whose digit reaches the
          threshold, then resumes at the height below, the lowest one the
          carry can have pushed over.
          The threshold is 3; under relaxed it becomes 5 once
          relaxed_budget carries are done, and the scan goes on from
          where it stands: it passed only digits under 3, and the carry's
          pair leaves the height below at 4 at most.  At budget 1 with
          pending not SCAN, every digit was <= 4 before the op's one
          filing, if any, so only the pending height and the carry's
          top's can hold 5; fix returns when neither does.

        A carry is the rearrangement step, done inline with no call: of
        the bucket's first three roots r1, r2, r3 it compares r2 < r1, then
        r3 against the winner (exactly two <, ties to the earlier root);
        the smallest adopts the other two in bucket order, and its former
        children are filed at h - 1, in order.  A filed root has no
        parent, so the top keeps None.  tree.rearrange_roots is the
        reference for this step.

        Each carry compares its three roots before it unlinks them, so a
        key whose < raises leaves every tree in the forest, and pending at
        SCAN.  counter is charged in bulk with 2 per completed carry, and
        stale raised to one above the highest carry, also when a comparison
        raises.  ledger, when given, is charged once per call with the carry
        count and their net height-sum change (-1 per carry at height
        h >= 1, +1 per carry of three singletons), and gets one (h, delta)
        event per carry when it keeps events.
        """
        start = self.pending
        budget = self.budget
        roots = self.roots
        n = len(roots)
        walk = not budget and start != SCAN
        if walk and (start is None or start >= n or len(roots[start]) < 3):
            self.pending = None
            return 0
        self.pending = SCAN
        events = ledger.events if ledger is not None else None
        threshold = 3
        done = 0
        singletons = 0
        high = -1
        h = start if walk else 0
        try:
            while h < n:
                bucket = roots[h]
                if len(bucket) < threshold:
                    if walk:
                        break
                    h += 1
                    continue
                r1, r2, r3 = bucket[0], bucket[1], bucket[2]
                if r2.key < r1.key:
                    if r3.key < r2.key:
                        top, first, second = r3, r1, r2
                    else:
                        top, first, second = r2, r1, r3
                elif r3.key < r1.key:
                    top, first, second = r3, r1, r2
                else:
                    top, first, second = r1, r2, r3
                del bucket[:3]
                if h >= high:
                    high = h + 1
                left = top.left
                right = top.right
                top.left = first
                top.right = second
                first.parent = top
                second.parent = top
                if h + 1 < n:
                    roots[h + 1].append(top)
                else:
                    roots.append([top])
                    n += 1
                done += 1
                if left is None:
                    singletons += 1
                    if events is not None:
                        events.append((0, 1))
                    if walk:
                        h = 1
                else:
                    left.parent = None
                    right.parent = None
                    below = roots[h - 1]
                    below += left, right
                    if events is not None:
                        events.append((h, -1))
                    h += 1 if walk and len(below) < 3 else -1
                if done == budget:
                    threshold = 5  # h + 2 holds the top, or 1 after singletons
                    if (start != SCAN and budget == 1
                            and len(roots[1 if left is None else h + 2]) < 5
                            and (start is None or start >= n
                                 or len(roots[start]) < 5)):
                        break
        finally:
            counter.count += 2 * done
            if high > self.stale:
                self.stale = high
            if done and ledger is not None:
                # +1 per carry of three singletons, -1 per other carry.
                ledger.record_rearrangement(done, 2 * singletons - done)
        self.pending = None
        return done

    def validate(self):
        """Diagnostics for buckets, doubly filed roots, the suffix minima
        above stale (against a scan of their own) and trees, one
        validate_tree call each.  A key whose < raises is reported, not
        raised."""
        problems = []
        if self.roots and not self.roots[-1]:
            problems.append(
                f"empty bucket kept at height {len(self.roots) - 1}")
        total = 0
        filed = set()
        bound = self.policy.digit_bound
        for h, bucket in enumerate(self.roots):
            if len(bucket) > bound:
                problems.append(f"digit {len(bucket)} at height {h} exceeds "
                                f"bound {bound}")
            total += len(bucket) * ((1 << (h + 1)) - 1)
            for root in bucket:
                if root in filed:
                    problems.append(f"root {root.key!r} is filed twice")
                filed.add(root)
        if total != self.size:
            problems.append(f"size {self.size}, but trees hold {total} elements")
        best = None
        try:
            for h in range(len(self.roots) - 1, self.stale, -1):
                for root in reversed(self.roots[h]):
                    if best is None or not best[1].key < root.key:
                        best = h, root
                if self.suffix[h:h + 1] != [best]:
                    problems.append(f"suffix[{h}] is not scan_min's choice")
        except Exception as exc:  # a key's <; the heights below go unchecked
            problems.append(f"key comparison raised {type(exc).__name__} at "
                            f"root {root.key!r}, checking suffix[{h}]")
        for h, bucket in enumerate(self.roots):
            for root in bucket:
                problems.extend(validate_tree(PerfectTree(root, h)))
        return problems
