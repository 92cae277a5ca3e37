"""Public priority-queue operations over the perfect-tree forest.

The queue keeps a forest of perfect heap-ordered binary trees, fixes digit
overflows after every mutation, and accounts every potential change in its
ledger.  delete_min never needs a sift-down: detaching a root leaves two
trees that are already heap-ordered, which is the whole point of the
rearrangement-based design (and why no sift-down exists in this package).
"""

from __future__ import annotations

import operator

from .errors import ContractViolation, InvalidHandleError
from .forest import FixPolicy, Forest
from .ledger import PotentialLedger
from .tree import (CountingComparator, Handle, Node, detach_root,
                   sift_to_root, sift_up)


class Queue:
    """Min-priority queue with insert, find/delete-min, decrease-key, delete,
    meld and split, all addressed through stable element handles.

    _min caches the minimum root in the style of a Fibonacci heap's min
    pointer: it is None or the (height, index, root) that Forest.scan_min
    would return right now, ties included (lowest height, then earliest
    bucket position).  find_min stores the result of its scan there, and
    delete_min reuses it instead of scanning.  Upkeep per op:

    - insert: 1 comparison to keep a cache it found, when fix did no carry;
      otherwise the cache is dropped.  An insert never creates a cache, so
      a run of inserts pays nothing for it.
    - decrease_key: 0 comparisons when the element is in the cached root's
      tree or its sift stopped below a root, else 1.
    - delete_min, delete, split, meld: the cache is dropped (meld drops
      both queues' caches).

    A queue is single-owner: it may be handed between threads as a whole but
    must never be accessed concurrently.  Independent queues are fully
    isolated and safe to use from parallel threads.
    """

    __slots__ = ("policy", "comparator", "forest", "ledger", "alive", "_min")

    def __init__(self, policy=None, less=operator.lt, keep_records=False,
                 keep_events=False):
        self.policy = policy if policy is not None else FixPolicy()
        self.comparator = CountingComparator(less)
        self.forest = Forest(self.policy)
        self.ledger = PotentialLedger(keep_records, keep_events)
        self.alive = True
        self._min = None

    def __len__(self):
        return self.forest.size

    def _require_alive(self):
        if not self.alive:
            raise ContractViolation("queue was already consumed by meld")

    def _live_node(self, handle):
        node = handle.node
        if node is None:
            raise InvalidHandleError("handle's element was already removed")
        return node

    def _tree_of(self, node):
        """Locate the tree holding node: returns (height, index, root).

        Raises ContractViolation when node belongs to another queue; nothing
        has been compared or moved by then.
        """
        root = node
        while root.parent is not None:
            root = root.parent
        h, index = self.forest.find_root(root)
        return h, index, root

    def _run_fix(self):
        return self.forest.fix(self.comparator, self.ledger)

    def _keep_min(self, cached, h, index, root):
        """Re-set the cache after root at (h, index) got a key that may beat
        the cached minimum, which is the only root that could have held it.

        One comparison, charged once it returns, as scan_min charges its
        own; scan_min's tie rule decides which side may win on equal keys.
        The cache stays empty if the comparison raises.
        """
        self._min = None
        ch, ci, best = cached
        if (h, index) < (ch, ci):
            wins = not self.comparator.raw_less(best.key, root.key)
        else:
            wins = self.comparator.raw_less(root.key, best.key)
        self.comparator.count += 1
        self._min = (h, index, root) if wins else cached

    def _remove_root(self, op, h, index, c0):
        """The one root-removal path, shared by delete_min and delete.

        The height-h root's two subtrees rejoin the forest as they are, so
        phi changes by h - 2 (by 0 for a singleton); then carries run.
        """
        self._min = None
        left, right = detach_root(self.forest.remove_root(h, index))
        if left is not None:
            self.forest.add_root(left, h - 1)
            self.forest.add_root(right, h - 1)
            delta = h - 2
        else:
            delta = 0
        self.ledger.record_structural(op, delta)
        fixes = self._run_fix()
        self.ledger.finish_op(fixes, self.comparator.count - c0)

    def insert(self, key, payload=None):
        """Add an element as a fresh height-0 tree; returns its handle.

        The singleton contributes nothing to phi; any carries it triggers are
        accounted separately by the fix machinery.  A cached minimum is kept
        at one comparison when no carry ran (the new root sits last in
        bucket 0), and dropped otherwise.
        """
        self._require_alive()
        c0 = self.comparator.count
        cached = self._min
        self._min = None
        node = Node(key, payload)
        handle = Handle(node)
        self.forest.add_root(node, 0)
        self.ledger.record_structural("insert", 0)
        fixes = self._run_fix()
        if cached is not None and not fixes:
            self._keep_min(cached, 0, len(self.forest.roots[0]) - 1, node)
        self.ledger.finish_op(fixes, self.comparator.count - c0)
        return handle

    def find_min(self):
        """Return (key, payload) of a minimal element without mutating.

        Scans the roots (trees - 1 comparisons) only when no minimum is
        cached, and caches what it found; otherwise 0 comparisons.
        """
        self._require_alive()
        c0 = self.comparator.count
        if self._min is None:
            self._min = self.forest.scan_min(self.comparator)
        root = self._min[2]
        self.ledger.record_structural("find_min", 0)
        self.ledger.finish_op(0, self.comparator.count - c0)
        return root.key, root.payload

    def delete_min(self):
        """Remove and return (key, payload) of a minimal element.

        The minimal root is the cached one when a minimum is cached (0 scan
        comparisons), else found by scanning all roots; it is removed by
        _remove_root, the path delete shares, which drops the cache.
        """
        self._require_alive()
        c0 = self.comparator.count
        h, index, root = self._min or self.forest.scan_min(self.comparator)
        self._remove_root("delete_min", h, index, c0)
        return root.key, root.payload

    def decrease_key(self, handle, new_key):
        """Lower the keyed element to new_key and restore heap order upward.

        Content swaps only: tree shapes, forest digits and phi are untouched
        and the handle keeps tracking its element.  The handle's tree must
        belong to this queue; that is checked before any comparison.  The
        op's record is closed on every path, a rejected key increase or a
        raising comparator included, with the comparisons made by then.
        A cached minimum is kept at no cost when the element is in the
        cached root's tree or its sift stopped below the root, else at one
        comparison.
        """
        self._require_alive()
        node = self._live_node(handle)
        h, index, root = self._tree_of(node)
        c0 = self.comparator.count
        self.ledger.record_structural("decrease_key", 0)
        try:
            if self.comparator(node.key, new_key):
                raise ContractViolation(
                    f"decrease_key to {new_key!r} would raise {node.key!r}")
            node.key = new_key
            top = sift_up(node, self.comparator)
            cached = self._min
            if cached is not None and top is root and root is not cached[2]:
                self._keep_min(cached, h, index, root)
        finally:
            self.ledger.finish_op(0, self.comparator.count - c0)

    def delete(self, handle):
        """Remove the element behind handle.

        The handle's tree must belong to this queue; that is checked before
        anything moves.  Its content is then hoisted to the tree's root
        without any comparison (treated as below every key), and the root
        is removed by the same path as in delete_min.
        """
        self._require_alive()
        node = self._live_node(handle)
        c0 = self.comparator.count
        h, index, _ = self._tree_of(node)
        sift_to_root(node)
        self._remove_root("delete", h, index, c0)

    def split(self, fraction):
        """Move the trees past the fraction point into a new queue; returns it.

        In height order, then bucket order, the first int(fraction * trees)
        trees stay; the rest move as they are, with no comparison, into a
        new queue of self's type, policy and key order.  Handles follow
        their elements.  Each ledger records one "split" op for moved phi.
        Cost: Forest.split's few list operations per height (only the
        boundary bucket is sliced), no comparison and no carry.
        """
        self._require_alive()
        if not 0 <= fraction <= 1:
            raise ContractViolation(f"fraction {fraction!r} not in [0, 1]")
        self._min = None
        other = type(self)(policy=self.policy, less=self.comparator.raw_less,
                           keep_records=self.ledger.records is not None,
                           keep_events=self.ledger.events is not None)
        other.forest, phi = self.forest.split(
            int(fraction * self.forest.tree_count()))
        self.ledger.record_structural("split", -phi)
        self.ledger.finish_op(0, 0)
        other.ledger.record_structural("split", phi)
        other.ledger.finish_op(0, 0)
        return other

    def meld(self, other):
        """Absorb other into self; returns the melded queue (self).

        Both inputs are consumed: other is dead afterwards and self becomes
        the result.  Buckets concatenate height-wise with self's trees first,
        no tree changes height before fixing, and every handle from either
        input stays valid against the result.  Cost before fixing:
        Forest.meld's one list operation per height, no comparison; then
        the carries run.  Other's ledger hands its phi over with its trees.
        """
        self._require_alive()
        other._require_alive()
        if other is self:
            raise ContractViolation("cannot meld a queue with itself")
        if self.policy != other.policy:
            raise ContractViolation(
                f"meld across fix policies {self.policy} / {other.policy}")
        if other.comparator.raw_less is not self.comparator.raw_less:
            raise ContractViolation("meld across different comparators")
        self._min = other._min = None
        c0 = self.comparator.count + other.comparator.count
        self.forest.meld(other.forest)
        self.comparator.count += other.comparator.count
        self.ledger.absorb(other.ledger)
        other.alive = False
        self.ledger.record_structural("meld", 0)
        fixes = self._run_fix()
        self.ledger.finish_op(fixes, self.comparator.count - c0)
        return self

    def validate(self, full=True):
        """Diagnostics over forest structure and ledger agreement.

        full=True walks every tree (perfectness, heap order, handles);
        full=False checks only the cheap bucket/size/digit/ledger facts.
        Both check the cached minimum against a fresh scan on a separate
        counter, and the comparator's count against the ledger's.
        """
        problems = self.forest.validate(self.comparator.raw_less, full=full)
        problems.extend(self.ledger.audit(self.forest))
        if self.comparator.count != self.ledger.comparisons:
            problems.append(
                f"comparator counted {self.comparator.count} comparisons, "
                f"ledger {self.ledger.comparisons}")
        if self._min is not None and (
                not self.forest.size or self._min != self.forest.scan_min(
                    CountingComparator(self.comparator.raw_less))):
            h, index, root = self._min
            problems.append(f"cached minimum {root.key!r} at ({h}, {index}) "
                            f"is not scan_min's choice")
        return problems
