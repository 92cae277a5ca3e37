"""Public priority-queue operations over the perfect-tree forest.

The queue keeps a forest of perfect heap-ordered binary trees, fixes digit
overflows after every mutation, and accounts every potential change in its
ledger.  delete_min never needs a sift-down: detaching a root leaves two
trees that are already heap-ordered, which is the whole point of the
rearrangement-based design (and why no sift-down exists in this package).
"""

from __future__ import annotations

from .errors import ContractViolation, InvalidHandleError
from .forest import Forest
from .ledger import PotentialLedger
# Forest.remove_root inlines detach_root; the traced run wraps it here.
from .tree import (ComparisonCounter, Node, detach_root, sift_to_root,
                   sift_up)


class Queue:
    """Min-priority queue with insert, find/delete-min, decrease-key, delete,
    meld and split, all addressed through stable element handles.

    Keys are ordered by their own <, as heapq orders them; another order
    takes a key class with its own __lt__.  comparator is the
    ComparisonCounter of the key comparisons the queue's ops made, the
    queue's one comparison count; a ledger record keeps its op's share.

    find_min and delete_min take the minimum from Forest.scan_min, which
    reads only the heights changed since its last scan.

    Every op that opens a ledger record closes it, also when a key
    comparison raises, with the carries (counted on the ledger since the
    record opened) and comparisons made by then.  Without records, no op
    calls finish_op, and record_structural runs only for a nonzero phi
    change, whose underflow it guards.

    A queue is single-owner: it may be handed between threads as a whole but
    must never be accessed concurrently.  Independent queues are fully
    isolated and safe to use from parallel threads.
    """

    __slots__ = ("comparator", "forest", "ledger", "alive")

    def __init__(self, policy=None, keep_records=False, keep_events=False):
        self.comparator = ComparisonCounter()
        self.forest = Forest(policy)
        self.ledger = PotentialLedger(keep_records, keep_events)
        self.alive = True

    def __len__(self):
        return self.forest.size

    def _require_alive(self):
        if not self.alive:
            raise ContractViolation("queue was already consumed by meld")

    def _locate(self, handle):
        """Locate handle's element: returns (node, height, root) of it and
        its tree.

        Raises InvalidHandleError for a dead handle, and ContractViolation,
        from Forest.find_root, for one of another queue; nothing has been
        compared or moved by then.
        """
        node = root = handle.node
        if node is None:
            raise InvalidHandleError("handle's element was already removed")
        while root.parent is not None:
            root = root.parent
        return node, self.forest.find_root(root)[0], root

    def _run_fix(self):
        return self.forest.fix(self.comparator, self.ledger)

    def _fix_op(self, op, delta, c0):
        """Open op's record with its structural delta, run the carries and
        close the record with the carries since then and the comparisons
        since c0, also when a key comparison raises.  Without records,
        only a nonzero delta is taken into phi."""
        ledger = self.ledger
        if ledger.records is None:
            if delta:
                ledger.record_structural(op, delta)
            self._run_fix()
            return
        ledger.record_structural(op, delta)
        r0 = ledger.rearrangements
        try:
            self._run_fix()
        finally:
            ledger.finish_op(ledger.rearrangements - r0,
                             self.comparator.count - c0)

    def insert(self, key, payload=None):
        """Add an element as a fresh height-0 tree; returns its handle.

        The singleton contributes nothing to phi; any carries it triggers are
        accounted separately by the fix machinery.
        """
        if not self.alive:
            self._require_alive()
        c0 = self.comparator.count
        node = Node(key, payload)
        self.forest.add_root(node, 0)
        self._fix_op("insert", 0, c0)
        return node.handle

    def find_min(self):
        """Return (key, payload) of a minimal element without mutating.

        Forest.scan_min reads the roots at the heights changed since its
        last scan, one comparison each; 0 when nothing changed.
        """
        self._require_alive()
        c0 = self.comparator.count
        root = self.forest.scan_min(self.comparator)[1]
        if self.ledger.records is not None:
            self.ledger.record_structural("find_min", 0)
            self.ledger.finish_op(0, self.comparator.count - c0)
        return root.key, root.payload

    def delete_min(self):
        """Remove and return (key, payload) of a minimal element.

        Forest.scan_min finds the minimal root (0 comparisons right after a
        find_min), and Forest.remove_root, the one removal step, which
        delete shares, takes it out and files its two subtrees; its phi
        change opens the record, then carries run.  A scan that raises has
        moved nothing and opened no record.
        """
        if not self.alive:
            self._require_alive()
        c0 = self.comparator.count
        h, root = self.forest.scan_min(self.comparator)
        self._fix_op("delete_min", self.forest.remove_root(h, root), c0)
        return root.key, root.payload

    def decrease_key(self, handle, new_key):
        """Lower the keyed element to new_key and restore heap order upward.

        Content swaps only: tree shapes, forest digits and phi are untouched
        and the handle keeps tracking its element.  The handle's tree must
        belong to this queue; that is checked before any comparison.  The
        op's record is closed on every path, a rejected key increase or a
        raising key comparison included, with the comparisons made by then
        (the increase check counts 1, before its <).  sift_up writes
        new_key only once its comparisons are done, so one that raises
        leaves the element where it was, with its old key.  A sift that
        reached the root raises the forest's stale to the tree's height.
        """
        self._require_alive()
        node, h, root = self._locate(handle)
        c0 = self.comparator.count
        keep = self.ledger.records is not None
        if keep:
            self.ledger.record_structural("decrease_key", 0)
        try:
            self.comparator.count += 1
            if node.key < new_key:
                raise ContractViolation(
                    f"decrease_key to {new_key!r} would raise {node.key!r}")
            if sift_up(node, self.comparator, new_key) is root and \
                    h > self.forest.stale:
                self.forest.stale = h
        finally:
            if keep:
                self.ledger.finish_op(0, self.comparator.count - c0)

    def delete(self, handle):
        """Remove the element behind handle.

        The handle's tree must belong to this queue; that is checked before
        anything moves.  Its content is then hoisted to the tree's root
        without any comparison (treated as below every key), and the root
        is removed by the same path as in delete_min.
        """
        self._require_alive()
        node, h, root = self._locate(handle)
        c0 = self.comparator.count
        sift_to_root(node)
        self._fix_op("delete", self.forest.remove_root(h, root), c0)

    def split(self, fraction):
        """Move the trees past the fraction point into a new queue; returns it.

        In height order, then bucket order, the first int(fraction * trees)
        trees stay; the rest move as they are, with no comparison, into a
        new queue of self's type and policy.  Handles follow their elements,
        and the heights from the boundary down, and all the new queue's,
        become stale.  Each ledger records one "split" op for moved phi.
        Cost: a new queue, a tree count, Forest.split's one pass over the
        heights (only the boundary bucket is sliced) and, without records,
        ledger calls only for a nonzero moved phi; no comparison, no carry.
        """
        if not self.alive:
            self._require_alive()
        if not 0 <= fraction <= 1:
            raise ContractViolation(f"fraction {fraction!r} not in [0, 1]")
        forest, ledger = self.forest, self.ledger
        keep = ledger.records is not None
        other = type(self)(policy=forest.policy, keep_records=keep,
                           keep_events=ledger.events is not None)
        phi = forest.split(int(fraction * forest.tree_count()), other.forest)
        if phi or keep:
            ledger.record_structural("split", -phi)
            other.ledger.record_structural("split", phi)
        if keep:
            ledger.finish_op(0, 0)
            other.ledger.finish_op(0, 0)
        return other

    def meld(self, other):
        """Absorb other into self; returns the melded queue (self).

        Both inputs are consumed: other is dead afterwards and self becomes
        the result.  Buckets concatenate height-wise with self's trees first,
        no tree changes height before fixing, and every handle from either
        input stays valid against the result.  Cost before fixing:
        Forest.meld's one list operation per height, no comparison (the
        policies' == runs only when they are distinct objects); then the
        carries run.  Every height of the result is stale.  Other's
        ledger hands its phi over with its trees, and its counter its
        count.
        """
        if not (self.alive and other.alive):
            self._require_alive()
            other._require_alive()
        if other is self:
            raise ContractViolation("cannot meld a queue with itself")
        policy, theirs = self.forest.policy, other.forest.policy
        if policy is not theirs and policy != theirs:
            raise ContractViolation(
                f"meld across fix policies {policy} / {theirs}")
        c0 = self.comparator.count + other.comparator.count
        self.forest.meld(other.forest)
        self.comparator.count += other.comparator.count
        self.ledger.absorb(other.ledger)
        other.alive = False
        self._fix_op("meld", 0, c0)
        return self

    def validate(self):
        """Diagnostics over forest structure and ledger.

        Walks every tree (perfectness, heap order, handles), a sound one
        once, in validate_tree's fast pass, and checks the buckets, sizes,
        digits and kept suffix minima, and the ledger's phi.  A key whose <
        raises is reported, not raised.
        """
        return self.forest.validate() + self.ledger.audit(self.forest)
