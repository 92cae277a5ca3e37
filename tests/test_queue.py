"""Public queue API: the full operation roster against hand checks and
a tracked multiset."""

import math
import random
from collections import Counter
from itertools import accumulate, zip_longest

import pytest
from hypothesis import example, given, strategies as st

import triheap
from triheap.errors import (ContractViolation, EmptyQueueError,
                            InvalidHandleError)
from triheap.forest import SCAN, FixPolicy, Forest
from triheap.queue import Queue
from triheap.tree import ComparisonCounter, detach_root
from triheap.workload import QueueRunner, generate_script

from conftest import CountedKey, build_perfect_heap
from test_workload import MELD_SPLIT_HEAVY


class Picky(CountedKey):
    """A key whose < raises ValueError between -1 and 1."""

    __slots__ = ()

    def __lt__(self, other):
        if {self.value, other.value} == {-1, 1}:
            raise ValueError("planted")
        return self.value < other.value


def values(q):
    """The values of the Picky keys in q's trees, sorted."""
    return sorted(k.value for t in q.forest.trees() for k in t.keys())


def reference_carry_heights(digits, policy):
    """Heights a lowest-first carry schedule visits, from the digits alone.

    Each step rescans from height 0 for the lowest digit at or over the
    threshold: 3, or 5 once a relaxed policy has spent its budget.
    """
    digits = list(digits)
    heights = []
    threshold = 3
    budget = policy.relaxed_budget if policy.mode == "relaxed" else None
    while True:
        h = next((h for h, d in enumerate(digits) if d >= threshold), None)
        if h is None:
            return heights
        digits[h] -= 3
        if h + 1 == len(digits):
            digits.append(0)
        digits[h + 1] += 1
        if h >= 1:
            digits[h - 1] += 2
        heights.append(h)
        if len(heights) == budget:
            threshold = 5


def test_every_exported_name_resolves():
    missing = [name for name in triheap.__all__
               if not hasattr(triheap, name)]
    assert missing == []


class TestMakeQueue:

    def test_empty(self):
        q = Queue()
        assert len(q) == 0
        with pytest.raises(EmptyQueueError):
            q.find_min()

    def test_phi_starts_at_zero(self):
        assert Queue().ledger.phi == 0

    def test_all_digits_zero(self):
        q = Queue()
        assert q.forest.digits() == []


class TestInsert:

    def test_single(self):
        q = Queue()
        q.insert(5)
        assert q.forest.digits() == [1]
        assert q.find_min() == (5, None)

    def test_three_eager_collapse(self):
        q = Queue()
        for k in (5, 3, 9):
            q.insert(k)
        assert q.forest.digits() == [0, 1]
        assert q.find_min()[0] == 3

    def test_seven_inserts_invariants(self):
        q = Queue()
        for k in range(1, 8):
            q.insert(k)
        digits = q.forest.digits()
        assert sum(d * (2 ** (h + 1) - 1) for h, d in enumerate(digits)) == 7
        assert max(digits) <= 2

    def test_structural_delta_is_zero(self):
        q = Queue(keep_records=True)
        q.insert(1)
        assert q.ledger.records[-1].structural_delta == 0

    def test_raising_comparator_loses_no_element(self):
        """The third insert's carry compares 1, 2 and "x", which raises
        before any root leaves its bucket.  The insert's record is closed
        with the phi and comparisons of the moment; the digit left at 3 is
        open item 4 of ROADMAP.md."""
        q = Queue(keep_records=True)
        q.insert(1)
        q.insert(2)
        with pytest.raises(TypeError):
            q.insert("x")
        assert len(q) == 3
        assert [k for t in q.forest.trees() for k in t.keys()] == [1, 2, "x"]
        rec = q.ledger.records[-1]
        assert (rec.op, rec.fixes, rec.phi_after) == ("insert", 0, q.ledger.phi)
        assert q.comparator.count == q.ledger.comparisons
        assert q.validate() == ["digit 3 at height 0 exceeds bound 2"]

    def test_payload_round_trip(self):
        q = Queue()
        q.insert(3, payload="three")
        assert q.find_min() == (3, "three")


class TestFindMin:

    def test_examples(self):
        q = Queue()
        q.insert(5)
        assert q.find_min()[0] == 5
        q.insert(3)
        q.insert(9)
        assert q.find_min()[0] == 3

    def test_does_not_mutate(self):
        q = Queue()
        for k in (4, 2, 7, 1):
            q.insert(k)
        before = q.forest.digits()
        q.find_min()
        assert q.forest.digits() == before
        assert len(q) == 4

    def test_matches_tracked_min_on_random_states(self, rng):
        q = Queue()
        shadow = []
        for _ in range(10_000):
            if shadow and rng.random() < 0.4:
                assert q.find_min()[0] == min(shadow)
            else:
                k = rng.randrange(1 << 20)
                q.insert(k)
                shadow.append(k)

    def test_comparison_bound_eager(self, rng):
        q = Queue()
        for _ in range(500):
            q.insert(rng.randrange(10_000))
            before = q.comparator.count
            q.find_min()
            used = q.comparator.count - before
            n = len(q)
            assert used <= 2 * math.floor(math.log2(n + 1)) - 1


class TestDeleteMin:

    def test_height1_split(self):
        q = Queue()
        for k in (1, 2, 3):
            q.insert(k)
        assert q.delete_min()[0] == 1
        assert q.forest.digits() == [2]
        assert len(q) == 2

    def test_sorts_seven(self):
        q = Queue()
        for k in (4, 6, 2, 7, 1, 3, 5):
            q.insert(k)
        assert [q.delete_min()[0] for _ in range(7)] == [1, 2, 3, 4, 5, 6, 7]

    def test_structural_delta_height3(self, rng):
        q = Queue(keep_records=True)
        tree = build_perfect_heap(range(15), rng)
        q.forest.add_root(tree.root, tree.height)
        q.ledger.record_structural("adopt", tree.height)
        q.ledger.finish_op(0, 0)
        q.delete_min()
        assert q.ledger.records[-1].structural_delta == 1  # -3 + 2*2
        assert q.validate() == []

    def test_empty_raises(self):
        with pytest.raises(EmptyQueueError):
            Queue().delete_min()

    def test_comparison_bound_with_fixes(self, rng):
        q = Queue(keep_records=True)
        for _ in range(300):
            q.insert(rng.randrange(1 << 16))
        n = len(q)
        while n:
            q.delete_min()
            rec = q.ledger.records[-1]
            bound = 2 * math.floor(math.log2(n + 1)) - 1 + 2 * rec.fixes
            assert rec.comparisons <= bound
            n -= 1


class TestMeld:

    def test_empty_into_queue(self):
        a = Queue()
        b = Queue()
        for k in (5, 1, 8):
            b.insert(k)
        digits = b.forest.digits()
        merged = b.meld(a)
        assert merged is b
        assert not a.alive
        assert merged.forest.digits() == digits
        assert merged.find_min()[0] == 1

    def test_two_singleton_queues(self):
        a = Queue()
        a.insert(4)
        b = Queue()
        b.insert(9)
        merged = a.meld(b)
        assert merged.forest.digits() == [2]
        assert len(merged) == 2

    def test_drains_sorted(self):
        a = Queue()
        for k in range(1, 11):
            a.insert(k)
        b = Queue()
        for k in range(11, 21):
            b.insert(k)
        merged = a.meld(b)
        assert [merged.delete_min()[0] for _ in range(20)] == list(range(1, 21))
        assert merged.validate() == []

    def test_buckets_concatenate_q1_first(self):
        a = Queue()
        a.insert(7)
        b = Queue()
        b.insert(2)
        merged = a.meld(b)
        assert [n.key for n in merged.forest.buckets[0]] == [7, 2]

    def test_policy_mismatch_rejected(self):
        a = Queue()
        b = Queue(policy=FixPolicy("relaxed"))
        with pytest.raises(ContractViolation):
            a.meld(b)

    def test_consumed_queue_unusable(self):
        a = Queue()
        b = Queue()
        a.meld(b)
        with pytest.raises(ContractViolation):
            b.insert(1)

    def test_consumed_queue_hands_its_phi_over(self):
        a = Queue()
        b = Queue()
        for k in range(5):
            b.insert(k)
        phi = b.ledger.phi
        assert phi > 0
        a.meld(b)
        assert (a.ledger.phi, b.ledger.phi) == (phi, 0)
        assert b.comparator.count == b.ledger.comparisons
        assert b.validate() == [] and a.validate() == []

    def test_handles_from_both_sides_stay_valid(self):
        a = Queue()
        b = Queue()
        ha = a.insert(10)
        hb = b.insert(20)
        merged = a.meld(b)
        merged.decrease_key(hb, 1)
        assert merged.find_min()[0] == 1
        merged.decrease_key(ha, 0)
        assert merged.find_min()[0] == 0
        assert merged.validate() == []


    @given(ops_a=st.lists(st.one_of(st.integers(0, 999), st.none()),
                          max_size=120),
           ops_b=st.lists(st.one_of(st.integers(0, 999), st.none()),
                          max_size=120),
           policy=st.sampled_from([FixPolicy(), FixPolicy("relaxed"),
                                   FixPolicy("relaxed", relaxed_budget=2)]))
    @example(ops_a=[0] * 22, ops_b=[1] * 22, policy=FixPolicy())
    @example(ops_a=[0] * 27, ops_b=[1] * 24, policy=FixPolicy("relaxed"))
    def test_carry_schedule_after_meld(self, ops_a, ops_b, policy):
        # None is a delete-min (skipped on an empty queue).  Each side ends
        # within its digit bound, so the sum can be over it at many heights.
        def build(ops):
            q = Queue(policy=policy, keep_events=True)
            for op in ops:
                if op is not None:
                    q.insert(op)
                elif len(q):
                    q.delete_min()
            return q

        a, b = build(ops_a), build(ops_b)
        digits = [x + y for x, y in zip_longest(a.forest.digits(),
                                                b.forest.digits(),
                                                fillvalue=0)]
        before = len(a.ledger.events) + len(b.ledger.events)
        merged = a.meld(b)
        assert ([h for h, _ in merged.ledger.events[before:]]
                == reference_carry_heights(digits, policy))
        assert merged.validate() == []


class TestSplit:

    @staticmethod
    def filled(n, **kw):
        q = Queue(**kw)
        handles = [q.insert(k) for k in range(n)]
        return q, handles

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
    def test_bad_fraction_moves_nothing(self, fraction):
        q, _ = self.filled(20, keep_records=True)
        digits, records = q.forest.digits(), len(q.ledger.records)
        with pytest.raises(ContractViolation):
            q.split(fraction)
        assert q.forest.digits() == digits
        assert len(q.ledger.records) == records
        assert q.validate() == []

    def test_consumed_queue_rejected(self):
        a, _ = self.filled(5)
        b, _ = self.filled(5)
        a.meld(b)
        digits = a.forest.digits()
        with pytest.raises(ContractViolation):
            b.split(0.5)
        assert a.forest.digits() == digits

    def test_zero_moves_every_tree(self):
        q, _ = self.filled(20)
        digits = q.forest.digits()
        other = q.split(0)
        assert len(q) == 0 and q.forest.digits() == []
        assert other.forest.digits() == digits
        assert q.validate() == [] and other.validate() == []

    def test_one_moves_nothing(self):
        q, _ = self.filled(20)
        digits = q.forest.digits()
        other = q.split(1)
        assert len(other) == 0 and other.ledger.phi == 0
        assert q.forest.digits() == digits
        assert q.validate() == [] and other.validate() == []

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75])
    def test_halves_validate_and_split_phi(self, fraction):
        q, _ = self.filled(100, keep_records=True)
        trees = [(t.height, t.root) for t in q.forest.trees()]
        cut = int(fraction * len(trees))
        phi = q.ledger.phi
        other = q.split(fraction)
        assert [(t.height, t.root) for t in q.forest.trees()] == trees[:cut]
        assert [(t.height, t.root) for t in other.forest.trees()] == \
            trees[cut:]
        assert q.validate() == [] and other.validate() == []
        moved = sum(h for h, _ in trees[cut:])
        assert (q.ledger.phi, other.ledger.phi) == (phi - moved, moved)
        assert (q.ledger.records[-1].op, q.ledger.records[-1].structural_delta,
                other.ledger.records[-1].structural_delta) == \
            ("split", -moved, moved)
        assert other.comparator.count == 0

    def test_keeps_queue_type_and_policy(self):
        class Sub(Queue):
            pass

        q = Sub(policy=FixPolicy("relaxed"), keep_events=True)
        for k in range(10):
            q.insert(k)
        other = q.split(0.5)
        assert type(other) is Sub
        assert other.policy == q.policy
        assert other.ledger.events == [] and other.ledger.records is None

    def test_handles_from_both_halves_survive_meld(self):
        q, handles = self.filled(30)
        other = q.split(0.5)
        assert len(q) and len(other)
        assert q.meld(other) is q
        for handle, key in zip(handles, range(30)):
            assert handle.alive and handle.key == key
        q.decrease_key(handles[29], -2)
        q.decrease_key(handles[0], -1)
        q.delete(handles[15])
        assert q.validate() == []
        assert [q.delete_min()[0] for _ in range(29)] == \
            [-2, -1] + [k for k in range(1, 29) if k != 15]


def mixed_queue(policy, n, seed):
    """n inserts of seeded keys, each followed by a delete-min one time in
    five, so the digits vary and heights have empty buckets between them."""
    rng = random.Random(seed)
    q = Queue(policy=policy, keep_records=True)
    for _ in range(n):
        q.insert(rng.randrange(1000))
        if rng.random() < 0.2:
            q.delete_min()
    return q


def filed(forest):
    """Per-height root lists as node ids, in bucket order."""
    return [[id(root) for root in bucket] for bucket in forest.roots]


def shape(node):
    if node is None:
        return None
    return node.key, shape(node.left), shape(node.right)


class TestBucketSplice:
    """Forest.split and Forest.meld move whole buckets; these check that
    they move exactly the trees, in exactly the order, that filing each
    tree with add_root would, and that Queue.split and Queue.meld keep
    their behavior on top of them, a split leaving neither half a cached
    minimum."""

    POLICIES = [FixPolicy(), FixPolicy("relaxed")]

    @staticmethod
    def fraction_for(cut, q):
        """A float cut is the fraction itself; an int picks the end of one
        height's bucket, so the cut lands exactly on a bucket boundary."""
        if isinstance(cut, float):
            return cut
        ends = list(accumulate(q.forest.digits()))
        if not ends:
            return 0.0
        end = ends[cut % len(ends)]
        return 1.0 if end == ends[-1] else (end + 0.5) / ends[-1]

    @given(policy=st.sampled_from(POLICIES), n=st.integers(0, 300),
           seed=st.integers(0, 2 ** 16),
           cut=st.one_of(st.sampled_from([0.0, 1.0]), st.integers(0, 12),
                         st.floats(0, 1)))
    @example(policy=FixPolicy(), n=0, seed=0, cut=0.5)
    @example(policy=FixPolicy("relaxed"), n=300, seed=1, cut=0)
    def test_split_keeps_a_prefix_and_meld_restores_it(self, policy, n,
                                                       seed, cut):
        q = mixed_queue(policy, n, seed)
        fraction = self.fraction_for(cut, q)
        trees = [(h, id(root)) for h, bucket in enumerate(q.forest.roots)
                 for root in bucket]
        count = int(fraction * len(trees))
        if isinstance(cut, int) and trees:
            ends = set(accumulate(q.forest.digits()))
            assert count in ends

        # Forest level, before any fix: the round trip files every root
        # back in place, by identity and order.
        before = filed(q.forest)
        size, phi = q.forest.size, q.ledger.phi
        moved = Forest(policy)
        moved_phi = q.forest.split(count, moved)
        q.forest.meld(moved)
        assert filed(q.forest) == before
        assert q.forest.size == size and moved.roots == [] and \
            moved.size == 0

        if len(q):
            q.find_min()
        other = q.split(fraction)
        assert q.cached_min is None and other.cached_min is None
        kept = [(h, id(root)) for h, bucket in enumerate(q.forest.roots)
                for root in bucket]
        gone = [(h, id(root)) for h, bucket in enumerate(other.forest.roots)
                for root in bucket]
        assert kept == trees[:count] and gone == trees[count:]
        assert other.ledger.phi == moved_phi == sum(h for h, _ in gone)
        assert q.ledger.phi == phi - moved_phi
        assert len(q) == sum((2 << h) - 1 for h, _ in kept)
        assert len(q) + len(other) == size
        for half in (q, other):
            assert not half.forest.roots or half.forest.roots[-1]
            assert half.validate() == []
        assert not {id(b) for b in q.forest.roots} & \
            {id(b) for b in other.forest.roots}

        # No bucket list is shared: an insert into one half leaves the
        # other half's buckets as they were.
        for target, bystander in ((q, other), (other, q)):
            untouched = filed(bystander.forest)
            target.insert(-1)
            assert filed(bystander.forest) == untouched
            assert target.validate() == [] and bystander.validate() == []

    @given(policy=st.sampled_from(POLICIES), n_a=st.integers(0, 300),
           n_b=st.integers(0, 300), seed=st.integers(0, 2 ** 16))
    @example(policy=FixPolicy("relaxed"), n_a=0, n_b=40, seed=0)
    @example(policy=FixPolicy(), n_a=40, n_b=0, seed=0)
    def test_meld_files_like_add_root(self, policy, n_a, n_b, seed):
        # Forest level: the splice puts every root where add_root would.
        a, b = mixed_queue(policy, n_a, seed), mixed_queue(policy, n_b, ~seed)
        reference = Forest(policy)
        for x in (a, b):
            for h, bucket in enumerate(x.forest.roots):
                for root in bucket:
                    reference.add_root(root, h)
        a.forest.meld(b.forest)
        assert filed(a.forest) == filed(reference)
        assert a.forest.size == reference.size
        assert (b.forest.roots, b.forest.size) == ([], 0)

        # Queue level: meld does the same carries, comparisons, phi and
        # digits as a meld whose trees were filed one by one beforehand.
        a, b = mixed_queue(policy, n_a, seed), mixed_queue(policy, n_b, ~seed)
        a2, b2 = mixed_queue(policy, n_a, seed), mixed_queue(policy, n_b, ~seed)
        for h, bucket in enumerate(b2.forest.roots):
            for root in bucket:
                a2.forest.add_root(root, h)
        b2.forest = Forest(policy)
        a.meld(b)
        a2.meld(b2)
        assert [[shape(r) for r in bucket] for bucket in a.forest.roots] == \
            [[shape(r) for r in bucket] for bucket in a2.forest.roots]
        assert (a.comparator.count, a.ledger.rearrangements, a.ledger.phi,
                len(a.ledger.records)) == \
            (a2.comparator.count, a2.ledger.rearrangements, a2.ledger.phi,
             len(a2.ledger.records))
        assert a.validate() == [] and b.validate() == []


@pytest.mark.parametrize("op", ["delete_min", "delete"])
def test_root_removal_shares_one_path(op, rng, monkeypatch):
    """delete_min and delete of the same height-3 root each detach one root
    and record the same structural delta, h - 2, and the same digits."""
    import triheap.queue
    detached = []

    def spy(root):
        detached.append(root.key)
        return detach_root(root)

    q = Queue(keep_records=True)
    t = build_perfect_heap(range(15), rng)
    q.forest.add_root(t.root, t.height)
    q.ledger.record_structural("adopt", t.height)
    q.ledger.finish_op(0, 0)
    handle = t.root.left.left.left.handle
    monkeypatch.setattr(triheap.queue, "detach_root", spy)
    if op == "delete_min":
        assert q.delete_min()[0] == 0
    else:
        q.delete(handle)
    assert len(detached) == 1
    rec = q.ledger.records[-1]
    assert (rec.op, rec.structural_delta, rec.fixes) == (op, 3 - 2, 0)
    assert q.forest.digits() == [0, 0, 2]
    assert q.validate() == []


class TestDecreaseKey:

    def test_root_decrease_no_swaps(self):
        q = Queue()
        h = q.insert(5)
        q.decrease_key(h, 2)
        assert q.find_min()[0] == 2
        assert h.key == 2

    def test_forced_swap_example(self):
        # One height-1 tree rooted at 2 with children 5 and 7.
        q = Queue()
        q.insert(5)
        q.insert(2)
        h7 = q.insert(7)
        q.decrease_key(h7, 1)
        root = q.forest.buckets[1][0]
        assert root.key == 1
        assert sorted((root.left.key, root.right.key)) == [2, 5]
        assert h7.node is root
        assert q.validate() == []

    def test_digits_and_phi_unchanged(self):
        q = Queue()
        handles = [q.insert(k) for k in range(20)]
        digits = q.forest.digits()
        phi = q.ledger.phi
        q.decrease_key(handles[17], -5)
        assert q.forest.digits() == digits
        assert q.ledger.phi == phi

    def test_dead_handle_rejected(self):
        q = Queue()
        h = q.insert(1)
        q.delete_min()
        with pytest.raises(InvalidHandleError):
            q.decrease_key(h, 0)

    def test_increase_rejected(self):
        q = Queue()
        h = q.insert(5)
        with pytest.raises(ContractViolation):
            q.decrease_key(h, 6)

    def test_rejected_increase_closes_its_op(self):
        q = Queue(keep_records=True)
        h = q.insert(5)
        with pytest.raises(ContractViolation):
            q.decrease_key(h, 6)
        assert q.comparator.count == q.ledger.comparisons == 1
        rec = q.ledger.records[-1]
        assert (rec.op, rec.fixes, rec.comparisons) == ("decrease_key", 0, 1)
        assert q.validate() == []
        assert h.key == 5

    @pytest.mark.parametrize("keys, where", [
        (tuple(range(1, 10)), "sift after a swap"),
        ((1, 5, 7), "sift"),
        ((-1,), "increase check"),
    ])
    def test_raising_comparator_closes_its_op(self, keys, where):
        # Picky raises on {-1, 1}; decreasing the last key to -1 meets 1
        # in sift_up, after one swap with 7 (one height-2 tree rooted at 1)
        # or at once (one height-1 tree rooted at 1), or in the increase
        # check.
        q = Queue(keep_records=True)
        handles = [q.insert(Picky(k)) for k in keys]
        q.find_min()
        new_key = 1 if where == "increase check" else -1
        with pytest.raises(ValueError):
            q.decrease_key(handles[-1], Picky(new_key))
        assert q.comparator.count == q.ledger.comparisons
        assert q.ledger.records[-1].op == "decrease_key"
        assert not [p for p in q.validate() if "counted" in p]

    def test_raise_in_sift_rolls_back(self):
        # Picky raises on {-1, 1}: the sift of -1 meets the root 1 and
        # raises; the element goes back where it was, with its old key.
        q = Queue()
        q.insert(Picky(1))
        h = q.insert(Picky(5))
        q.insert(Picky(7))
        with pytest.raises(ValueError):
            q.decrease_key(h, Picky(-1))
        assert q.validate() == []
        assert h.key == Picky(5) and h.node.parent is q.forest.roots[1][0]
        assert values(q) == [1, 5, 7]

    def test_equal_key_allowed(self):
        q = Queue()
        h = q.insert(5)
        q.decrease_key(h, 5)
        assert q.find_min()[0] == 5

    def test_foreign_handle_rejected_before_any_comparison(self):
        a = Queue()
        b = Queue()
        handles = [b.insert(k) for k in range(9)]
        a.insert(10)
        a.insert(11)
        count = a.comparator.count
        charged = a.ledger.comparisons
        assert handles[7].node.parent is not None  # a sift would move it
        with pytest.raises(ContractViolation):
            a.decrease_key(handles[7], -1)
        assert a.comparator.count == count
        assert a.ledger.comparisons == charged
        assert a.validate() == []
        assert b.validate() == []
        assert [b.delete_min()[0] for _ in range(9)] == list(range(9))


class TestDelete:

    def test_only_element(self):
        q = Queue()
        h = q.insert(42)
        q.delete(h)
        assert len(q) == 0
        assert not h.alive
        with pytest.raises(EmptyQueueError):
            q.find_min()

    def test_middle_of_height1_tree(self):
        q = Queue()
        q.insert(1)
        h2 = q.insert(2)
        q.insert(3)
        q.delete(h2)
        assert len(q) == 2
        assert q.find_min()[0] == 1
        assert q.delete_min()[0] == 1
        assert q.delete_min()[0] == 3
        assert not h2.alive

    def test_dead_handle_rejected(self):
        q = Queue()
        h = q.insert(1)
        q.delete(h)
        with pytest.raises(InvalidHandleError):
            q.delete(h)

    def test_foreign_handle_rejected_before_any_swap(self):
        a = Queue()
        b = Queue()
        handles = [b.insert(k) for k in range(9)]
        a.insert(10)
        a.insert(11)
        assert handles[7].node.parent is not None  # a swap would move it
        with pytest.raises(ContractViolation):
            a.delete(handles[7])
        assert a.validate() == []
        assert b.validate() == []
        assert [b.delete_min()[0] for _ in range(9)] == list(range(9))

    def test_random_deletes_against_shadow(self, rng):
        q = Queue()
        shadow = {}
        for i in range(2000):
            roll = rng.random()
            if shadow and roll < 0.3:
                hid = rng.choice(list(shadow))
                q.delete(hid)
                del shadow[hid]
            elif shadow and roll < 0.5:
                assert q.find_min()[0] == min(shadow.values())
            else:
                k = rng.randrange(1 << 16)
                shadow[q.insert(k)] = k
        assert q.validate() == []
        assert len(q) == len(shadow)


class TestSize:

    def test_counts(self):
        q = Queue()
        assert len(q) == 0
        for k in range(5):
            q.insert(k)
        assert len(q) == 5
        q.delete_min()
        q.delete_min()
        assert len(q) == 3


def fresh_scan(q):
    """scan_min's choice right now, on a counter of its own."""
    return q.forest.scan_min(ComparisonCounter())


class TestMinCache:
    """Queue.cached_min is None or exactly the (height, root) that a fresh
    scan_min returns, after every public op; find_min sets it, delete_min
    and decrease_key read it, and every other mutation drops it."""

    POLICIES = [FixPolicy(), FixPolicy("relaxed"),
                FixPolicy("relaxed", relaxed_budget=2)]

    @staticmethod
    def filled(rng, policy, n):
        q = Queue(policy=policy)
        handles = [q.insert(rng.randrange(8)) for _ in range(n)]
        if rng.random() < 0.7:
            q.find_min()
        return q, handles

    @pytest.mark.parametrize("policy", POLICIES, ids=str)
    @pytest.mark.parametrize("seed", range(4))
    def test_cache_is_scan_mins_choice_after_every_op(self, seed, policy):
        # Keys start in range(8) and decrease-keys lower them by up to 8,
        # so ties are common and many sifts reach a root.  Every path that
        # reads the cache must run at least once.
        rng = random.Random(seed)
        q = Queue(policy=policy)
        live = []
        foreign, foreign_handles = self.filled(rng, policy, 20)
        paths = Counter()
        for _ in range(3000):
            roll = rng.random()
            before = q.cached_min
            if not live or roll < 0.35:
                live.append(q.insert(rng.randrange(8)))
                assert q.cached_min is None
            elif roll < 0.55:
                assert q.find_min()[0] == min(h.key for h in live)
                assert q.cached_min is not None
            elif roll < 0.65:
                paths["delete_min cached"] += before is not None
                least = min(h.key for h in live)
                assert q.delete_min()[0] == least
                assert q.cached_min is None
                live = [h for h in live if h.alive]
            elif roll < 0.8:
                h = rng.choice(live)
                q.decrease_key(h, h.key - rng.randrange(9))
                if before is not None:
                    if h.node.parent is not None:
                        path = "dk stopped below a root"
                    elif h.node is before[1]:
                        path = "dk reached the cached root"
                    else:
                        path = "dk reached another root"
                    kept = path != "dk reached another root"
                    assert q.cached_min is (before if kept else None)
                    paths[path] += 1
            elif roll < 0.85:
                q.delete(live.pop(rng.randrange(len(live))))
                assert q.cached_min is None
            elif roll < 0.88:
                q.find_min()
                other = q.split(rng.random())
                assert q.cached_min is None and other.cached_min is None
                for half in (q, other):
                    assert half.validate() == []
                for half in (q, other):
                    if len(half) and rng.random() < 0.5:
                        half.find_min()
                q.meld(other)
                assert q.cached_min is None and other.cached_min is None
            elif roll < 0.9:
                other, handles = self.filled(rng, policy, rng.randrange(1, 40))
                q.meld(other)
                assert q.cached_min is None and other.cached_min is None
                live.extend(handles)
            elif roll < 0.95:
                h = rng.choice(live)
                with pytest.raises(ContractViolation):
                    q.decrease_key(h, h.key + 1)
                assert q.cached_min is before
            else:
                h = rng.choice(foreign_handles)
                with pytest.raises(ContractViolation):
                    if roll < 0.975:
                        q.decrease_key(h, -100)
                    else:
                        q.delete(h)
                assert q.cached_min is before
            cached = q.cached_min
            assert cached is None or cached == fresh_scan(q)
            assert q.validate() == []
        assert q.validate() == [] and foreign.validate() == []
        assert sorted(h.key for h in foreign_handles) == \
            sorted(k for t in foreign.forest.trees() for k in t.keys())
        assert min(paths[p] for p in (
            "delete_min cached", "dk stopped below a root",
            "dk reached the cached root", "dk reached another root")) > 0, \
            paths

    def test_inconsistent_carry_drops_the_cache(self):
        """The carry of a 5, cached before the inserts, with 7 and 9 meets
        keys whose < lies once, on its first call, that 7 < 5: 7 adopts 5,
        and the queue must not keep a root that is now a child."""
        calls = []

        class Liar(CountedKey):
            __slots__ = ()

            def __lt__(self, other):
                calls.append((self.value, other.value))
                return len(calls) == 1 or self.value < other.value

        q = Queue()
        five = q.insert(Liar(5)).node
        q.find_min()
        q.insert(Liar(7))
        q.insert(Liar(9))
        assert calls[0] == (7, 5) and five.parent is q.forest.roots[1][0]
        assert q.cached_min is None
        assert q.delete_min()[0] == Liar(7)
        assert q.validate() == []

    def test_upkeep_costs(self):
        """Each op pays what Queue's docstring says: insert, delete, meld
        and split each drop a cached minimum without a comparison of their
        own (none of these carries)."""
        q = Queue(keep_records=True)

        def cost():
            return q.ledger.records[-1].comparisons

        for k in range(1, 7):
            q.insert(k)  # height-1 trees 1 and 4
        zero = q.insert(0)
        assert q.find_min() == (0, None) and cost() == 2
        q.insert(9)
        assert q.forest.digits() == [2, 2]
        assert cost() == 0 and q.cached_min is None
        assert q.find_min() == (0, None) and cost() == 3
        q.delete(zero)
        assert cost() == 0 and q.cached_min is None
        assert q.find_min() == (1, None) and cost() == 2
        assert q.validate() == []

        a, b = Queue(keep_records=True), Queue()
        a.insert(2)
        b.insert(1)
        a.find_min()
        b.find_min()
        a.meld(b)
        assert a.ledger.records[-1].comparisons == 0
        assert a.cached_min is None and b.cached_min is None
        assert a.find_min() == (1, None)
        other = a.split(0.5)
        assert a.ledger.records[-1].comparisons == 0
        assert a.cached_min is None and other.cached_min is None
        assert other.find_min() == (1, None)
        assert a.validate() == [] and other.validate() == []

    def test_decrease_key_upkeep_costs(self):
        """A tree of 10 over 20 and 30, and a singleton 5 cached as the
        minimum: each decrease-key pays its check and its sift and nothing
        for the cache, which it drops when a root other than the cached
        one got the new key."""
        q = Queue(keep_records=True)
        h10, h20, h30 = (q.insert(k) for k in (10, 20, 30))
        h5 = q.insert(5)
        assert q.find_min() == (5, None)
        cached = q.cached_min

        def cost(handle, key):
            q.decrease_key(handle, key)
            return q.ledger.records[-1].comparisons

        assert cost(h30, 15) == 2  # check, sift stops below the root
        assert q.cached_min is cached
        assert cost(h5, 4) == 1  # check; the cached root itself
        assert q.cached_min is cached
        assert cost(h10, 8) == 1  # check; another root: dropped
        assert q.cached_min is None
        assert q.find_min() == (4, None)
        assert cost(h20, 3) == 2  # check, one sift step; another root
        assert q.cached_min is None
        assert q.find_min() == (3, None)
        cached = q.cached_min
        assert cached == (1, h20.node) == fresh_scan(q)
        assert cost(h10, 2) == 2  # check, one sift step to the cached root
        assert q.cached_min is cached
        assert cached == (1, h10.node) == fresh_scan(q)
        assert q.validate() == []

    def test_repeated_find_min_costs_nothing(self):
        q = Queue(keep_records=True)
        for k in (5, 3, 8, 1, 9, 2, 7, 4):
            q.insert(k)
        trees = q.forest.tree_count()
        assert trees > 1
        assert q.find_min()[0] == 1
        assert q.ledger.records[-1].comparisons == trees - 1
        assert q.find_min()[0] == 1
        assert q.ledger.records[-1].comparisons == 0
        assert q.delete_min()[0] == 1
        rec = q.ledger.records[-1]
        assert rec.comparisons == 2 * rec.fixes
        assert q.cached_min is None
        trees = q.forest.tree_count()
        assert q.delete_min()[0] == 2
        rec = q.ledger.records[-1]
        assert rec.comparisons == trees - 1 + 2 * rec.fixes

    def test_validate_reports_a_stale_cache(self):
        q = Queue()
        for k in (1, 2):
            q.insert(k)
        q.find_min()
        assert q.validate() == []
        least, other = q.forest.roots[0]
        q.cached_min = (0, other)
        assert q.validate() == [
            "cached minimum 2 at height 0 is not scan_min's choice"]
        q.cached_min = (1, least)
        assert q.validate() == [
            "cached minimum 1 at height 1 is not scan_min's choice"]

    def test_validate_reports_comparison_drift(self):
        q = Queue()
        for k in (1, 2, 3):
            q.insert(k)
        q.comparator.count += 1
        assert q.validate() == [
            "comparator counted 3 comparisons, ledger 2"]


@pytest.mark.parametrize("op, keys", [
    pytest.param("insert", [1, 2, -1], id="insert"),
    # 1 < 2 holds, so the carry raises at its second comparison, -1 < 1.
    pytest.param("insert", [2, 1, -1], id="insert-second-comparison"),
    pytest.param("delete_min", [1, -1, 7], id="delete_min"),
    pytest.param("delete", [1, -1, 7], id="delete"),
    pytest.param("meld", [1, 2, -1], id="meld"),
])
def test_raising_carry_closes_the_op_record(op, keys):
    """Each op's carry meets the Picky keys -1 and 1, whose < raises; the
    op's record is still closed, with the phi and comparisons of the
    moment, and no element is lost."""
    q = Queue(keep_records=True)
    if op == "insert":
        q.insert(Picky(keys[0]))
        q.insert(Picky(keys[1]))
    elif op == "meld":
        q.insert(Picky(1))
        q.insert(Picky(2))
        other = Queue(keep_records=True)
        other.insert(Picky(-1))
    else:
        # Root -2 over -1 and 7, and a singleton 1: removing -2 files -1
        # and 7 beside 1, and their carry compares -1 with 1.
        root = q.insert(Picky(-2))
        q.insert(Picky(-1))
        q.insert(Picky(7))
        q.insert(Picky(1))
    with pytest.raises(ValueError):
        if op == "insert":
            q.insert(Picky(keys[2]))
        elif op == "meld":
            q.meld(other)
        elif op == "delete":
            q.delete(root)
        else:
            q.delete_min()
    rec = q.ledger.records[-1]
    assert (rec.op, rec.fixes, rec.phi_after) == (op, 0, q.ledger.phi)
    assert q.comparator.count == q.ledger.comparisons
    assert values(q) == sorted(keys)
    assert q.validate() == ["digit 3 at height 0 exceeds bound 2"]


def test_no_sift_down_exists_anywhere():
    # delete_min leaves already-ordered subtrees behind, so the package has
    # no downward sift at all; detaching a root costs zero comparisons.
    import triheap.tree
    import triheap.forest
    import triheap.queue
    for module in (triheap.tree, triheap.forest, triheap.queue):
        assert not any("sift_down" in name or "bubble_down" in name
                       for name in dir(module))
    q = Queue()
    for k in (1, 2, 3):
        q.insert(k)
    before = q.comparator.count
    q.delete_min()
    # the inserts leave one tree, so the scan compares nothing, and its two
    # leftover singletons need no carry
    assert q.comparator.count - before == 0


def test_relaxed_policy_end_to_end(rng):
    q = Queue(policy=FixPolicy("relaxed"))
    keys = [rng.randrange(1 << 16) for _ in range(500)]
    for k in keys:
        q.insert(k)
        assert q.forest.max_digit() <= 4
    assert [q.delete_min()[0] for _ in range(500)] == sorted(keys)
    assert q.validate() == []


def test_custom_comparator_max_heap():
    """Another order comes from the keys' own <: here a key class that
    reverses it.  The queue takes no comparator."""
    class Reversed(CountedKey):
        __slots__ = ()

        def __lt__(self, other):
            return self.value > other.value

    q = Queue()
    for k in (3, 9, 1):
        q.insert(Reversed(k))
    assert q.find_min()[0] == Reversed(9)
    assert [q.delete_min()[0].value for _ in range(3)] == [9, 3, 1]
    assert q.validate() == []
    with pytest.raises(TypeError):
        Queue(less=lambda a, b: a > b)


def test_parallel_queues_are_independent():
    import threading
    results = {}

    def work(tag, seed):
        rng = random.Random(seed)
        q = Queue()
        keys = [rng.randrange(10_000) for _ in range(2000)]
        for k in keys:
            q.insert(k)
        results[tag] = ([q.delete_min()[0] for _ in range(2000)] ==
                        sorted(keys) and q.validate() == [])

    threads = [threading.Thread(target=work, args=(i, i)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(results.values())


class ScanningQueue(Queue):
    """Runs every fix as the general lowest-first scan, never the walk."""

    def _run_fix(self):
        self.forest.pending = SCAN
        return super()._run_fix()


def roots_and_counts(q):
    """Root keys per height in bucket order, comparisons, carries and the
    cached minimum's height and key."""
    cached = q.cached_min
    return ([[root.key for root in bucket] for bucket in q.forest.roots],
            q.comparator.count, q.ledger.rearrangements,
            None if cached is None else (cached[0], cached[1].key))


def sort_ops(n, seed, key_range):
    rng = random.Random(seed)
    return [("i", rng.randrange(key_range)) for _ in range(n)] + \
        [("dm",)] * n


@pytest.mark.parametrize("ops", [
    sort_ops(3000, 1, 2 ** 32),
    sort_ops(3000, 2, 50),  # many duplicate keys
    generate_script(21, 6000).ops,
    generate_script(22, 6000, MELD_SPLIT_HEAVY).ops,
], ids=["sort", "sort-duplicates", "default-mix", "meld-split-heavy"])
def test_carry_walk_matches_the_scan_after_every_op(ops):
    walking, scanning = QueueRunner(), QueueRunner()
    scanning.queue = ScanningQueue()
    for step, op in enumerate(ops):
        assert walking.apply(op) == scanning.apply(op), f"op {step} {op}"
        assert roots_and_counts(walking.queue) == \
            roots_and_counts(scanning.queue), f"op {step} {op}"
    assert walking.queue.validate() == []


@pytest.mark.parametrize("queue_cls", [Queue, ScanningQueue])
def test_forest_over_the_bound_is_scanned_after_a_raising_carry(queue_cls):
    """The carry of 1, 2 and "x" raises and leaves digit 0 at 3.  Every
    later fix scans, so every op that reaches one raises again, with the
    same sizes as a queue that always scans."""
    q = queue_cls()
    handle = q.insert(1)
    two = q.insert(2)
    with pytest.raises(TypeError):
        q.insert("x")
    assert len(q) == 3 and q.forest.digits() == [3]
    with pytest.raises(TypeError):
        q.delete_min()  # its scan_min raises before anything moves
    assert len(q) == 3
    with pytest.raises(TypeError):
        q.insert(3)
    assert len(q) == 4
    with pytest.raises(TypeError):
        q.delete(handle)  # removes a singleton; the fix after it scans
    assert len(q) == 3 and q.forest.digits() == [3]
    assert q.comparator.count == q.ledger.comparisons
    with pytest.raises(TypeError):
        q.insert(4)
    moved = q.split(0.0)  # the new queue takes the unfinished scan over
    with pytest.raises(TypeError):
        moved.delete(two)
    assert len(moved) == 3 and moved.forest.digits() == [3]


def counted(ops):
    """ops with every key, inserted or lowered to, wrapped in CountedKey."""
    return [(kind, CountedKey(op[1])) if kind == "i" else
            (kind, op[1], CountedKey(op[2])) if kind == "dk" else op
            for op in ops for kind in op[:1]]


@pytest.mark.parametrize("policy", [
    FixPolicy(), FixPolicy("relaxed"), FixPolicy("relaxed", relaxed_budget=2),
], ids=["eager", "relaxed", "relaxed-budget-2"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_counter_equals_the_keys_own_comparisons(seed, policy):
    """Replaying generate_script(seed, 25_000) on CountedKey keys, the
    queue's counter ends equal to the number of < calls the keys saw.
    Nothing else compares keys in between: no validate() and no oracle."""
    ops = counted(generate_script(seed, 25_000).ops)
    runner = QueueRunner(policy=policy)
    CountedKey.calls = 0
    runner.run(ops)
    assert runner.queue.comparator.count == CountedKey.calls > 0


def test_counter_equals_the_keys_own_comparisons_in_heapsort():
    rng = random.Random(2012)
    keys = [CountedKey(rng.getrandbits(32)) for _ in range(10_000)]
    q = Queue()
    CountedKey.calls = 0
    for key in keys:
        q.insert(key)
    out = [q.delete_min()[0] for _ in keys]
    assert q.comparator.count == CountedKey.calls > 0
    assert [k.value for k in out] == sorted(k.value for k in keys)
