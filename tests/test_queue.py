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
                            InvalidHandleError, LedgerError)
from triheap.forest import SCAN, FixPolicy, Forest
from triheap.ledger import PotentialLedger
from triheap.queue import Queue
from triheap.tree import ComparisonCounter, rearrange_roots
from triheap.workload import DEFAULT_WEIGHTS, QueueRunner, generate_script

from conftest import (CountedKey, assert_comparisons_recorded,
                      build_perfect_heap, perfect_size)
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
        assert_comparisons_recorded(q)
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

    def test_relaxed_budget_mismatch_rejected(self):
        a = Queue(policy=FixPolicy("relaxed", relaxed_budget=1))
        b = Queue(policy=FixPolicy("relaxed", relaxed_budget=2))
        a.insert(1)
        b.insert(2)
        with pytest.raises(ContractViolation):
            a.meld(b)
        assert a.alive and b.alive and (len(a), len(b)) == (1, 1)

    def test_equal_policies_built_apart_meld(self):
        policies = FixPolicy("relaxed"), FixPolicy("relaxed")
        assert policies[0] is not policies[1]
        a, b = (Queue(policy=p) for p in policies)
        for k in range(5):
            a.insert(k)
            b.insert(10 + k)
        assert a.meld(b) is a and len(a) == 10 and not b.alive
        assert a.validate() == []

    def test_meld_with_itself_rejected(self):
        q = Queue()
        for k in range(6):
            q.insert(k)
        digits = q.forest.digits()
        with pytest.raises(ContractViolation):
            q.meld(q)
        assert q.alive and len(q) == 6 and q.forest.digits() == digits
        assert q.validate() == []

    @pytest.mark.parametrize("consumed_side", ["self", "other"])
    def test_consumed_queue_on_either_side_rejected(self, consumed_side):
        live, dead = Queue(), Queue()
        for k in range(7):
            live.insert(k)
        dead.insert(99)
        Queue().meld(dead)
        digits = live.forest.digits()
        with pytest.raises(ContractViolation):
            if consumed_side == "self":
                dead.meld(live)
            else:
                live.meld(dead)
        assert live.alive and len(live) == 7
        assert live.forest.digits() == digits
        assert live.validate() == []

    def test_consumed_queue_unusable(self):
        a = Queue()
        b = Queue()
        a.meld(b)
        with pytest.raises(ContractViolation):
            b.insert(1)

    def test_consumed_queue_hands_its_phi_over(self):
        a = Queue(keep_records=True)
        b = Queue(keep_records=True)
        for k in range(5):
            b.insert(k)
        phi = b.ledger.phi
        assert phi > 0
        a.meld(b)
        assert (a.ledger.phi, b.ledger.phi) == (phi, 0)
        assert_comparisons_recorded(b)
        assert_comparisons_recorded(a)
        assert b.validate() == [] and a.validate() == []

    def test_melded_records_share_out_both_counts(self):
        """Both queues compared before the meld; the result's records (its
        own, the consumed queue's and the meld's) sum to its count."""
        a = Queue(keep_records=True)
        b = Queue(keep_records=True)
        for k in (4, 8, 1, 6, 2):
            a.insert(k)
        for k in (7, 3, 9, 5, 0):
            b.insert(k)
        b.find_min()
        before = a.comparator.count, b.comparator.count
        assert all(before)
        a.meld(b)
        rec = a.ledger.records[-1]
        assert rec.op == "meld" and rec.comparisons > 0
        assert a.comparator.count == sum(before) + rec.comparisons
        assert_comparisons_recorded(a)

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

    def test_phi_underflow_raises_without_records(self):
        # split(0) moves every tree, so the moved phi is the height sum.
        q, _ = self.filled(20)
        moved = q.forest.height_sum()
        assert q.ledger.records is None and moved > 0
        q.ledger.phi = moved - 1
        with pytest.raises(LedgerError):
            q.split(0)

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
        assert other.forest.policy == q.forest.policy
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
    their behavior on top of them, the scan of each half of a split
    picking what a scan of all its trees picks."""

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
        for half in (q, other):
            if len(half):
                assert half.forest.scan_min(ComparisonCounter()) == \
                    fresh_scan(half)
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
    """delete_min and delete of the same height-3 root each make one
    Forest.remove_root call, at height 3, and record the same structural
    delta, h - 2, and the same digits."""
    removed = []
    remove_root = Forest.remove_root

    def spy(self, height, root):
        removed.append(height)
        return remove_root(self, height, root)

    q = Queue(keep_records=True)
    t = build_perfect_heap(range(15), rng)
    q.forest.add_root(t.root, t.height)
    q.ledger.record_structural("adopt", t.height)
    q.ledger.finish_op(0, 0)
    handle = t.root.left.left.left.handle
    monkeypatch.setattr(Forest, "remove_root", spy)
    if op == "delete_min":
        assert q.delete_min()[0] == 0
    else:
        q.delete(handle)
    assert removed == [3]
    rec = q.ledger.records[-1]
    assert (rec.op, rec.structural_delta, rec.fixes) == (op, 3 - 2, 0)
    assert q.forest.digits() == [0, 0, 2]
    assert q.validate() == []


def test_no_record_calls_without_records(monkeypatch):
    """Without records no op calls finish_op, and record_structural runs
    only for a nonzero phi change, which its underflow guard checks."""
    calls = []
    record_structural = PotentialLedger.record_structural
    finish_op = PotentialLedger.finish_op

    def record_spy(self, op, delta):
        calls.append((op, delta))
        return record_structural(self, op, delta)

    def finish_spy(self, fixes, comparisons):
        calls.append(("finish_op", None))
        return finish_op(self, fixes, comparisons)

    monkeypatch.setattr(PotentialLedger, "record_structural", record_spy)
    monkeypatch.setattr(PotentialLedger, "finish_op", finish_spy)
    ops = generate_script(7, 3000).ops
    assert {op[0] for op in ops} == set(DEFAULT_WEIGHTS)
    for policy in (FixPolicy(), FixPolicy("relaxed")):
        QueueRunner(policy=policy).run(ops)
    assert {"delete_min", "delete", "split"} <= {op for op, _ in calls}
    assert all(op != "finish_op" and delta for op, delta in calls)


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
        assert q.comparator.count == 1
        assert_comparisons_recorded(q)
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
        assert_comparisons_recorded(q)
        assert q.ledger.records[-1].op == "decrease_key"
        assert q.validate() == []

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
        a = Queue(keep_records=True)
        b = Queue()
        handles = [b.insert(k) for k in range(9)]
        a.insert(10)
        a.insert(11)
        count = a.comparator.count
        assert handles[7].node.parent is not None  # a sift would move it
        with pytest.raises(ContractViolation):
            a.decrease_key(handles[7], -1)
        assert a.comparator.count == count
        assert_comparisons_recorded(a)
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


def test_locate_maps_each_handle_to_its_node_and_tree(rng):
    """Queue._locate, on two trees of each height 0-5: a handle at every
    depth maps to its node and to its tree's height and root.  A live
    handle of another queue's tree of equal height raises
    ContractViolation, and a dead one InvalidHandleError, with no key
    compared."""
    q, other = Queue(), Queue()
    for h in range(6):
        for queue in (q, q, other):
            keys = map(CountedKey, range(perfect_size(h)))
            queue.forest.add_root(build_perfect_heap(list(keys), rng).root, h)
    CountedKey.calls = 0
    for t in q.forest.trees():
        for node in t.nodes():
            assert q._locate(node.handle) == (node, t.height, t.root)
    for t in other.forest.trees():
        for node in t.nodes():
            with pytest.raises(ContractViolation):
                q._locate(node.handle)
    assert CountedKey.calls == q.comparator.count == 0
    dead = q.forest.roots[0][0].handle
    q.delete(dead)
    calls = CountedKey.calls
    with pytest.raises(InvalidHandleError):
        q._locate(dead)
    assert CountedKey.calls == calls


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
    """The (height, root) that a scan of every tree, bottom-up, picks: the
    first least root in height order, then bucket order.  It reads no
    kept minimum and counts nothing."""
    best = None
    for h, bucket in enumerate(q.forest.roots):
        for root in bucket:
            if best is None or root.key < best[1].key:
                best = h, root
    return best


def stale_reads(forest):
    """The comparisons scan_min makes now: one per root at or below stale,
    less one when stale is at or above the top."""
    top = len(forest.roots) - 1
    read = sum(map(len, forest.roots[:forest.stale + 1]))
    return read - 1 if forest.stale >= top else read


def node_with_payload(q, payload):
    for t in q.forest.trees():
        for node in t.nodes():
            if node.payload == payload:
                return node


class Trap(Picky):
    """A Picky key whose < raises only while armed, so that the checks
    below can read the trees without raising."""

    __slots__ = ()
    armed = True

    def __lt__(self, other):
        if Trap.armed:
            return Picky.__lt__(self, other)
        return self.value < other.value


def disarmed(check, q):
    Trap.armed = False
    try:
        return check(q)
    finally:
        Trap.armed = True


class TestMinCache:
    """Forest.scan_min keeps one minimum per height and reads only the
    heights at or below stale.  Its choice is exactly a from-scratch
    scan's, ties included, after every public op and any run of them."""

    POLICIES = [FixPolicy(), FixPolicy("relaxed"),
                FixPolicy("relaxed", relaxed_budget=2)]

    @staticmethod
    def key(rng):
        """-10..9, so ties are common, and 1 and -1, whose < raises
        against each other, one time in ten."""
        return Trap(rng.randrange(-10, 10))

    @classmethod
    def filled(cls, rng, policy, n):
        q = Queue(policy=policy)
        handles = []
        for i in range(n):
            try:
                handles.append(q.insert(cls.key(rng), ~i))
            except ValueError:  # filed; a carry raised
                handles.append(node_with_payload(q, ~i).handle)
        if rng.random() < 0.7:
            try:
                q.find_min()
            except ValueError:
                pass
        return q, handles

    @staticmethod
    def problems(q):
        """validate's findings but a digit over the bound, which a raising
        carry leaves."""
        return [p for p in disarmed(Queue.validate, q)
                if "exceeds bound" not in p]

    @pytest.mark.parametrize("policy", POLICIES, ids=str)
    @pytest.mark.parametrize("seed", range(4))
    def test_cache_is_scan_mins_choice_after_every_op(self, seed, policy):
        # Decrease-keys lower a key within -10..9, so many sifts reach a
        # root.  A carry or a scan that meets 1 and -1 raises part way, and
        # every fix raises again until one of them goes, so deletes pick
        # them first.  After every op, raised or not, validate must find the
        # minima kept above stale sound, and half the time scan_min, on a
        # counter of its own, must pick what fresh_scan picks; the other
        # half lets stale heights pile up over several ops.
        rng = random.Random(seed)
        q = Queue(policy=policy)
        live, gone = [], []
        foreign, foreign_handles = self.filled(rng, policy, 20)
        seen = Counter()
        for step in range(3000):
            roll = rng.random()
            try:
                if not live or roll < 0.3:
                    try:
                        live.append(q.insert(self.key(rng), step))
                    except ValueError:  # filed; a carry raised
                        live.append(node_with_payload(q, step).handle)
                        raise
                elif roll < 0.45:
                    want = disarmed(fresh_scan, q)[1].key
                    assert q.find_min()[0] == want
                elif roll < 0.6:
                    node = disarmed(fresh_scan, q)[1]
                    h, want = node.handle, node.key
                    try:
                        assert q.delete_min()[0] == want
                    finally:  # also when the fix after the removal raised
                        if not h.alive:
                            live.remove(h)
                            gone.append(h)
                elif roll < 0.75:
                    h = rng.choice(live)
                    value = h.key.value
                    q.decrease_key(h, Trap(rng.randrange(-10, value + 1)))
                    seen["dk reached a root"] += h.node.parent is None
                elif roll < 0.8:
                    traps = [i for i, h in enumerate(live)
                             if h.key.value in (-1, 1)]
                    h = live.pop(traps[0] if traps
                                 else rng.randrange(len(live)))
                    gone.append(h)
                    q.delete(h)
                elif roll < 0.83:
                    other = q.split(rng.random())
                    try:
                        for half in (q, other):
                            assert self.problems(half) == []
                            if len(half) and rng.random() < 0.5:
                                want = disarmed(fresh_scan, half)[1].key
                                assert half.find_min()[0] == want
                    finally:
                        q.meld(other)
                elif roll < 0.85:
                    other, handles = self.filled(rng, policy,
                                                 rng.randrange(1, 12))
                    live.extend(handles)
                    q.meld(other)
                elif roll < 0.9:
                    h = rng.choice(live)
                    with pytest.raises(ContractViolation):
                        q.decrease_key(h, Trap(h.key.value + 1))
                elif roll < 0.95:
                    h = rng.choice(foreign_handles)
                    with pytest.raises(ContractViolation):
                        if roll < 0.925:
                            q.decrease_key(h, Trap(-100))
                        else:
                            q.delete(h)
                elif gone:
                    h = rng.choice(gone)
                    seen["dead handle"] += 1
                    with pytest.raises(InvalidHandleError):
                        if roll < 0.975:
                            q.decrease_key(h, Trap(-100))
                        else:
                            q.delete(h)
            except ValueError:
                seen["raised"] += 1
            assert self.problems(q) == []
            if len(q) and rng.random() < 0.5:
                want = disarmed(fresh_scan, q)
                try:
                    got = q.forest.scan_min(ComparisonCounter())
                except ValueError:
                    seen["raised"] += 1
                    continue
                assert got == want, f"step {step}"
                seen["scans compared"] += 1
        assert sorted(h.key.value for h in foreign_handles) == \
            sorted(k.value for t in foreign.forest.trees() for k in t.keys())
        assert disarmed(Queue.validate, foreign) == []
        assert min(seen[p] for p in (
            "raised", "dk reached a root", "dead handle",
            "scans compared")) > 10, seen

    def test_inconsistent_carry_drops_the_cache(self):
        """The carry of a 5, the minimum of the last scan, with 7 and 9
        meets keys whose < lies once, on its first call, that 7 < 5: 7
        adopts 5, and the next scan must not pick a root that is now a
        child."""
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
        top = q.forest.roots[1][0]
        assert calls[0] == (7, 5) and five.parent is top
        assert q.forest.scan_min(ComparisonCounter()) == (1, top)
        assert q.delete_min()[0] == Liar(7)
        assert q.validate() == []

    def test_a_key_that_fell_inside_a_tree_comes_back_to_its_bucket(self):
        """5 and 6 are filed at height 0, and a scan keeps 5 as the
        minimum.  An insert of 1 carries them under 1, 6 falls to 2 there
        (not below 1, so no root changes), and delete-min files 5 and 6
        back at height 0: the same nodes, in the same order, in a bucket
        that now holds a new minimum."""
        q = Queue()
        five, six = q.insert(5), q.insert(6)
        assert q.find_min() == (5, None)
        q.insert(1)
        assert six.node.parent is q.forest.roots[1][0]
        q.decrease_key(six, 2)
        assert q.delete_min() == (1, None)
        assert q.forest.roots == [[five.node, six.node]]
        assert q.find_min() == (2, None)
        assert q.validate() == []

    def test_upkeep_costs(self):
        """A find_min reads the roots at the heights changed since the
        last scan, one comparison each; insert, delete, meld and split make
        no comparison of their own (none of these carries)."""
        q = Queue(keep_records=True)

        def cost():
            return q.ledger.records[-1].comparisons

        for k in range(1, 7):
            q.insert(k)  # height-1 trees 1 and 4
        zero = q.insert(0)
        assert q.find_min() == (0, None) and cost() == 2  # every root
        q.insert(9)
        assert q.forest.digits() == [2, 2] and cost() == 0
        assert q.find_min() == (0, None) and cost() == 2  # height 0: 9, 0
        q.delete(zero)
        assert cost() == 0
        assert q.find_min() == (1, None) and cost() == 1  # height 0: 9
        assert q.validate() == []

        a, b = Queue(keep_records=True), Queue()
        a.insert(2)
        b.insert(1)
        a.find_min()
        b.find_min()
        a.meld(b)
        assert a.ledger.records[-1].comparisons == 0
        assert a.find_min() == (1, None)
        assert a.ledger.records[-1].comparisons == 1  # every root
        other = a.split(0.5)
        assert a.ledger.records[-1].comparisons == 0
        assert other.find_min() == (1, None) and a.find_min() == (2, None)
        assert a.validate() == [] and other.validate() == []

    def test_decrease_key_upkeep_costs(self):
        """A tree of 10 over 20 and 30, and a singleton 5 found as the
        minimum: each decrease-key pays its check and its sift and nothing
        more; the next find_min reads no height after a sift that stopped
        below a root, and the tree's height and all below it after one
        that reached a root."""
        q = Queue(keep_records=True)
        h10, h20, h30 = (q.insert(k) for k in (10, 20, 30))
        h5 = q.insert(5)
        assert q.find_min() == (5, None)

        def cost(op, *args):
            got = op(*args)
            return got, q.ledger.records[-1].comparisons

        assert cost(q.decrease_key, h30, 15) == (None, 2)  # check, sift
        assert cost(q.find_min) == ((5, None), 0)
        assert cost(q.decrease_key, h5, 4) == (None, 1)  # check; a root
        assert cost(q.find_min) == ((4, None), 1)  # height 0 against 10
        assert cost(q.decrease_key, h10, 8) == (None, 1)  # check; a root
        assert cost(q.find_min) == ((4, None), 1)  # heights 1 and 0
        assert cost(q.decrease_key, h20, 3) == (None, 2)  # one sift step
        assert cost(q.find_min) == ((3, None), 1)
        assert fresh_scan(q) == (1, h20.node)
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

    @pytest.mark.parametrize("policy", POLICIES, ids=str)
    def test_scan_charges_one_comparison_per_stale_root(self, policy):
        """Every find_min of a random mix charges exactly the < calls its
        scan made: one per root at or below stale, less one from the top."""
        rng = random.Random(5)
        q = Queue(policy=policy, keep_records=True)
        live = []
        partial = 0
        for _ in range(2000):
            roll = rng.random()
            if not live or roll < 0.5:
                live.append(q.insert(CountedKey(rng.randrange(100))))
            elif roll < 0.7:
                q.delete_min()
            elif roll < 0.8:
                h = rng.choice(live)
                q.decrease_key(h, CountedKey(h.key.value - rng.randrange(9)))
            elif roll < 0.85:
                q.meld(q.split(rng.random()))
            live = [h for h in live if h.alive]
            if live and rng.random() < 0.5:
                expected = stale_reads(q.forest)
                partial += expected < q.forest.tree_count() - 1
                CountedKey.calls = 0
                q.find_min()
                assert CountedKey.calls == expected == \
                    q.ledger.records[-1].comparisons
        assert partial > 100

    def test_validate_reports_a_stale_cache(self):
        q = Queue()
        for k in (1, 2):
            q.insert(k)
        q.find_min()
        assert q.validate() == []
        least, other = q.forest.roots[0]
        q.forest.suffix[0] = (0, other)
        assert q.validate() == ["suffix[0] is not scan_min's choice"]
        q.forest.suffix[0] = (1, least)
        assert q.validate() == ["suffix[0] is not scan_min's choice"]
        q.forest.suffix[0] = (0, least)
        assert q.validate() == []
        # A mutation whose stale raise went missing: 0 joins height 0.
        q = Queue()
        q.insert(5)
        q.find_min()
        q.insert(0)
        q.forest.stale = -1
        assert q.validate() == ["suffix[0] is not scan_min's choice"]

    @pytest.mark.parametrize("values, message", [
        ([-1, 1, 2, 3, 4, 5, 6],
         "key comparison raised ValueError at child 1 under -1"),
        ([1, 2, 3, 4, 5, 6, -1],
         "key comparison raised ValueError at root -1, checking suffix[0]"),
    ], ids=["tree", "suffix"])
    def test_validate_reports_a_raising_key(self, values, message):
        """Seven keys, filled and scanned disarmed; armed, 1 and -1 meet
        on a tree's edge or in the suffix check, and validate reports the
        raising < instead of raising it."""
        q = Queue()
        Trap.armed = False
        try:
            for v in values:
                q.insert(Trap(v))
            q.find_min()
        finally:
            Trap.armed = True
        assert q.validate() == [message]
        assert disarmed(Queue.validate, q) == []


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
    assert_comparisons_recorded(q)
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
    forest's stale height."""
    return ([[root.key for root in bucket] for bucket in q.forest.roots],
            q.comparator.count, q.ledger.rearrangements, q.forest.stale)


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


class ReadLog(list):
    """A roots list that notes every height fix reads by subscript."""

    def __init__(self, roots):
        super().__init__(roots)
        self.heights = set()

    def __getitem__(self, h):
        self.heights.add(h)
        return super().__getitem__(h)


class WalkingQueue(Queue):
    """Notes, for every fix, pending before it, its carries and the
    number of heights it read."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.fixes = []

    def _run_fix(self):
        forest = self.forest
        pending = forest.pending
        forest.roots = read = ReadLog(forest.roots)
        carries = super()._run_fix()
        forest.roots = list(read)
        self.fixes.append((pending, carries, len(read.heights)))
        return carries


# Every fix after one insert or one root removal: no meld-split.
ONE_FILING_OPS = pytest.mark.parametrize("ops", [
    sort_ops(3000, 3, 2 ** 32),
    generate_script(23, 6000,
                    dict(DEFAULT_WEIGHTS, **{"meld-split": 0})).ops,
], ids=["sort", "mix-without-meld-split"])


@ONE_FILING_OPS
def test_every_fix_after_insert_or_removal_walks(ops):
    """Insert, delete-min and delete each leave pending at a height (or
    None), never SCAN, and their fix walks: k carries read at most k + 2
    heights, where the scan reads every height up to the top."""
    runner = QueueRunner()
    runner.queue = q = WalkingQueue()
    for op in ops:
        runner.apply(op)
    assert q.fixes and SCAN not in {pending for pending, _, _ in q.fixes}
    assert max(read - carries for _, carries, read in q.fixes) <= 2
    assert q.validate() == []


@ONE_FILING_OPS
def test_relaxed_fix_reads_two_heights_past_its_scan(ops):
    """Under relaxed at budget 1, a fix after one insert or one root
    removal whose one carry, at height c, left no 5 reads heights 0 to c
    in its scan, then at most two more: c + 1, where the top went, and
    the pending height.  A pass for a 5 from height 0 reads them all."""
    runner = QueueRunner()
    runner.queue = q = WalkingQueue(policy=FixPolicy("relaxed"),
                                    keep_events=True)
    for op in ops:
        runner.apply(op)
    events = iter(q.ledger.events)
    past = Counter()
    for pending, carries, read in q.fixes:
        heights = [next(events)[0] for _ in range(carries)]
        assert pending != SCAN
        if carries == 1:
            past[read - heights[0] - 1] += 1
    assert sum(past.values()) > 1000 and max(past) <= 2
    assert q.validate() == []


def fix_from_zero(forest, counter, ledger=None):
    """Forest.fix's relaxed scan, with its pass for a 5 starting over at
    height 0 once the budget is spent.  Same carries, charges, events and
    stale height as fix; the step is tree.rearrange_roots, fix's
    reference."""
    roots = forest.roots
    forest.pending = SCAN
    events = ledger.events if ledger is not None else None
    threshold, h, done, singletons, high = 3, 0, 0, 0, -1
    try:
        while h < len(roots):
            bucket = roots[h]
            if len(bucket) < threshold:
                h += 1
                continue
            top, left, right = rearrange_roots(*bucket[:3])
            del bucket[:3]
            high = max(high, h + 1)
            if h + 1 == len(roots):
                roots.append([])
            roots[h + 1].append(top)
            done += 1
            if left is None:
                singletons += 1
                if events is not None:
                    events.append((0, 1))
            else:
                roots[h - 1] += left, right
                if events is not None:
                    events.append((h, -1))
                h -= 1
            if done == forest.budget:
                threshold, h = 5, 0
    finally:
        counter.count += 2 * done
        forest.stale = max(forest.stale, high)
        if done and ledger is not None:
            ledger.record_rearrangement(done, 2 * singletons - done)
    forest.pending = None
    return done


class FromZeroQueue(Queue):
    """Runs every fix as fix_from_zero."""

    def _run_fix(self):
        return fix_from_zero(self.forest, self.comparator, self.ledger)


def play_two_queues(queue_cls, seed, budget, steps=800):
    """Random inserts (Picky keys, so some carries and scans raise),
    delete-mins, deletes, meld-splits and melds of a separately filled
    second queue, on two relaxed queues of queue_cls; returns, after every
    step, the error it raised and each queue's root payloads per height in
    bucket order, comparisons, carry events and size."""
    r = random.Random(seed)
    policy = FixPolicy("relaxed", relaxed_budget=budget)
    queues = [queue_cls(policy, keep_events=True) for _ in range(2)]
    handles = [[], []]
    out = []
    for serial in range(steps):
        side = r.random() < 0.45
        q, kind = queues[side], r.random()
        raised = None
        try:
            if kind < 0.56:
                key = r.choice((-1, 1)) if r.random() < 0.05 else \
                    r.randrange(2, 100)
                handles[side].append(q.insert(Picky(key), serial))
            elif kind < 0.72 and len(q):
                q.delete_min()
            elif kind < 0.9 and len(q):
                live = [h for h in handles[side] if h.node is not None]
                q.delete(live[r.randrange(len(live))])
            elif kind < 0.98:
                q.meld(q.split(r.random()))
            else:
                other = queues[1]
                queues[1] = queue_cls(policy, keep_events=True)
                handles = [handles[0] + handles[1], []]
                queues[0].meld(other)
        except ValueError as exc:
            raised = str(exc)
        out.append((raised, [([[root.payload for root in bucket]
                               for bucket in x.forest.roots],
                              x.comparator.count, list(x.ledger.events),
                              len(x)) for x in queues]))
    return out


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_relaxed_fix_carries_as_a_pass_from_height_zero(budget):
    """fix's pass for a 5, which goes on from where the budget ran out
    or reads only two buckets, makes the same carries in the same order
    as fix_from_zero, with the same comparisons, also when a key's <
    raises part way."""
    raising = 0
    for seed in range(10):
        ours = play_two_queues(Queue, seed, budget)
        theirs = play_two_queues(FromZeroQueue, seed, budget)
        for step, pair in enumerate(zip(ours, theirs)):
            assert pair[0] == pair[1], f"seed {seed}, step {step}"
        raising += any(raised for raised, _ in ours)
    assert 0 < raising < 10


@pytest.mark.parametrize("queue_cls", [Queue, ScanningQueue])
def test_forest_over_the_bound_is_scanned_after_a_raising_carry(queue_cls):
    """The carry of 1, 2 and "x" raises and leaves digit 0 at 3.  Every
    later fix scans, so every op that reaches one raises again, with the
    same sizes as a queue that always scans."""
    q = queue_cls(keep_records=True)
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
    assert_comparisons_recorded(q)
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
