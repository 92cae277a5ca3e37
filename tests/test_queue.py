"""Public queue API: the full operation roster against hand checks and
a tracked multiset."""

import math
import random
from itertools import zip_longest

import pytest
from hypothesis import example, given, strategies as st

from triheap.errors import (ContractViolation, EmptyQueueError,
                            InvalidHandleError)
from triheap.forest import FixPolicy
from triheap.queue import Queue, make_queue, meld
from triheap.tree import detach_root

from conftest import build_perfect_heap


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


class TestMakeQueue:

    def test_empty(self):
        q = make_queue()
        assert len(q) == 0
        with pytest.raises(EmptyQueueError):
            q.find_min()

    def test_phi_starts_at_zero(self):
        assert make_queue().ledger.phi == 0

    def test_all_digits_zero(self):
        q = make_queue()
        assert all(q.forest.digit(h) == 0 for h in range(10))


class TestInsert:

    def test_single(self):
        q = make_queue()
        q.insert(5)
        assert q.forest.digit(0) == 1
        assert q.find_min() == (5, None)

    def test_three_eager_collapse(self):
        q = make_queue()
        for k in (5, 3, 9):
            q.insert(k)
        assert q.forest.digit(0) == 0
        assert q.forest.digit(1) == 1
        assert q.find_min()[0] == 3

    def test_seven_inserts_invariants(self):
        q = make_queue()
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
        before any root leaves its bucket.  The digit left at 3 and the
        insert's ledger record that finish_op never closed are open item 4
        of ROADMAP.md."""
        q = make_queue()
        q.insert(1)
        q.insert(2)
        with pytest.raises(TypeError):
            q.insert("x")
        assert len(q) == 3
        assert [k for t in q.forest.trees() for k in t.keys()] == [1, 2, "x"]
        assert q.validate() == ["digit 3 at height 0 exceeds bound 2"]

    def test_payload_round_trip(self):
        q = make_queue()
        q.insert(3, payload="three")
        assert q.find_min() == (3, "three")


class TestFindMin:

    def test_examples(self):
        q = make_queue()
        q.insert(5)
        assert q.find_min()[0] == 5
        q.insert(3)
        q.insert(9)
        assert q.find_min()[0] == 3

    def test_does_not_mutate(self):
        q = make_queue()
        for k in (4, 2, 7, 1):
            q.insert(k)
        before = q.forest.digits()
        q.find_min()
        assert q.forest.digits() == before
        assert len(q) == 4

    def test_matches_tracked_min_on_random_states(self, rng):
        q = make_queue()
        shadow = []
        for _ in range(10_000):
            if shadow and rng.random() < 0.4:
                assert q.find_min()[0] == min(shadow)
            else:
                k = rng.randrange(1 << 20)
                q.insert(k)
                shadow.append(k)

    def test_comparison_bound_eager(self, rng):
        q = make_queue()
        for _ in range(500):
            q.insert(rng.randrange(10_000))
            before = q.comparator.count
            q.find_min()
            used = q.comparator.count - before
            n = len(q)
            assert used <= 2 * math.floor(math.log2(n + 1)) - 1


class TestDeleteMin:

    def test_height1_split(self):
        q = make_queue()
        for k in (1, 2, 3):
            q.insert(k)
        assert q.delete_min()[0] == 1
        assert q.forest.digit(0) == 2
        assert len(q) == 2

    def test_sorts_seven(self):
        q = make_queue()
        for k in (4, 6, 2, 7, 1, 3, 5):
            q.insert(k)
        assert [q.delete_min()[0] for _ in range(7)] == [1, 2, 3, 4, 5, 6, 7]

    def test_structural_delta_height3(self, rng):
        q = Queue(keep_records=True)
        tree = build_perfect_heap(range(15), rng)
        q.forest.add_tree(tree)
        q.ledger.record_structural("adopt", tree.height)
        q.ledger.finish_op(0, 0)
        q.delete_min()
        assert q.ledger.records[-1].structural_delta == 1  # -3 + 2*2
        assert q.validate() == []

    def test_empty_raises(self):
        with pytest.raises(EmptyQueueError):
            make_queue().delete_min()

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
        a = make_queue()
        b = make_queue()
        for k in (5, 1, 8):
            b.insert(k)
        digits = b.forest.digits()
        merged = meld(b, a)
        assert merged is b
        assert not a.alive
        assert merged.forest.digits() == digits
        assert merged.find_min()[0] == 1

    def test_two_singleton_queues(self):
        a = make_queue()
        a.insert(4)
        b = make_queue()
        b.insert(9)
        merged = meld(a, b)
        assert merged.forest.digits() == [2]
        assert len(merged) == 2

    def test_drains_sorted(self):
        a = make_queue()
        for k in range(1, 11):
            a.insert(k)
        b = make_queue()
        for k in range(11, 21):
            b.insert(k)
        merged = meld(a, b)
        assert [merged.delete_min()[0] for _ in range(20)] == list(range(1, 21))
        assert merged.validate() == []

    def test_buckets_concatenate_q1_first(self):
        a = make_queue()
        a.insert(7)
        b = make_queue()
        b.insert(2)
        merged = meld(a, b)
        assert [n.key for n in merged.forest.buckets[0]] == [7, 2]

    def test_policy_mismatch_rejected(self):
        a = make_queue()
        b = make_queue(policy=FixPolicy("relaxed"))
        with pytest.raises(ContractViolation):
            meld(a, b)

    def test_consumed_queue_unusable(self):
        a = make_queue()
        b = make_queue()
        meld(a, b)
        with pytest.raises(ContractViolation):
            b.insert(1)

    def test_handles_from_both_sides_stay_valid(self):
        a = make_queue()
        b = make_queue()
        ha = a.insert(10)
        hb = b.insert(20)
        merged = meld(a, b)
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
        merged = meld(a, b)
        assert ([h for h, _ in merged.ledger.events[before:]]
                == reference_carry_heights(digits, policy))
        assert merged.validate() == []


class TestSplit:

    @staticmethod
    def filled(n, **kw):
        q = make_queue(**kw)
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
        assert other.comparator.raw_less is q.comparator.raw_less
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
    q.forest.add_tree(t)
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
        q = make_queue()
        h = q.insert(5)
        q.decrease_key(h, 2)
        assert q.find_min()[0] == 2
        assert h.key == 2

    def test_forced_swap_example(self):
        # One height-1 tree rooted at 2 with children 5 and 7.
        q = make_queue()
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
        q = make_queue()
        handles = [q.insert(k) for k in range(20)]
        digits = q.forest.digits()
        phi = q.ledger.phi
        q.decrease_key(handles[17], -5)
        assert q.forest.digits() == digits
        assert q.ledger.phi == phi

    def test_dead_handle_rejected(self):
        q = make_queue()
        h = q.insert(1)
        q.delete_min()
        with pytest.raises(InvalidHandleError):
            q.decrease_key(h, 0)

    def test_increase_rejected(self):
        q = make_queue()
        h = q.insert(5)
        with pytest.raises(ContractViolation):
            q.decrease_key(h, 6)

    def test_equal_key_allowed(self):
        q = make_queue()
        h = q.insert(5)
        q.decrease_key(h, 5)
        assert q.find_min()[0] == 5

    def test_foreign_handle_rejected_before_any_comparison(self):
        a = make_queue()
        b = make_queue()
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
        q = make_queue()
        h = q.insert(42)
        q.delete(h)
        assert len(q) == 0
        assert not h.alive
        with pytest.raises(EmptyQueueError):
            q.find_min()

    def test_middle_of_height1_tree(self):
        q = make_queue()
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
        q = make_queue()
        h = q.insert(1)
        q.delete(h)
        with pytest.raises(InvalidHandleError):
            q.delete(h)

    def test_foreign_handle_rejected_before_any_swap(self):
        a = make_queue()
        b = make_queue()
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
        q = make_queue()
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
        q = make_queue()
        assert q.size == 0
        for k in range(5):
            q.insert(k)
        assert q.size == 5
        q.delete_min()
        q.delete_min()
        assert q.size == 3


def test_no_sift_down_exists_anywhere():
    # delete_min leaves already-ordered subtrees behind, so the package has
    # no downward sift at all; detaching a root costs zero comparisons.
    import triheap.tree
    import triheap.forest
    import triheap.queue
    for module in (triheap.tree, triheap.forest, triheap.queue):
        assert not any("sift_down" in name or "bubble_down" in name
                       for name in dir(module))
    q = make_queue()
    for k in (1, 2, 3):
        q.insert(k)
    before = q.comparator.count
    q.delete_min()
    # one scan comparison (two trees after the inserts? no: one tree), fixes 0
    assert q.comparator.count - before == 0


def test_relaxed_policy_end_to_end(rng):
    q = make_queue(policy=FixPolicy("relaxed"))
    keys = [rng.randrange(1 << 16) for _ in range(500)]
    for k in keys:
        q.insert(k)
        assert q.forest.max_digit() <= 4
    assert [q.delete_min()[0] for _ in range(500)] == sorted(keys)
    assert q.validate() == []


def test_custom_comparator_max_heap():
    q = make_queue(less=lambda a, b: a > b)
    for k in (3, 9, 1):
        q.insert(k)
    assert q.find_min()[0] == 9
    assert [q.delete_min()[0] for _ in range(3)] == [9, 3, 1]
    assert q.validate() == []


def test_parallel_queues_are_independent():
    import threading
    results = {}

    def work(tag, seed):
        rng = random.Random(seed)
        q = make_queue()
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
