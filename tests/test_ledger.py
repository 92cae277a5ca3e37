"""Potential ledger: delta recording, underflow guards, the audit identity."""

import pytest

from triheap.errors import LedgerError
from triheap.forest import FixPolicy, Forest
from triheap.ledger import PotentialLedger
from triheap.queue import Queue
from triheap.tree import ComparisonCounter
from triheap.workload import QueueRunner, generate_script

from conftest import assert_comparisons_recorded, build_perfect_heap, singleton


class CallCountingLedger(PotentialLedger):
    __slots__ = ("calls",)

    def __init__(self):
        super().__init__(keep_events=True)
        self.calls = 0

    def record_rearrangement(self, count, delta):
        self.calls += 1
        super().record_rearrangement(count, delta)


def fix_with_ledger(forest):
    """Charge the forest's height sum to a fresh ledger, then fix."""
    ledger = CallCountingLedger()
    ledger.record_structural("adopt", forest.height_sum())
    forest.fix(ComparisonCounter(), ledger)
    return ledger


def test_rearrangement_at_height_two_drops_one():
    led = PotentialLedger()
    led.record_structural("adopt", 6)
    led.record_rearrangement(1, -1)
    assert led.phi == 5
    assert led.rearrangements == 1
    assert led.contribution_sum == 6


@pytest.mark.parametrize("height", [1, 2, 3])
def test_tall_carry_lowers_height_sum_by_one(rng, height):
    size = (1 << (height + 1)) - 1
    f = Forest()
    for i in range(3):
        tree = build_perfect_heap(range(100 * i, 100 * i + size), rng)
        f.add_root(tree.root, height)
    before = f.height_sum()
    ledger = fix_with_ledger(f)
    assert f.height_sum() == before - 1
    assert ledger.phi == f.height_sum()
    assert ledger.events == [(height, -1)]


def test_cascade_is_charged_once_per_fix(rng):
    # A carry at height 1 drops two height-0 trees onto the two already
    # there, so a singleton carry follows: net change -1 + 1.
    f = Forest()
    for k in (100, 200):
        f.add_root(singleton(k), 0)
    for i in range(3):
        tree = build_perfect_heap(range(10 * i, 10 * i + 3), rng)
        f.add_root(tree.root, 1)
    before = f.height_sum()
    ledger = fix_with_ledger(f)
    assert ledger.calls == 1
    assert ledger.rearrangements == 2
    assert ledger.events == [(1, -1), (0, 1)]
    assert ledger.phi == before  # the fix moved phi by -1 + 1
    assert f.height_sum() == before
    assert ledger.phi == f.height_sum()
    assert ledger.audit(f) == []


def test_three_drops_from_three():
    led = PotentialLedger()
    led.record_structural("adopt", 3)
    led.record_rearrangement(3, -3)
    assert led.phi == 0
    assert led.rearrangements == 3
    assert led.contribution_sum == 3  # three regular carries net zero


def test_singleton_rearrangement_raises_phi():
    f = Forest()
    for k in range(3):
        f.add_root(singleton(k), 0)
    before = f.height_sum()
    ledger = fix_with_ledger(f)
    assert f.height_sum() == 1
    assert ledger.phi == 1
    assert ledger.phi - before == 1
    assert ledger.events == [(0, 1)]


def test_fix_without_carries_leaves_ledger_alone():
    f = Forest()
    f.add_root(singleton(1), 0)
    ledger = fix_with_ledger(f)
    assert ledger.calls == 0
    assert ledger.rearrangements == 0


def test_underflow_guard():
    led = PotentialLedger()
    with pytest.raises(LedgerError):
        led.record_rearrangement(1, -1)  # from phi 0
    led2 = PotentialLedger()
    with pytest.raises(LedgerError):
        led2.record_structural("delete", -5)


def test_structural_examples():
    led = PotentialLedger(keep_records=True)
    led.record_structural("insert", 0)
    led.finish_op(0, 0)
    led.record_structural("adopt", 3)
    led.finish_op(0, 0)
    led.record_structural("delete_min", 3 - 2)  # height-3 tree: -3 + 2*2
    led.finish_op(2, 5)
    led.record_structural("meld", 0)
    led.finish_op(0, 0)
    assert led.phi == 4
    assert [r.structural_delta for r in led.records] == [0, 3, 1, 0]
    assert [r.comparisons for r in led.records] == [0, 0, 5, 0]


def test_amortized_cost_per_record():
    led = PotentialLedger(keep_records=True)
    led.record_structural("insert", 0)
    led.record_rearrangement(1, 1)  # singleton carry: phi 0 -> 1
    led.finish_op(1, 2)
    rec = led.records[-1]
    assert rec.amortized_cost == 1 + 1  # one fix plus one unit of phi gained


def test_audit_fresh_queue():
    q = Queue()
    assert q.ledger.phi == 0
    assert q.ledger.rearrangements == 0
    assert q.ledger.audit(q.forest) == []


def test_audit_three_inserts():
    # Ground truth after three eager inserts: one height-1 tree, phi = 1.
    q = Queue()
    for k in (5, 3, 9):
        q.insert(k)
    assert q.forest.height_sum() == 1
    assert q.ledger.phi == 1
    assert q.ledger.rearrangements == 1
    # One insert charge of 0 each, one singleton carry charged at +2.
    assert q.ledger.contribution_sum == 2
    assert q.ledger.rearrangements == q.ledger.contribution_sum - q.ledger.phi
    assert q.ledger.audit(q.forest) == []


def test_audit_catches_phi_drift():
    q = Queue()
    q.insert(1)
    q.ledger.phi += 1
    assert any("recomputed" in p for p in q.ledger.audit(q.forest))


def test_audit_every_boundary_10k():
    for policy in (FixPolicy(), FixPolicy("relaxed")):
        runner = QueueRunner(policy=policy)
        for op in generate_script(11, 10_000).ops:
            runner.apply(op)
            assert runner.queue.ledger.audit(runner.queue.forest) == []


def test_a_charge_outside_any_op_fails_the_records_sum():
    q = Queue(keep_records=True)
    for k in (5, 3, 9, 1):
        q.insert(k)
    q.find_min()
    assert_comparisons_recorded(q)
    q.comparator.count += 1
    with pytest.raises(AssertionError):
        assert_comparisons_recorded(q)


def test_absorb_merges_counters():
    a = PotentialLedger(keep_records=True)
    b = PotentialLedger(keep_records=True)
    a.record_structural("adopt", 2)
    a.finish_op(0, 1)
    a.record_rearrangement(1, -1)
    b.record_structural("adopt", 4)
    b.finish_op(0, 3)
    a.absorb(b)
    assert a.phi == 2 + 4 - 1
    assert [r.comparisons for r in a.records] == [1, 3]
    assert sum(r.structural_delta for r in a.records) == 6
    assert len(a.records) == 2
    assert a.rearrangements == a.contribution_sum - a.phi
