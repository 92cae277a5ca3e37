"""The pure number-system counter, and its agreement with the real forest."""

import pytest

from triheap.counter import SkewCounter
from triheap.forest import FixPolicy, Forest
from triheap.tree import ComparisonCounter
from triheap.workload import QueueRunner, generate_script

from conftest import singleton
from test_workload import CARRY_SCHEDULE, MELD_SPLIT_HEAVY


def test_one_increment():
    c = SkewCounter()
    c.increment()
    assert c.digits == [1]
    assert c.value() == 1
    assert c.carries == 0


def test_three_increments_eager():
    c = SkewCounter()
    for _ in range(3):
        c.increment()
    assert c.digits == [0, 1]
    assert c.carries == 1


def test_value_and_bound_up_to_10k():
    for policy in (FixPolicy(), FixPolicy("relaxed")):
        c = SkewCounter(policy)
        for k in range(1, 10_001):
            c.increment()
            assert c.value() == k
            assert c.max_digit() <= policy.digit_bound


def test_relaxed_counter_cases():
    # Mirrors the forest's relaxed fix expectations digit for digit.
    c = SkewCounter(FixPolicy("relaxed"))
    c.digits = [8]
    c.increment()  # 9 pending, one budget step, then the >= 5 hard cap
    assert c.digits == [3, 2]


def test_counter_matches_forest_insert_only():
    for policy in (FixPolicy(), FixPolicy("relaxed"),
                   FixPolicy("relaxed", relaxed_budget=3)):
        c = SkewCounter(policy)
        f = Forest(policy)
        counter = ComparisonCounter()
        carries = 0
        for k in range(1, 2001):
            c.increment()
            f.add_root(singleton(k), 0)
            carries += f.fix(counter)
            assert f.digits() == c.digits, f"step {k} under {policy}"
            assert carries == c.carries, f"step {k} under {policy}"


def test_remove_and_add_by_hand():
    c = SkewCounter()
    c.digits = [1, 2, 1]
    assert c.remove(2) == 2  # [1, 4, 0]: carry at 1, [3, 1, 1]: carry at 0
    assert c.digits == [0, 2, 1]
    assert c.remove(1) == 0 and c.digits == [2, 1, 1]
    assert c.remove(0) == 0 and c.digits == [1, 1, 1]
    other = SkewCounter()
    other.digits = [2, 2, 1]
    assert c.add(other) == 5  # [3, 3, 2] carries at 0, 1, 2, 1 and 0
    assert c.digits == [1, 1, 1, 1] and c.value() == 11 + 15
    assert c.carries == 2 + 5


def split_digits(digits, count):
    """Forest.split in digits: the first count trees, height order, stay."""
    kept, moved = [], []
    for d in digits:
        k = min(d, count)
        count -= k
        kept.append(k)
        moved.append(d - k)
    return kept, moved


@pytest.mark.parametrize("case", list(CARRY_SCHEDULE),
                         ids=lambda case: "-".join(map(str, case)))
def test_counter_matches_every_op_of_the_pinned_replays(case, monkeypatch):
    """Digits and the carry count agree with the queue after every op:
    insert is increment, removing a height-h root is remove(h), and
    meld-split is the digit split followed by add."""
    name, mode, seed = case
    removed = []
    remove_root = Forest.remove_root

    def spy(self, height, root):
        removed.append(height)
        return remove_root(self, height, root)

    monkeypatch.setattr(Forest, "remove_root", spy)
    policy = FixPolicy(mode)
    weights = MELD_SPLIT_HEAVY if name == "meld-split-heavy" else None
    runner = QueueRunner(policy=policy)
    q = runner.queue
    c = SkewCounter(policy)
    for step, op in enumerate(generate_script(seed, 20_000, weights).ops):
        runner.apply(op)
        if op[0] == "i":
            c.increment()
        elif op[0] in ("dm", "del"):
            (h,) = removed
            c.remove(h)
        elif op[0] == "meld-split":
            kept, moved = split_digits(c.digits, int(op[1] * sum(c.digits)))
            other = SkewCounter(policy)
            c.digits, other.digits = kept, moved
            c.add(other)
        removed.clear()
        assert (q.forest.digits(), q.ledger.rearrangements) == \
            (c.digits, c.carries), f"op {step} {op}"
