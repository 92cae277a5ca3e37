"""The pure number-system counter, and its agreement with the real forest."""

from triheap.counter import SkewCounter
from triheap.forest import FixPolicy, Forest
from triheap.tree import CountingComparator

from conftest import singleton


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
        less = CountingComparator()
        carries = 0
        for k in range(1, 2001):
            c.increment()
            f.add_root(singleton(k), 0)
            carries += f.fix(less)
            assert f.digits() == c.digits, f"step {k} under {policy}"
            assert carries == c.carries, f"step {k} under {policy}"
