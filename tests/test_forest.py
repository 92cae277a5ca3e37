"""Forest: bucket bookkeeping, fix scheduling under both policies, scan_min."""

import itertools
import random

import pytest

from triheap import forest as forest_module
from triheap.errors import ContractViolation, EmptyQueueError
from triheap.forest import FixPolicy, Forest
from triheap.tree import ComparisonCounter, PerfectTree, rearrange_roots

from conftest import CountedKey, build_perfect_heap, perfect_size, singleton


def forest_with_singletons(n, policy=None):
    f = Forest(policy)
    for k in range(n):
        f.add_root(singleton(k), 0)
    return f


def counter():
    return ComparisonCounter()


def phi_prime(f):
    """Uniform-drop potential: height sum plus tree count."""
    return f.height_sum() + f.tree_count()


class TestAddTree:
    """add_root files a tree's root under its height."""

    def test_empty_plus_singleton(self):
        f = Forest()
        root = singleton(4)
        f.add_root(root, 0)
        assert f.digits() == [1]
        assert f.size == 1
        assert f.buckets[0] == [root]

    def test_third_singleton_overflows_quietly(self):
        f = forest_with_singletons(3)
        assert f.digits() == [3]  # overflow pending, add_root never fixes
        assert f.size == 3

    def test_height2_tree_adds_seven(self, rng):
        f = Forest()
        f.add_root(build_perfect_heap(range(7), rng).root, 2)
        assert f.size == 7
        assert f.digits() == [0, 0, 1]


class TestFixEager:

    def test_three_singletons(self):
        f = forest_with_singletons(3)
        assert f.fix(counter()) == 1
        assert f.digits() == [0, 1]

    def test_three_height1_trees(self, rng):
        f = Forest()
        for i in range(3):
            tree = build_perfect_heap(range(10 * i, 10 * i + 3), rng)
            f.add_root(tree.root, 1)
        assert f.fix(counter()) == 1
        assert f.digits() == [2, 0, 1]
        assert f.size == 9

    def test_cascade_lowest_first(self, rng):
        # digit(0)=2, digit(1)=3: fixing h=1 drops two singletons into
        # bucket 0, which then overflows and is fixed in turn.
        f = Forest()
        for k in (100, 200):
            f.add_root(singleton(k), 0)
        for i in range(3):
            tree = build_perfect_heap(range(10 * i, 10 * i + 3), rng)
            f.add_root(tree.root, 1)
        before = phi_prime(f)
        carries = f.fix(counter())
        assert carries == 2
        assert f.digits() == [1, 1, 1]
        assert before - phi_prime(f) == carries
        assert f.validate() == []

    def test_fixpoint_is_noop(self):
        f = forest_with_singletons(2)
        assert f.fix(counter()) == 0
        assert f.digits() == [2]

    def test_no_singleton_carry_means_phi_drop_equals_count(self, rng):
        # Only h >= 1 carries here, so the plain height sum drops by exactly
        # one per carry.
        f = Forest()
        for i in range(3):
            tree = build_perfect_heap(range(10 * i, 10 * i + 3), rng)
            f.add_root(tree.root, 1)
        before = f.height_sum()
        carries = f.fix(counter())
        assert carries == 1
        assert before - f.height_sum() == carries

    def test_singleton_carry_raises_height_sum(self):
        f = forest_with_singletons(3)
        assert f.height_sum() == 0
        f.fix(counter())
        assert f.height_sum() == 1  # the uniform drop only holds for h >= 1

    def test_digit_bound_and_log_tree_count(self, rng):
        f = Forest()
        n = 0
        for _ in range(2000):
            f.add_root(singleton(rng.randrange(10_000)), 0)
            n += 1
            f.fix(counter())
            assert f.max_digit() <= 2
            assert f.tree_count() <= 2 * (n + 1).bit_length() - 2
        assert f.validate() == []

    def test_deterministic(self, rng):
        digit_runs = []
        for _ in range(2):
            f = Forest()
            r = random.Random(99)
            for _ in range(500):
                f.add_root(singleton(r.randrange(100)), 0)
                f.fix(counter())
            digit_runs.append((f.digits(),
                               [n.key for h in sorted(f.buckets)
                                for n in f.buckets[h]]))
        assert digit_runs[0] == digit_runs[1]


def three_roots(h, pattern):
    """Three height-h heaps whose roots hold pattern's keys, in order, and
    a label (tree, preorder position) for every node; calls with equal
    arguments build identical copies."""
    trees = []
    for i, key in enumerate(pattern):
        rest = range(100 * (i + 1), 100 * (i + 1) + perfect_size(h) - 1)
        keys = [CountedKey(key)] + [CountedKey(k) for k in rest]
        trees.append(build_perfect_heap(keys, random.Random(i)))
    label = {id(node): (i, pos) for i, t in enumerate(trees)
             for pos, node in enumerate(t.nodes())}
    return [t.root for t in trees], label


def carry_shape(top, released, label):
    """Labels of the top, its children and the released pair, each with
    its parent's label."""
    nodes = [top, top.left, top.right, *released]
    return [(label[id(node)],
             None if node.parent is None else label[id(node.parent)])
            for node in nodes]


@pytest.mark.parametrize("pattern", list(itertools.product(range(3),
                                                           repeat=3)))
@pytest.mark.parametrize("h", range(4))
def test_fix_carries_like_rearrange_roots(h, pattern, monkeypatch):
    """fix's inline step on a bucket of exactly three roots picks the same
    top as rearrange_roots on an identical copy (ties to the earlier
    root), adopts the other two in bucket order, files the released pair
    at h - 1 in order and charges 2, from two < calls and no call to
    rearrange_roots."""
    def no_call(*args):
        raise AssertionError("fix called rearrange_roots")

    monkeypatch.setattr(forest_module, "rearrange_roots", no_call)
    roots, label = three_roots(h, pattern)
    f = Forest()
    for root in roots:
        f.add_root(root, h)
    counted = counter()
    CountedKey.calls = 0
    assert f.fix(counted) == 1
    assert (counted.count, CountedKey.calls) == (2, 2)
    assert f.digits() == ([0, 1] if h == 0 else [0] * (h - 1) + [2, 0, 1])
    [top] = f.roots[h + 1]
    released = f.roots[h - 1] if h else []

    ref_roots, ref_label = three_roots(h, pattern)
    ref_top, left, right = rearrange_roots(*ref_roots)
    ref_released = [left, right] if h else []
    assert (carry_shape(top, released, label)
            == carry_shape(ref_top, ref_released, ref_label))
    assert f.validate() == []


def replay_fixes(script, scan):
    """Run script on a fresh eager forest and return, after every fix, the
    carries, the comparator count and the root keys per height.

    Steps: ("file", [(h, seed), ...]) files a random-shaped perfect tree of
    height h built from seed; ("remove", i) removes the i-th tree (modulo
    the tree count) and files its two subtrees one height down, as a root
    removal does; ("fix",) runs fix, first setting pending to SCAN when
    scan is set, so the general scan does every carry.  Each fix must
    leave validate() empty.
    """
    f, counted, out = Forest(), counter(), []
    for step in script:
        if step[0] == "file":
            for h, seed in step[1]:
                keys = [seed * 100 + k % 7 for k in range(2 ** (h + 1) - 1)]
                tree = build_perfect_heap(keys, random.Random(seed))
                f.add_root(tree.root, h)
        elif step[0] == "remove" and f.size:
            tree = list(f.trees())[step[1] % f.tree_count()]
            f.remove_root(tree.height, tree.root)
            if tree.height:
                f.add_root(tree.root.left, tree.height - 1)
                f.add_root(tree.root.right, tree.height - 1)
                tree.root.left.parent = tree.root.right.parent = None
        elif step[0] == "fix":
            if scan:
                f.pending = forest_module.SCAN
            carries = f.fix(counted)
            assert f.validate() == [], f"step {len(out)}"
            out.append((carries, counted.count,
                        [[root.key for root in bucket] for bucket in f.roots]))
    return out


class TestCarryWalk:
    """The walk carries as the scan does, and leaves the digit bound, from
    any forest whose digits away from the pending height are within it."""

    def assert_walk_matches_scan(self, script):
        walked = replay_fixes(script, scan=False)
        assert walked == replay_fixes(script, scan=True)
        return walked

    def test_ten_singletons_filed_at_once(self):
        # The first carry leaves bucket 0 at 7, over the bound itself.
        (carries, _, roots), = self.assert_walk_matches_scan(
            [("file", [(0, k) for k in range(10)]), ("fix",)])
        assert carries == 5
        assert list(map(len, roots)) == [0, 1, 1]

    def test_two_roots_filed_between_full_neighbours(self):
        # Digits [2, 2, 2], then two more height-1 trees: the first carry
        # leaves both neighbours at 3 or more.
        full = [(h, 10 * h + k) for h in range(3) for k in range(2)]
        out = self.assert_walk_matches_scan(
            [("file", full), ("fix",), ("file", [(1, 90), (1, 91)]),
             ("fix",)])
        assert out[0][0] == 0 and out[1][0] > 1

    @pytest.mark.parametrize("seed", range(20))
    def test_random_filings_and_removals(self, seed):
        r = random.Random(seed)
        script, serial = [], 1000
        for _ in range(150):
            kind = r.random()
            if kind < 0.5:  # one to three trees at one height
                h = r.randrange(4)
                trees = [(h, serial + k) for k in range(r.randint(1, 3))]
            elif kind < 0.6:  # two heights
                trees = [(r.randrange(4), serial), (r.randrange(4), serial + 1)]
            else:
                script.append(("remove", r.randrange(1000)))
                trees = []
            serial += 3
            if trees:
                script.append(("file", trees))
            if r.random() < 0.8:
                script.append(("fix",))
        script.append(("fix",))
        self.assert_walk_matches_scan(script)


class TestFixRelaxed:

    def relaxed(self, budget=1):
        return FixPolicy("relaxed", relaxed_budget=budget)

    def test_budget_spends_one_step(self):
        f = forest_with_singletons(4, self.relaxed())
        assert f.fix(counter()) == 1
        assert f.digits() == [1, 1]

    def test_digit_four_is_legal(self):
        f = forest_with_singletons(6, self.relaxed())
        assert f.fix(counter()) == 1
        assert f.digits() == [3, 1]
        assert f.max_digit() <= 4

    def test_hard_cap_at_five(self):
        f = forest_with_singletons(8, self.relaxed())
        assert f.fix(counter()) == 2  # one budget step, then the >= 5 cap
        assert f.digits() == [2, 2]

    def test_bigger_budget(self):
        f = forest_with_singletons(7, self.relaxed(budget=2))
        assert f.fix(counter()) == 2
        assert f.digits() == [1, 2]

    def test_bound_holds_over_random_adds(self, rng):
        f = Forest(self.relaxed())
        for _ in range(2000):
            f.add_root(singleton(rng.randrange(10_000)), 0)
            f.fix(counter())
            assert f.max_digit() <= 4
        assert f.validate() == []

    def test_phi_prime_drop_equals_count_either_policy(self, rng):
        for policy in (FixPolicy(), self.relaxed()):
            f = Forest(policy)
            for _ in range(300):
                f.add_root(singleton(rng.randrange(100)), 0)
                before = phi_prime(f)
                carries = f.fix(counter())
                assert before - phi_prime(f) == carries


class TestScanMin:

    def test_single_tree(self):
        f = forest_with_singletons(1)
        counted = counter()
        h, root = f.scan_min(counted)
        assert (h, root) == (0, f.roots[0][0]) and root.key == 0
        assert counted.count == 0

    def test_min_across_heights(self, rng):
        f = Forest()
        f.add_root(singleton(4), 0)
        t = build_perfect_heap([2, 5, 9], rng)
        f.add_root(t.root, t.height)
        f.add_root(singleton(9), 0)
        h, root = f.scan_min(counter())
        assert (h, root.key) == (1, 2)

    def test_tie_prefers_lower_height(self, rng):
        f = Forest()
        low = singleton(3)
        f.add_root(low, 0)
        f.add_root(build_perfect_heap([3, 4, 5, 6, 7, 8, 9], rng).root, 2)
        assert f.scan_min(counter()) == (0, low)

    def test_tie_prefers_earlier_position(self):
        f = Forest()
        first = singleton(3)
        f.add_root(first, 0)
        f.add_root(singleton(3), 0)
        _, root = f.scan_min(counter())
        assert root is first

    def test_comparison_count(self, rng):
        f = Forest()
        for _ in range(7):
            f.add_root(singleton(rng.randrange(100)), 0)
        f.add_root(build_perfect_heap(range(3), rng).root, 1)
        counted = counter()
        f.scan_min(counted)
        assert counted.count == f.tree_count() - 1

    def test_empty_raises(self):
        with pytest.raises(EmptyQueueError):
            Forest().scan_min(counter())


class TestDigits:

    def test_empty(self):
        f = Forest()
        assert f.digits() == []

    def test_three_adds_then_fix(self):
        f = forest_with_singletons(3)
        f.fix(counter())
        assert f.digits() == [0, 1]

    def test_size_conservation_after_ten(self):
        f = forest_with_singletons(10)
        f.fix(counter())
        assert sum(d * (2 ** (h + 1) - 1)
                   for h, d in enumerate(f.digits())) == 10


class TestPolicy:

    def test_bad_mode_rejected(self):
        with pytest.raises(ContractViolation):
            FixPolicy("lazy")

    def test_bad_budget_rejected(self):
        with pytest.raises(ContractViolation):
            FixPolicy("relaxed", relaxed_budget=0)

    def test_digit_bounds(self):
        assert FixPolicy().digit_bound == 2
        assert FixPolicy("relaxed").digit_bound == 4


def test_full_validate_checks_each_tree_through_validate_tree(rng,
                                                               monkeypatch):
    """Forest.validate hands every tree, as a PerfectTree of its own
    height, to the module-level validate_tree exactly once; the traced
    benchmark run times and counts the tree audit at that name."""
    seen = []

    def counting_stub(tree):
        seen.append(tree)
        return []

    monkeypatch.setattr(forest_module, "validate_tree", counting_stub)
    f = Forest()
    trees = [build_perfect_heap(rng.sample(range(100), size), rng)
             for size in (1, 1, 3, 15)]
    for t in trees:
        f.add_root(t.root, t.height)
    assert f.validate() == []
    assert all(type(t) is PerfectTree for t in seen)
    assert [(t.root, t.height) for t in seen] == [
        (t.root, t.height) for t in trees]


def test_root_filed_twice_is_reported(rng):
    """A root appended to its bucket a second time, size included, keeps
    every digit, the size and each tree valid; only the filing shows it."""
    f = Forest()
    for keys in (range(0, 3), range(10, 17)):
        t = build_perfect_heap(list(keys), rng)
        f.add_root(t.root, t.height)
    twice = f.roots[1][0]
    f.add_root(twice, 1)
    assert f.digits() == [0, 2, 1]
    expected = [f"root {twice.key!r} is filed twice"]
    assert f.validate() == expected
