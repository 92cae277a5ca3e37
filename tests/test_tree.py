"""Tree-core: singletons, rearrangement, root splitting, sift-up, validate."""

import random

import pytest
from hypothesis import given, strategies as st

from triheap.errors import ContractViolation
from triheap.tree import (CountingComparator, Handle, Node, make_singleton,
                          rearrange, sift_to_root, sift_up, split_root,
                          validate_tree)

from conftest import build_perfect_heap, link_snapshot, perfect_size, tree_keys


def cmp():
    return CountingComparator()


class TestMakeSingleton:

    def test_basic(self):
        t = make_singleton(7)
        assert t.height == 0
        assert t.size == 1
        assert t.root.key == 7
        assert t.root.handle.alive
        assert t.root.handle.node is t.root
        assert validate_tree(t) == []

    def test_zero_key(self):
        t = make_singleton(0)
        assert t.height == 0
        assert t.size == 1

    def test_size_identity(self):
        assert perfect_size(0) == 1
        assert make_singleton(1).size == 2 ** (0 + 1) - 1


class TestRearrange:

    def test_three_singletons(self):
        t1, t2, t3 = make_singleton(5), make_singleton(3), make_singleton(9)
        less = cmp()
        big, leftovers = rearrange(t1, t2, t3, less)
        assert leftovers == ()
        assert big.height == 1
        assert big.root.key == 3
        assert big.root.left.key == 5
        assert big.root.right.key == 9
        assert less.count == 2
        assert validate_tree(big) == []

    def test_height2_sizes(self, rng):
        # Fig-style: three height-2 trees -> one height-3 plus two height-1.
        trees = [build_perfect_heap(range(i * 10, i * 10 + 7), rng)
                 for i in range(3)]
        all_keys = sorted(k for t in trees for k in tree_keys(t))
        big, leftovers = rearrange(*trees, cmp())
        assert big.height == 3 and big.size == 15
        assert [t.height for t in leftovers] == [1, 1]
        assert 7 + 7 + 7 == 15 + 3 + 3
        assert big.root.key == min(all_keys)
        for t in (big, *leftovers):
            assert validate_tree(t) == []
        out_keys = sorted(k for t in (big, *leftovers) for k in tree_keys(t))
        assert out_keys == all_keys

    def test_height_sum_drops_by_one(self, rng):
        trees = [build_perfect_heap(rng.sample(range(1000), 7), rng)
                 for _ in range(3)]
        before = sum(t.height for t in trees)
        assert before == 6
        big, leftovers = rearrange(*trees, cmp())
        after = big.height + sum(t.height for t in leftovers)
        assert after == 5
        assert after - before == -1

    def test_tie_earliest_argument_wins(self):
        t1, t2, t3 = make_singleton(4), make_singleton(4), make_singleton(8)
        big, _ = rearrange(t1, t2, t3, cmp())
        assert big.root is t1.root
        u1, u2, u3 = make_singleton(8), make_singleton(4), make_singleton(4)
        big, _ = rearrange(u1, u2, u3, cmp())
        assert big.root is u2.root

    def test_child_order_follows_arguments(self):
        # Minimum in the middle: children are (t1, t3); at the end: (t1, t2).
        t1, t2, t3 = make_singleton(5), make_singleton(1), make_singleton(9)
        big, _ = rearrange(t1, t2, t3, cmp())
        assert (big.root.left, big.root.right) == (t1.root, t3.root)
        u1, u2, u3 = make_singleton(5), make_singleton(9), make_singleton(1)
        big, _ = rearrange(u1, u2, u3, cmp())
        assert (big.root.left, big.root.right) == (u1.root, u2.root)

    def test_exactly_two_comparisons(self, rng):
        for h in (0, 1, 2):
            trees = [build_perfect_heap(rng.sample(range(999), perfect_size(h)),
                                        rng) for _ in range(3)]
            less = cmp()
            rearrange(*trees, less)
            assert less.count == 2

    def test_height_mismatch_rejected(self, rng):
        t1 = make_singleton(1)
        t2 = make_singleton(2)
        t3 = build_perfect_heap([3, 4, 5], rng)
        with pytest.raises(ContractViolation):
            rearrange(t1, t2, t3, cmp())

    def test_aliased_input_rejected(self):
        t1, t2 = make_singleton(1), make_singleton(2)
        with pytest.raises(ContractViolation):
            rearrange(t1, t2, t1, cmp())

    def test_touches_only_the_three_roots(self, rng):
        trees = [build_perfect_heap(rng.sample(range(10_000), 15), rng)
                 for _ in range(3)]
        before = {}
        for t in trees:
            before.update(link_snapshot(t))
        roots = {id(t.root) for t in trees}
        big, leftovers = rearrange(*trees, cmp())
        old_children = {id(t.root) for t in leftovers}
        allowed = roots | old_children
        details = {}
        for t in (big, *leftovers):
            details.update(link_snapshot(t))
        assert set(details) == set(before)
        for nid, now in details.items():
            was = before[nid]
            assert now[3] == was[3], "a key moved"
            assert now[4] is was[4], "a handle moved"
            if nid not in allowed:
                assert now[:3] == was[:3], "links of an interior node changed"

    def test_handles_survive(self, rng):
        trees = [build_perfect_heap(rng.sample(range(500), 7), rng)
                 for _ in range(3)]
        handles = {n.handle: n.key for t in trees for n in t.nodes()}
        rearrange(*trees, cmp())
        for handle, key in handles.items():
            assert handle.alive and handle.node.key == key


class TestSplitRoot:

    def test_height1(self, rng):
        t = build_perfect_heap([1, 2, 3], rng)
        root_handle = t.root.handle
        key, _, leftovers = split_root(t)
        assert key == 1
        assert not root_handle.alive
        assert sorted(l.root.key for l in leftovers) == [2, 3]
        assert all(l.height == 0 for l in leftovers)
        for l in leftovers:
            assert validate_tree(l) == []

    def test_singleton(self):
        key, payload, leftovers = split_root(make_singleton(9, "p"))
        assert (key, payload, leftovers) == (9, "p", ())

    def test_seven_nodes(self, rng):
        keys = rng.sample(range(100), 7)
        t = build_perfect_heap(keys, rng)
        key, _, leftovers = split_root(t)
        assert key == min(keys)
        assert [l.size for l in leftovers] == [3, 3]
        out = sorted(k for l in leftovers for k in tree_keys(l))
        assert out == sorted(k for k in keys if k != min(keys))
        for l in leftovers:
            assert validate_tree(l) == []

    def test_no_comparisons(self, rng):
        t = build_perfect_heap(rng.sample(range(100), 15), rng)
        split_root(t)  # would blow up if it needed a comparator at all


class TestSiftUp:

    def test_root_is_noop(self):
        t = make_singleton(5)
        less = cmp()
        sift_up(t.root, less)
        assert less.count == 0
        assert t.root.key == 5

    def test_one_forced_swap(self):
        # Hand-built pre-sift state: root 5 above children 2 and 7.
        five = make_singleton(5).root
        two = make_singleton(2).root
        seven = make_singleton(7).root
        five.left, five.right = two, seven
        two.parent = seven.parent = five
        h2 = two.handle
        less = cmp()
        sift_up(two, less)
        assert less.count == 1
        assert five.key == 2 and two.key == 5
        assert h2.node is five and h2.key == 2

    def test_decreased_leaf_reaches_root(self, rng):
        t = build_perfect_heap(rng.sample(range(10, 500), 15), rng)
        leaf = next(n for n in t.nodes() if n.left is None)
        handle = leaf.handle
        leaf.key = -1  # below every key in the tree
        sift_up(leaf, cmp())
        assert t.root.key == -1
        assert handle.node is t.root
        assert validate_tree(t) == []

    def test_sift_to_root_uses_no_comparisons(self, rng):
        t = build_perfect_heap(rng.sample(range(100), 15), rng)
        leaf = next(n for n in t.nodes() if n.left is None)
        handle = leaf.handle
        key = leaf.key
        node = sift_to_root(leaf)
        assert node is t.root
        assert t.root.key == key
        assert handle.node is t.root


class TestValidate:

    def test_rearrange_outputs_pass(self, rng):
        trees = [build_perfect_heap(rng.sample(range(100), 7), rng)
                 for _ in range(3)]
        big, leftovers = rearrange(*trees, cmp())
        for t in (big, *leftovers):
            assert validate_tree(t) == []

    def test_heap_violation_reported(self, rng):
        t = build_perfect_heap([1, 2, 3, 4, 5, 6, 7], rng)
        t.root.left.key = t.root.key - 1  # corrupt: child below parent
        problems = validate_tree(t)
        assert any("heap order" in p for p in problems)

    def test_missing_leaf_reported(self, rng):
        t = build_perfect_heap(list(range(7)), rng)
        parent = t.root.left
        parent.left = None  # orphan one leaf
        problems = validate_tree(t)
        assert any("one child" in p for p in problems)
        assert any("node count" in p for p in problems)

    def test_handle_corruption_reported(self, rng):
        t = build_perfect_heap(list(range(3)), rng)
        t.root.left.handle = t.root.handle
        assert any("handle" in p for p in validate_tree(t))


def _at_depth(t, depth):
    """The node reached from the root by alternating left and right steps."""
    node = t.root
    for step in range(depth):
        node = node.right if step % 2 else node.left
    return node


def _count_message(count):
    return f"node count {count}, expected 15 for height 3"


def _root_has_parent(t, node, depth):
    node.parent = Node(-1)
    return [f"root {node.key!r} has a parent"]


def _one_child(t, node, depth):
    node.right = None
    return [f"node {node.key!r} has exactly one child",
            _count_message(15 - perfect_size(2 - depth))]


def _no_handle(t, node, depth):
    node.handle = None
    return [f"node {node.key!r} has no handle"]


def _handle_elsewhere(t, node, depth):
    node.handle = Handle(Node(-1))
    return [f"handle of node {node.key!r} points elsewhere"]


def _leaf_at_wrong_depth(t, node, depth):
    node.left = node.right = None
    return [f"leaf {node.key!r} at depth {depth}, expected 3",
            _count_message(15 - 2 * perfect_size(2 - depth))]


def _child_does_not_link_back(t, node, depth):
    parent = node.parent
    node.parent = None
    return [f"child {node.key!r} does not link back to {parent.key!r}"]


def _parent_above_children(t, node, depth):
    node.key = 100
    return [f"heap order broken: child {child.key!r} under parent 100"
            for child in (node.left, node.right)]


def _child_below_parent(t, node, depth):
    node.key = -1
    return [f"heap order broken: child -1 under parent {node.parent.key!r}"]


def _node_count(t, node, depth):
    # Fifteen nodes whose tree claims height 2: only the count and the
    # depth of the leaves can tell.
    t.height = 2
    return [f"leaf {leaf.key!r} at depth 3, expected 2"
            for leaf in t.nodes() if leaf.left is None] + [
        "node count 15, expected 7 for height 2"]


def _sibling_alias(t, node, depth):
    # Both links lead to the left subtree; it links back to node, so only
    # the identity of the two children tells.  The right subtree is lost.
    node.right = node.left
    return [f"node {node.key!r} has child {node.left.key!r} on both sides",
            _count_message(15 - perfect_size(2 - depth))]


def _two_children_at_leaf_depth(t, node, depth):
    for key in (100, 101):
        child = Node(key)
        Handle(child)
        child.parent = node
        if node.left is None:
            node.left = child
        else:
            node.right = child
    return ["leaf 100 at depth 4, expected 3",
            "leaf 101 at depth 4, expected 3", _count_message(17)]


@pytest.mark.parametrize("plant, depth", [
    (_root_has_parent, 0),
    (_one_child, 0), (_one_child, 1), (_one_child, 2),
    (_no_handle, 0), (_no_handle, 1), (_no_handle, 3),
    (_handle_elsewhere, 0), (_handle_elsewhere, 2), (_handle_elsewhere, 3),
    (_leaf_at_wrong_depth, 0), (_leaf_at_wrong_depth, 1),
    (_leaf_at_wrong_depth, 2),
    (_child_does_not_link_back, 1), (_child_does_not_link_back, 2),
    (_child_does_not_link_back, 3),
    (_parent_above_children, 0), (_parent_above_children, 1),
    (_parent_above_children, 2),
    (_child_below_parent, 1), (_child_below_parent, 2),
    (_child_below_parent, 3),
    (_node_count, 0),
    (_two_children_at_leaf_depth, 3),
    (_sibling_alias, 0), (_sibling_alias, 1), (_sibling_alias, 2),
])
def test_every_diagnostic_is_reported(plant, depth, rng):
    """One planted corruption of a height-3 heap yields exactly its
    messages, wherever in the tree it sits."""
    t = build_perfect_heap(list(range(15)), rng)
    assert validate_tree(t) == []
    expected = plant(t, _at_depth(t, depth), depth)
    assert sorted(validate_tree(t)) == sorted(expected)


def test_randomized_storm_conserves_everything(rng):
    """10_000 rearrange/split applications keep every invariant intact."""
    by_height = {0: [make_singleton(rng.randrange(1000)) for _ in range(60)]}
    alive = {t.root.handle: t.root.key for t in by_height[0]}
    removed = []
    all_keys = sorted(alive.values())
    applications = 0
    while applications < 10_000:
        heights = [h for h, ts in by_height.items() if len(ts) >= 3]
        if heights and rng.random() < 0.7:
            h = rng.choice(heights)
            ts = by_height[h]
            picks = [ts.pop(rng.randrange(len(ts))) for _ in range(3)]
            big, leftovers = rearrange(*picks, cmp())
            assert validate_tree(big) == []
            by_height.setdefault(big.height, []).append(big)
            for l in leftovers:
                assert validate_tree(l) == []
                by_height.setdefault(l.height, []).append(l)
        else:
            candidates = [(h, i) for h, ts in by_height.items()
                          for i in range(len(ts))]
            if not candidates:
                break
            h, i = candidates[rng.randrange(len(candidates))]
            t = by_height[h].pop(i)
            handle = t.root.handle
            key, _, leftovers = split_root(t)
            assert not handle.alive
            del alive[handle]
            removed.append(key)
            for l in leftovers:
                by_height.setdefault(l.height, []).append(l)
        applications += 1
        if sum(len(ts) for ts in by_height.values()) < 3:
            fresh = [make_singleton(rng.randrange(1000)) for _ in range(60)]
            by_height.setdefault(0, []).extend(fresh)
            for t in fresh:
                alive[t.root.handle] = t.root.key
                all_keys.append(t.root.key)
            all_keys.sort()
    for handle, key in alive.items():
        assert handle.alive and handle.node.key == key
    in_trees = [n.key for ts in by_height.values() for t in ts
                for n in t.nodes()]
    assert sorted(in_trees + removed) == all_keys


@given(h=st.integers(0, 2), seed=st.integers(0, 2 ** 20),
       base=st.lists(st.integers(-1000, 1000), min_size=21, max_size=21))
def test_rearrange_properties(h, seed, base):
    rng = random.Random(seed)
    size = perfect_size(h)
    trees = [build_perfect_heap(base[i * size:(i + 1) * size], rng)
             for i in range(3)]
    in_keys = sorted(k for t in trees for k in tree_keys(t))
    less = cmp()
    big, leftovers = rearrange(*trees, less)
    assert less.count == 2
    assert big.height == h + 1
    if h == 0:
        assert leftovers == ()
    else:
        assert [t.height for t in leftovers] == [h - 1, h - 1]
    out_keys = sorted(k for t in (big, *leftovers) for k in tree_keys(t))
    assert out_keys == in_keys
    for t in (big, *leftovers):
        assert validate_tree(t) == []
