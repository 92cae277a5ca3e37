"""Tree-core: singletons, rearrangement, root detaching, sift-up, validate."""

import random

import pytest
from hypothesis import given, strategies as st

from triheap import Queue, tree as tree_module
from triheap.tree import (ComparisonCounter, Handle, Node, PerfectTree,
                          detach_root, rearrange_roots, sift_to_root, sift_up,
                          validate_tree)

from conftest import (CountedKey, build_perfect_heap, link_snapshot,
                      perfect_size, singleton, tree_keys)


def counted_heap(keys, rng):
    """build_perfect_heap over CountedKey keys, with the count set to 0."""
    t = build_perfect_heap([CountedKey(k) for k in keys], rng)
    CountedKey.calls = 0
    return t


def carried(out, h):
    """rearrange_roots' output for three height-h roots, as PerfectTree
    views: the height-(h+1) tree and its leftovers (none when h == 0)."""
    top, left, right = out
    if h == 0:
        assert left is None and right is None
        return PerfectTree(top, 1), ()
    return PerfectTree(top, h + 1), (PerfectTree(left, h - 1),
                                     PerfectTree(right, h - 1))


def roots(trees):
    return [t.root for t in trees]


class TestMakeSingleton:
    """A singleton is a Node linked to a fresh Handle, as Queue.insert
    makes one; PerfectTree views it at height 0."""

    def test_basic(self):
        node = Node(7)
        handle = Handle(node)
        t = PerfectTree(node, 0)
        assert t.height == 0
        assert t.size == 1
        assert t.root.key == 7
        assert handle.alive and node.handle is handle
        assert handle.node is t.root
        assert validate_tree(t) == []

    def test_zero_key(self):
        t = PerfectTree(singleton(0), 0)
        assert t.height == 0
        assert t.size == 1
        assert t.root.handle.key == 0

    def test_size_identity(self):
        assert perfect_size(0) == 1
        assert PerfectTree(singleton(1), 0).size == 2 ** (0 + 1) - 1


class TestRearrange:
    """rearrange_roots on three equal-height roots."""

    def test_three_singletons(self):
        r1, r2, r3 = (singleton(CountedKey(k)) for k in (5, 3, 9))
        CountedKey.calls = 0
        top, left, right = rearrange_roots(r1, r2, r3)
        assert CountedKey.calls == 2
        assert left is None and right is None
        assert top is r2
        assert top.key == CountedKey(3)
        assert top.left.key == CountedKey(5)
        assert top.right.key == CountedKey(9)
        assert validate_tree(PerfectTree(top, 1)) == []

    def test_height2_sizes(self, rng):
        # Fig-style: three height-2 trees -> one height-3 plus two height-1.
        trees = [build_perfect_heap(range(i * 10, i * 10 + 7), rng)
                 for i in range(3)]
        all_keys = sorted(k for t in trees for k in tree_keys(t))
        big, leftovers = carried(rearrange_roots(*roots(trees)), 2)
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
        big, leftovers = carried(rearrange_roots(*roots(trees)), 2)
        after = big.height + sum(t.height for t in leftovers)
        assert after == 5
        assert after - before == -1

    def test_tie_earliest_argument_wins(self):
        r1, r2, r3 = singleton(4), singleton(4), singleton(8)
        top, _, _ = rearrange_roots(r1, r2, r3)
        assert top is r1
        u1, u2, u3 = singleton(8), singleton(4), singleton(4)
        top, _, _ = rearrange_roots(u1, u2, u3)
        assert top is u2

    def test_child_order_follows_arguments(self):
        # Minimum in the middle: children are (r1, r3); at the end: (r1, r2).
        r1, r2, r3 = singleton(5), singleton(1), singleton(9)
        top, _, _ = rearrange_roots(r1, r2, r3)
        assert (top.left, top.right) == (r1, r3)
        u1, u2, u3 = singleton(5), singleton(9), singleton(1)
        top, _, _ = rearrange_roots(u1, u2, u3)
        assert (top.left, top.right) == (u1, u2)

    def test_exactly_two_comparisons(self, rng):
        for h in (0, 1, 2):
            trees = [counted_heap(rng.sample(range(999), perfect_size(h)),
                                  rng) for _ in range(3)]
            rearrange_roots(*roots(trees))
            assert CountedKey.calls == 2

    def test_touches_only_the_three_roots(self, rng):
        trees = [build_perfect_heap(rng.sample(range(10_000), 15), rng)
                 for _ in range(3)]
        before = {}
        for t in trees:
            before.update(link_snapshot(t))
        allowed = {id(root) for root in roots(trees)}
        big, leftovers = carried(rearrange_roots(*roots(trees)), 3)
        allowed |= {id(t.root) for t in leftovers}
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
        rearrange_roots(*roots(trees))
        for handle, key in handles.items():
            assert handle.alive and handle.node.key == key


class TestSplitRoot:
    """detach_root: a root leaves its tree, its two subtrees stay."""

    def test_height1(self, rng):
        t = build_perfect_heap([1, 2, 3], rng)
        root = t.root
        root_handle = root.handle
        leftovers = [PerfectTree(l, 0) for l in detach_root(root)]
        assert root.key == 1
        assert not root_handle.alive and root.handle is None
        assert root.left is None and root.right is None
        assert sorted(l.root.key for l in leftovers) == [2, 3]
        for l in leftovers:
            assert l.root.parent is None
            assert validate_tree(l) == []

    def test_singleton(self):
        node = singleton(9, "p")
        handle = node.handle
        assert detach_root(node) == (None, None)
        assert (node.key, node.payload) == (9, "p")
        assert not handle.alive

    def test_seven_nodes(self, rng):
        keys = rng.sample(range(100), 7)
        t = build_perfect_heap(keys, rng)
        leftovers = [PerfectTree(l, 1) for l in detach_root(t.root)]
        assert t.root.key == min(keys)
        assert [l.size for l in leftovers] == [3, 3]
        out = sorted(k for l in leftovers for k in tree_keys(l))
        assert out == sorted(k for k in keys if k != min(keys))
        for l in leftovers:
            assert validate_tree(l) == []

    def test_no_comparisons(self, rng):
        t = counted_heap(rng.sample(range(100), 15), rng)
        detach_root(t.root)
        assert CountedKey.calls == 0


class TestSiftUp:

    def test_root_is_noop(self):
        root = singleton(5)
        counter = ComparisonCounter()
        sift_up(root, counter, 3)
        assert counter.count == 0
        assert root.key == 3

    def test_one_forced_swap(self):
        # Hand-built heap: root 5 above children 6 and 7; 6 is lowered to 2.
        five = singleton(5)
        six = singleton(6)
        seven = singleton(7)
        five.left, five.right = six, seven
        six.parent = seven.parent = five
        h6 = six.handle
        counter = ComparisonCounter()
        assert sift_up(six, counter, 2) is five
        assert counter.count == 1
        assert five.key == 2 and six.key == 5
        assert h6.node is five and h6.key == 2

    def test_decreased_leaf_reaches_root(self, rng):
        t = build_perfect_heap(rng.sample(range(10, 500), 15), rng)
        leaf = next(n for n in t.nodes() if n.left is None)
        handle = leaf.handle
        sift_up(leaf, ComparisonCounter(), -1)  # below every key in the tree
        assert t.root.key == -1
        assert handle.node is t.root
        assert validate_tree(t) == []

    @pytest.mark.parametrize("raises_at", [1, 2, 3, 4])
    def test_raising_less_moves_nothing(self, rng, raises_at):
        """A leaf of a height-4 tree is lowered to a key below every key,
        whose < raises at comparison raises_at of the 4 its sift would
        make.  Links, keys (the leaf's included) and handles are as they
        were, with nothing restored by the test, and the raising
        comparison is counted too."""
        class Raises(CountedKey):
            """Below every key, until its raises_at-th < raises."""

            __slots__ = ()

            def __lt__(self, other):
                CountedKey.calls += 1
                if CountedKey.calls == raises_at:
                    raise ValueError("planted")
                return True

        t = build_perfect_heap(list(range(10, 41)), rng)
        nodes = list(t.nodes())
        before = link_snapshot(t)
        keys = [n.key for n in nodes]
        handles = [n.handle for n in nodes]
        leaf = next(n for n in nodes if n.left is None)
        CountedKey.calls = 0
        counter = ComparisonCounter()
        with pytest.raises(ValueError):
            sift_up(leaf, counter, Raises(-1))
        assert CountedKey.calls == counter.count == raises_at
        assert link_snapshot(t) == before
        assert [n.key for n in nodes] == keys
        assert all(n.handle is h and h.node is n
                   for n, h in zip(nodes, handles))
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
        big, leftovers = carried(rearrange_roots(*roots(trees)), 2)
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


def _count_message(t, count):
    return (f"node count {count}, expected {perfect_size(t.height)} "
            f"for height {t.height}")


def _root_has_parent(t, node, depth):
    node.parent = Node(-1)
    return [f"root {node.key!r} has a parent"]


def _below(t, depth):
    """Size of a subtree rooted one level below depth."""
    return perfect_size(t.height - 1 - depth)


def _one_child(t, node, depth):
    node.right = None
    return [f"node {node.key!r} has exactly one child",
            _count_message(t, perfect_size(t.height) - _below(t, depth))]


def _no_handle(t, node, depth):
    node.handle = None
    return [f"node {node.key!r} has no handle"]


def _handle_elsewhere(t, node, depth):
    node.handle = Handle(Node(-1))
    return [f"handle of node {node.key!r} points elsewhere"]


def _leaf_at_wrong_depth(t, node, depth):
    node.left = node.right = None
    return [f"leaf {node.key!r} at depth {depth}, expected {t.height}",
            _count_message(t, perfect_size(t.height) - 2 * _below(t, depth))]


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
    # A perfect tree whose view claims one height less: only the count and
    # the depth of the leaves can tell.
    size = perfect_size(t.height)
    t.height -= 1
    return [f"leaf {leaf.key!r} at depth {t.height + 1}, expected {t.height}"
            for leaf in t.nodes() if leaf.left is None] + [
        _count_message(t, size)]


def _sibling_alias(t, node, depth):
    # Both links lead to the left subtree; it links back to node, so only
    # the identity of the two children tells.  The right subtree is lost.
    node.right = node.left
    return [f"node {node.key!r} has child {node.left.key!r} on both sides",
            _count_message(t, perfect_size(t.height) - _below(t, depth))]


def _hang_leaves(t, node, sides):
    """Hang a fresh leaf under node on each of these sides, keyed from 100."""
    for key, side in enumerate(sides, 100):
        child = Node(key)
        Handle(child)
        child.parent = node
        setattr(node, side, child)
    return [f"leaf {key} at depth {t.height + 1}, expected {t.height}"
            for key in range(100, 100 + len(sides))] + [
        _count_message(t, perfect_size(t.height) + len(sides))]


def _two_children_at_leaf_depth(t, node, depth):
    return _hang_leaves(t, node, ("left", "right"))


def _left_child_at_leaf_depth(t, node, depth):
    return [f"node {node.key!r} has exactly one child",
            *_hang_leaves(t, node, ("left",))]


def _right_child_at_leaf_depth(t, node, depth):
    return [f"node {node.key!r} has exactly one child",
            *_hang_leaves(t, node, ("right",))]


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


def _plants_at(height):
    """Every plant with every depth it applies to in a height-h heap."""
    return [(plant, depth) for plant, depths in [
        (_root_has_parent, [0]),
        (_no_handle, range(height + 1)),
        (_handle_elsewhere, range(height + 1)),
        (_left_child_at_leaf_depth, [height]),
        (_right_child_at_leaf_depth, [height]),
        (_two_children_at_leaf_depth, [height]),
        (_one_child, range(height)),
        (_leaf_at_wrong_depth, range(height)),
        (_parent_above_children, range(height)),
        (_sibling_alias, range(height)),
        (_node_count, [0] if height else []),
        (_child_does_not_link_back, range(1, height + 1)),
        (_child_below_parent, range(1, height + 1)),
    ] for depth in depths]


# The corruptions at and next to each level boundary, at heights 0-4.
AT_EVERY_HEIGHT = [(plant, height, depth) for height in range(5)
                   for plant, depth in _plants_at(height)]


@pytest.mark.parametrize("plant, height, depth", AT_EVERY_HEIGHT)
def test_every_diagnostic_is_reported_at_every_height(plant, height, depth,
                                                      rng):
    """The same, on heaps of heights 0-4, with messages built from the
    height."""
    t = build_perfect_heap(list(range(perfect_size(height))), rng)
    assert validate_tree(t) == []
    expected = plant(t, _at_depth(t, depth), depth)
    assert sorted(validate_tree(t)) == sorted(expected)


@pytest.mark.parametrize("height", [1, 2, 3, 4])
def test_a_link_back_to_the_root_is_reported_once(height, rng):
    """The last internal node of the left spine gets the root as its left
    child, closing a cycle (a self-loop at height 1).  The walk reports
    that link, does not follow it, and counts the leaf it replaced as
    lost.  The keys' < fails the test if the walk does not end."""
    class Bounded(CountedKey):
        __slots__ = ()

        def __lt__(self, other):
            assert CountedKey.calls < 4 * perfect_size(height), \
                "the walk goes on"
            return super().__lt__(other)

    t = build_perfect_heap(list(range(perfect_size(height))), rng)
    for n in t.nodes():
        n.key = Bounded(n.key)
    CountedKey.calls = 0
    node = t.root
    for _ in range(height - 1):
        node = node.left
    node.left = t.root

    expected = [f"child 0 does not link back to {node.key!r}",
                _count_message(t, perfect_size(height) - 1)]
    if node is not t.root:
        expected.append(f"heap order broken: child 0 under parent "
                        f"{node.key!r}")
    assert sorted(validate_tree(t)) == sorted(expected)


@given(height=st.integers(0, 5), seed=st.integers(0, 2 ** 20),
       picks=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 31)),
                      max_size=2))
def test_fast_pass_agrees_with_the_reporting_walk(height, seed, picks):
    """On perfect heaps of heights 0-5 with up to two planted corruptions,
    each at a node reached by the bits of a path, the fast pass finds the
    tree sound exactly when the reporting walk finds nothing, and
    validate_tree gives the walk's messages."""
    rng = random.Random(seed)
    t = build_perfect_heap(list(range(perfect_size(height))), rng)
    for pick, path in picks:
        plants = _plants_at(t.height)
        plant, depth = plants[pick % len(plants)]
        node = t.root
        try:
            for step in range(depth):
                node = node.right if path >> step & 1 else node.left
            plant(t, node, depth)
        except AttributeError:
            pass  # an earlier corruption cut the path or the plant's message
    try:
        sound = tree_module._is_sound(t.root, t.height)
    except AttributeError:
        sound = False
    report = tree_module._report_tree(t.root, t.height)
    assert sound == (report == [])
    assert validate_tree(t) == report


def test_a_sound_tree_is_walked_once(monkeypatch, rng):
    """A sound tree never reaches the reporting walk, and its fast pass
    compares each edge once."""
    def reported(*args):
        raise AssertionError("reporting walk on a sound tree")

    monkeypatch.setattr(tree_module, "_report_node", reported)
    for height in range(6):
        t = counted_heap(rng.sample(range(1000), perfect_size(height)), rng)
        assert validate_tree(t) == []
        assert CountedKey.calls == perfect_size(height) - 1
    q = Queue()
    for key in rng.sample(range(10 ** 6), 600):
        q.insert(key)
    for _ in range(50):
        q.delete_min()
    assert q.forest.tree_count() > 1 and q.validate() == []
    t.root.key = CountedKey(10 ** 6)
    with pytest.raises(AssertionError, match="reporting walk"):
        validate_tree(t)


def test_randomized_storm_conserves_everything(rng):
    """10_000 rearrange_roots/detach_root applications on (root, height)
    pairs keep every invariant intact."""
    by_height = {0: [singleton(rng.randrange(1000)) for _ in range(60)]}
    alive = {root.handle: root.key for root in by_height[0]}
    removed = []
    all_keys = sorted(alive.values())
    applications = 0
    while applications < 10_000:
        heights = [h for h, rs in by_height.items() if len(rs) >= 3]
        if heights and rng.random() < 0.7:
            h = rng.choice(heights)
            rs = by_height[h]
            picks = [rs.pop(rng.randrange(len(rs))) for _ in range(3)]
            big, leftovers = carried(rearrange_roots(*picks), h)
            assert validate_tree(big) == []
            by_height.setdefault(h + 1, []).append(big.root)
            for l in leftovers:
                assert validate_tree(l) == []
                by_height[h - 1].append(l.root)
        else:
            candidates = [(h, i) for h, rs in by_height.items()
                          for i in range(len(rs))]
            if not candidates:
                break
            h, i = candidates[rng.randrange(len(candidates))]
            root = by_height[h].pop(i)
            handle = root.handle
            left, right = detach_root(root)
            assert not handle.alive
            del alive[handle]
            removed.append(root.key)
            if left is not None:
                by_height[h - 1] += [left, right]
        applications += 1
        if sum(len(rs) for rs in by_height.values()) < 3:
            fresh = [singleton(rng.randrange(1000)) for _ in range(60)]
            by_height[0].extend(fresh)
            for root in fresh:
                alive[root.handle] = root.key
                all_keys.append(root.key)
            all_keys.sort()
    for handle, key in alive.items():
        assert handle.alive and handle.node.key == key
    in_trees = [n.key for h, rs in by_height.items() for root in rs
                for n in PerfectTree(root, h).nodes()]
    assert sorted(in_trees + removed) == all_keys


@given(h=st.integers(0, 2), seed=st.integers(0, 2 ** 20),
       base=st.lists(st.integers(-1000, 1000), min_size=21, max_size=21))
def test_rearrange_properties(h, seed, base):
    rng = random.Random(seed)
    size = perfect_size(h)
    trees = [counted_heap(base[i * size:(i + 1) * size], rng)
             for i in range(3)]
    in_keys = sorted(k for t in trees for k in tree_keys(t))
    CountedKey.calls = 0
    big, leftovers = carried(rearrange_roots(*roots(trees)), h)
    assert CountedKey.calls == 2
    assert big.height == h + 1
    if h == 0:
        assert leftovers == ()
    else:
        assert [t.height for t in leftovers] == [h - 1, h - 1]
    out_keys = sorted(k for t in (big, *leftovers) for k in tree_keys(t))
    assert out_keys == in_keys
    for t in (big, *leftovers):
        assert validate_tree(t) == []
