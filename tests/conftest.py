"""Shared test helpers: brute-force tree construction, key extraction, a
key class that counts its comparisons and a check on per-op comparisons.

build_perfect_heap wires nodes together by hand (min key at the root, the
rest split randomly between the two subtrees), so it is an independent way
to obtain valid perfect heaps without going through the operations under
test.
"""

import random

import pytest

from triheap.tree import Node, PerfectTree


class CountedKey:
    """A key that orders by its value and counts every call of its <.

    The count is the class attribute calls, shared by all instances (set it
    to 0 before counting); it is the ground truth a comparison counter is
    checked against.  Equality, hashing and repr are the value's, so keys
    compare and print as their values do.  Subclasses that override
    __lt__ get keys whose < misbehaves on purpose.
    """

    __slots__ = ("value",)
    calls = 0

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        CountedKey.calls += 1
        return self.value < other.value

    def __eq__(self, other):
        return isinstance(other, CountedKey) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return repr(self.value)


def perfect_size(height):
    return (1 << (height + 1)) - 1


def singleton(key, payload=None):
    """A height-0 root with a fresh live handle, as Queue.insert makes one."""
    return Node(key, payload)


def build_perfect_heap(keys, rng=None):
    """Brute-force a random-shaped perfect heap holding exactly these keys."""
    rng = rng or random.Random(0)
    n = len(keys)
    assert n >= 1 and (n + 1) & n == 0, f"{n} is not 2**k - 1"

    def build(pool):
        pool = sorted(pool)
        node = singleton(pool[0])
        rest = pool[1:]
        if rest:
            rng.shuffle(rest)
            half = len(rest) // 2
            node.left = build(rest[:half])
            node.right = build(rest[half:])
            node.left.parent = node
            node.right.parent = node
        return node

    root = build(list(keys))
    return PerfectTree(root, (n + 1).bit_length() - 2)


def tree_keys(tree):
    """Multiset of keys in a tree, sorted."""
    return sorted(node.key for node in tree.nodes())


def link_snapshot(tree):
    """Map node id -> (parent, left, right, key, handle) for change tracking."""
    return {id(node): (node.parent, node.left, node.right, node.key,
                       node.handle)
            for node in tree.nodes()}


def assert_comparisons_recorded(q):
    """q's records (q must keep them) share out its comparator's count
    exactly: no comparison was charged outside a public op."""
    assert sum(r.comparisons for r in q.ledger.records) == \
        q.comparator.count


@pytest.fixture
def rng():
    return random.Random(12345)
