"""Perfect heap-ordered binary trees and the triple-tree rearrangement step.

Everything here is link-based: a tree is its root node plus a cached height,
and all restructuring moves nodes (or node contents) around without copying
elements.  The one nontrivial operation is rearrange(), which combines three
equal-height trees into one taller tree and two shorter leftovers in constant
time and exactly two key comparisons.
"""

from __future__ import annotations

import operator

from .errors import ContractViolation


class Node:
    """One stored element, linked to parent/children and its owning handle."""

    __slots__ = ("key", "payload", "parent", "left", "right", "handle")

    def __init__(self, key, payload=None):
        self.key = key
        self.payload = payload
        self.parent = None
        self.left = None
        self.right = None
        self.handle = None

    def __repr__(self):
        return f"Node({self.key!r})"


class Handle:
    """Stable external reference to one element.

    The handle keeps pointing at its element across rearrangements and
    sift-ups (content swaps repoint it).  Once the element is removed the
    handle is dead for good; dead handles are never reused.
    """

    __slots__ = ("node",)

    def __init__(self, node):
        self.node = node
        node.handle = self

    @property
    def alive(self):
        return self.node is not None

    @property
    def key(self):
        """Current key of the element, or None for a dead handle."""
        return self.node.key if self.node is not None else None

    def __repr__(self):
        if self.node is None:
            return "Handle(dead)"
        return f"Handle(key={self.node.key!r})"


class PerfectTree:
    """A root node plus its height h; holds exactly 2**(h+1) - 1 nodes."""

    __slots__ = ("root", "height")

    def __init__(self, root, height):
        self.root = root
        self.height = height

    @property
    def size(self):
        return (1 << (self.height + 1)) - 1

    def nodes(self):
        """Yield every node, preorder."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if node.left is not None:
                stack.append(node.right)
                stack.append(node.left)

    def keys(self):
        return [node.key for node in self.nodes()]

    def __repr__(self):
        return f"PerfectTree(height={self.height}, root={self.root.key!r})"


class CountingComparator:
    """A total-order "less than" wrapped in a comparison counter.

    All algorithmic key comparisons go through one of these so tests and the
    ledger can account for work in the comparison model.
    """

    __slots__ = ("raw_less", "count")

    def __init__(self, less=operator.lt):
        self.raw_less = less
        self.count = 0

    def __call__(self, a, b):
        self.count += 1
        return self.raw_less(a, b)


def make_singleton(key, payload=None):
    """Return a height-0 tree holding one element with a fresh live handle."""
    node = Node(key, payload)
    Handle(node)
    return PerfectTree(node, 0)


def rearrange_roots(r1, r2, r3, less):
    """Node-level core of the rearrangement step.

    The smallest of the three root nodes (two less() calls; ties keep the
    earliest argument) adopts the other two roots as children, in argument
    order, and its own former children are released.  Returns (top,
    old_left, old_right); the old children are None for singleton inputs.
    """
    top = r1
    if less(r2.key, top.key):
        top = r2
    if less(r3.key, top.key):
        top = r3
    if top is r1:
        first, second = r2, r3
    elif top is r2:
        first, second = r1, r3
    else:
        first, second = r1, r2

    old_left = top.left
    old_right = top.right
    top.left = first
    top.right = second
    top.parent = None
    first.parent = top
    second.parent = top
    if old_left is not None:
        old_left.parent = None
        old_right.parent = None
    return top, old_left, old_right


def rearrange(t1, t2, t3, less):
    """Combine three equal-height trees into one bigger tree plus leftovers.

    The smallest of the three roots (two comparisons; ties keep the earliest
    argument) is detached from its tree and becomes the root of a new tree of
    height h+1 whose children are the other two input roots, in argument
    order.  The detached root's former subtrees come back as two height h-1
    leftover trees (none when h == 0).  Only the three root nodes' links and
    the new children's parent fields are touched; no element is copied, so
    every handle stays valid.

    Returns (big, leftovers) where leftovers is a tuple of zero or two trees.
    """
    h = t1.height
    if t2.height != h or t3.height != h:
        raise ContractViolation(
            f"rearrange needs three trees of equal height, got "
            f"{t1.height}/{t2.height}/{t3.height}")
    if (t1 is t2 or t1 is t3 or t2 is t3 or t1.root is t2.root
            or t1.root is t3.root or t2.root is t3.root):
        raise ContractViolation("rearrange inputs must be three distinct trees")

    top, old_left, old_right = rearrange_roots(t1.root, t2.root, t3.root, less)
    big = PerfectTree(top, h + 1)
    if old_left is None:
        return big, ()
    return big, (PerfectTree(old_left, h - 1), PerfectTree(old_right, h - 1))


def detach_root(root):
    """Node-level root removal: kills the root's handle, frees its children.

    Returns (left, right), both None for a singleton.  No comparisons; the
    freed subtrees are heap-ordered as they stand.
    """
    handle = root.handle
    if handle is not None:
        handle.node = None
        root.handle = None
    left = root.left
    right = root.right
    if left is not None:
        left.parent = None
        right.parent = None
        root.left = None
        root.right = None
    return left, right


def split_root(t):
    """Detach the root of t, killing its handle.

    Returns (key, payload, leftovers): the leftovers are the root's two
    subtrees of height h-1 (an empty tuple for a singleton).  They are
    already heap-ordered, so no comparison is ever made here.
    """
    top = t.root
    key = top.key
    payload = top.payload
    left, right = detach_root(top)
    if left is None:
        return key, payload, ()
    h = t.height - 1
    return key, payload, (PerfectTree(left, h), PerfectTree(right, h))


def _swap_contents(a, b):
    """Exchange the (key, payload, handle) triples of two nodes."""
    a.key, b.key = b.key, a.key
    a.payload, b.payload = b.payload, a.payload
    a.handle, b.handle = b.handle, a.handle
    if a.handle is not None:
        a.handle.node = a
    if b.handle is not None:
        b.handle.node = b


def sift_up(node, less):
    """Bubble a possibly-too-small element toward the root.

    Contents (never links) are swapped, so the tree shape stays trivially
    perfect and the handles follow their elements.  At most h comparisons;
    stops at the first ancestor that is not larger.
    """
    parent = node.parent
    while parent is not None and less(node.key, parent.key):
        _swap_contents(node, parent)
        node = parent
        parent = node.parent
    return node


def sift_to_root(node):
    """Hoist node's element to its tree's root unconditionally, 0 comparisons.

    Used by delete(): the element is treated as smaller than everything, so
    no comparison is needed, and heap order among the remaining elements is
    untouched.  Returns the root node now holding the element.
    """
    parent = node.parent
    while parent is not None:
        _swap_contents(node, parent)
        node = parent
        parent = node.parent
    return node


def validate_tree(t, less=operator.lt):
    """Structural diagnostics for one tree; returns a list of violations.

    Checks perfectness (both-or-no children, all leaves at depth h, node
    count 2**(h+1) - 1), heap order on every edge, parent/child link
    symmetry, and handle back-reference consistency.  Reports and never
    raises; linear time, meant for tests and debug auditing only.

    The walk goes level by level.  Each node gets one fused test: above
    depth h, two distinct children, its handle linking back, both children
    linking back and neither child less than it; at depth h, no children
    and its handle linking back.  Messages are built only for a node that
    fails its test, and its children still join the next level (an aliased
    child once), so a malformed tree is reported in full, in level order.
    With the link checks, distinct siblings mean no node is reached twice.
    """
    problems = []
    root = t.root
    if root is None:
        return ["tree has no root"]
    if root.parent is not None:
        problems.append(f"root {root.key!r} has a parent")
    height = t.height
    count = 0
    depth = 0
    level = [root]
    while level:
        count += len(level)
        below = []
        append = below.append
        if depth < height:
            for node in level:
                left = node.left
                right = node.right
                handle = node.handle
                if (left is not None and right is not None
                        and left is not right
                        and handle is not None and handle.node is node
                        and left.parent is node and right.parent is node
                        and not less(left.key, node.key)
                        and not less(right.key, node.key)):
                    append(left)
                    append(right)
                else:
                    _report_node(node, depth, height, less, problems, append)
        else:
            for node in level:
                handle = node.handle
                if not (depth == height and node.left is None
                        and node.right is None and handle is not None
                        and handle.node is node):
                    _report_node(node, depth, height, less, problems, append)
        level = below
        depth += 1
    expected = (1 << (height + 1)) - 1
    if count != expected:
        problems.append(
            f"node count {count}, expected {expected} for height {height}")
    return problems


def _report_node(node, depth, height, less, problems, append):
    """Messages for one node that failed validate_tree's fused test.

    Also hands each present child to append (an aliased child once), so
    the walk goes on below it.
    """
    left = node.left
    right = node.right
    if (left is None) != (right is None):
        problems.append(f"node {node.key!r} has exactly one child")
    elif left is right and left is not None:
        problems.append(
            f"node {node.key!r} has child {left.key!r} on both sides")
        right = None
    if node.handle is None:
        problems.append(f"node {node.key!r} has no handle")
    elif node.handle.node is not node:
        problems.append(f"handle of node {node.key!r} points elsewhere")
    if left is None and right is None and depth != height:
        problems.append(
            f"leaf {node.key!r} at depth {depth}, expected {height}")
    for child in (left, right):
        if child is None:
            continue
        if child.parent is not node:
            problems.append(
                f"child {child.key!r} does not link back to {node.key!r}")
        if less(child.key, node.key):
            problems.append(
                f"heap order broken: child {child.key!r} under parent "
                f"{node.key!r}")
        append(child)
