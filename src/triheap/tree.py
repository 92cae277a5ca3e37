"""Perfect heap-ordered binary trees and the triple-tree rearrangement step.

Everything here is link-based: a tree is a root node whose height is kept
by whoever files it (the forest keeps it as a bucket index), and all
restructuring moves nodes (or node contents) around without copying
elements.  Keys are ordered by their own <, as heapq orders them.  The
paper's one nontrivial operation is the rearrangement step, written out
here as rearrange_roots(): the smallest of three equal-height roots adopts
the other two and releases its former children, giving one taller tree
and two shorter leftovers, in constant time and exactly two key
comparisons.  Forest.fix does the same step inline, with no call per
carry; rearrange_roots() is the reference its tests compare it against.
detach_root() removes a root and frees its two subtrees, heap-ordered as
they stand, with no comparison; Forest.remove_root does it inline.
PerfectTree pairs a root with its height as a read-only view, for
iteration and validate_tree().
"""

from __future__ import annotations


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
    """Read-only view: a root node plus its height h, 2**(h+1) - 1 nodes."""

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


class ComparisonCounter:
    """The count of key comparisons a queue made, in the comparison model.

    It compares nothing itself: each function that compares keys takes a
    counter and adds what it compared, in bulk after the work (a carry's 2,
    a scan's trees - 1) or 1 before each < (a sift step, decrease_key's
    increase check).
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


def rearrange_roots(r1, r2, r3):
    """The paper's rearrangement step, on three equal-height root nodes.

    The smallest of the three root nodes (two < comparisons, which the
    caller counts; ties keep the earliest argument) adopts the other two
    roots as children, in argument order, and its own former children are
    released.  Only the links of the three roots and of the released
    children change; no element is copied, so every handle stays valid.
    Returns (top, old_left, old_right); the old children are None for
    singleton inputs.

    Forest.fix does this step inline, on a bucket's first three roots in
    bucket order, so this function is the reference that fix is tested
    against.  forest keeps importing the name because the traced benchmark
    run wraps it there.
    """
    top = r1
    if r2.key < top.key:
        top = r2
    if r3.key < top.key:
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


def detach_root(root):
    """Root removal: kills the root's handle, frees its children.

    Returns (left, right), both None for a singleton.  No comparisons; the
    freed subtrees are heap-ordered as they stand.  The reference for
    Forest.remove_root, which does this inline.
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


def _swap_contents(a, b):
    """Exchange the (key, payload, handle) triples of two nodes."""
    a.key, b.key = b.key, a.key
    a.payload, b.payload = b.payload, a.payload
    a.handle, b.handle = b.handle, a.handle
    if a.handle is not None:
        a.handle.node = a
    if b.handle is not None:
        b.handle.node = b


def sift_up(node, counter, key):
    """Lower node's key to key and restore heap order upward; returns the
    node now holding the element.

    key is compared with node's ancestors, bottom up, each comparison
    charged to counter before its <, up to the first that is not larger:
    at most h comparisons.  Only then does anything move: node takes key,
    and contents (never links) are swapped up to the highest ancestor key
    beat, so the tree shape stays trivially perfect and the handles follow
    their elements.  A < that raises has moved nothing.
    """
    top = node
    parent = node.parent
    while parent is not None:
        counter.count += 1
        if not key < parent.key:
            break
        top = parent
        parent = parent.parent
    node.key = key
    while node is not top:
        parent = node.parent
        _swap_contents(node, parent)
        node = parent
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


def validate_tree(t):
    """Structural diagnostics for one tree; returns a list of violations.

    Checks perfectness (both-or-no children, all leaves at depth h, node
    count 2**(h+1) - 1), heap order on every edge (no child's key < its
    parent's), parent/child link symmetry, and handle back-reference
    consistency.  Its comparisons are counted nowhere.  Reports, and raises
    only what a key's < raises; linear time, meant for tests and debug
    auditing only.

    A sound tree is walked once, by the fast pass (_is_sound).  Only a
    tree that fails it is walked again (_report_tree) for its messages,
    level by level, every node reached for the first time joining the next
    level, so a malformed tree is reported in full and a link back to a
    node already reached (an aliased child, a cycle) is reported but not
    followed.
    """
    root = t.root
    if root is None:
        return ["tree has no root"]
    try:
        if _is_sound(root, t.height):
            return []
    except AttributeError:  # if a key's < raised it, it is raised again below
        pass
    return _report_tree(root, t.height)


def _is_sound(root, height):
    """validate_tree's fast pass: True when the tree has no fault.

    It returns False at the first failure.  The root has no parent and its
    handle links back; each node above depth h checks both its children
    (present, distinct, linking back to it, handles linking back, neither
    less than it), and at depth h - 1 also that they have no children.
    Leaves are not visited on their own, and the node count is implied:
    distinct siblings that link back to their one parent are reached once.
    A None link or handle raises AttributeError where it is first read.
    """
    if root.parent is not None or root.handle.node is not root:
        return False
    if not height:
        return root.left is None and root.right is None
    level = [root]
    while True:
        height -= 1
        below = []
        for node in level:
            left = node.left
            right = node.right
            if (left is right or left.parent is not node
                    or right.parent is not node
                    or left.handle.node is not left
                    or right.handle.node is not right
                    or left.key < node.key
                    or right.key < node.key):
                return False
            if height:
                below.append(left)
                below.append(right)
            elif not (left.left is left.right is right.left is right.right
                      is None):
                return False
        if not height:
            return True
        level = below


def _report_tree(root, height):
    """validate_tree's reporting walk, for a tree that failed the fast
    pass: _report_node on every node it reaches, once, level by level."""
    problems = []
    if root.parent is not None:
        problems.append(f"root {root.key!r} has a parent")
    count = 0
    depth = 0
    seen = {root}
    level = [root]
    while level:
        count += len(level)
        below = []
        for node in level:
            _report_node(node, depth, height, problems, seen, below)
        level = below
        depth += 1
    expected = (1 << (height + 1)) - 1
    if count != expected:
        problems.append(
            f"node count {count}, expected {expected} for height {height}")
    return problems


def _report_node(node, depth, height, problems, seen, below):
    """validate_tree's messages for one node of a tree that failed the
    fast pass; none for a node without a fault of its own.

    Also adds each present child not yet in seen to seen and below, so the
    walk goes on below it.
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
        if child.key < node.key:
            problems.append(
                f"heap order broken: child {child.key!r} under parent "
                f"{node.key!r}")
        if child not in seen:
            seen.add(child)
            below.append(child)
