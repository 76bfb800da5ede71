"""B-Tree, B*Tree and B+Tree indexes, 9-wide as evaluated in the paper.

All three variants share one node shape that matches Algorithm 1 and the
TTA Query-Key hardware path: an inner node holds up to ``order`` children
and one *fence key* per child (the maximum key in that child's subtree),
so a query is routed to child ``i`` when ``query <= keys[i]`` with keys
sorted ascending.  Leaves hold the actual keys and values.

The variants differ exactly where the paper says they differ:

* **B-Tree** — fence keys are real data keys, so an inner-node equality
  match terminates the search early (``Found`` in Algorithm 1).  Queries
  therefore exit at different depths → control-flow divergence on SIMT.
* **B+Tree** — keys live only in leaves; inner keys are separators, so
  every search runs to leaf depth → uniform depth, less divergence.
* **B*Tree** — like B-Tree but nodes are kept at a >= 2/3 fill factor via
  sibling redistribution before splitting, giving a shallower/denser tree.

Both incremental ``insert`` (with splits/redistribution, used by the
property tests to check balance invariants) and ``bulk_load`` (used by
the benchmarks to build large trees quickly with a controlled fill
factor) are provided.
"""

import copy
import random
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

DEFAULT_ORDER = 9  # 9-wide: fully utilizes one TTA Query-Key instruction.


class BTreeNode:
    """One node: ``keys[i]`` is the routing key for ``children[i]``.

    For leaves ``children`` is empty and ``values[i]`` pairs with
    ``keys[i]``.  ``address`` is assigned when the tree is serialized into
    a :class:`~repro.trees.layout.TreeImage`.
    """

    __slots__ = ("keys", "children", "values", "address", "next")

    def __init__(self, keys=None, children=None, values=None):
        self.keys: List[int] = keys if keys is not None else []
        self.children: List["BTreeNode"] = children if children is not None else []
        self.values: List[Any] = values if values is not None else []
        self.address: int = -1
        #: leaf chaining for range scans (B+Tree style sequential access)
        self.next: "BTreeNode" = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "inner"
        return f"BTreeNode({kind}, keys={self.keys[:4]}{'...' if len(self.keys) > 4 else ''})"


class SearchTrace(NamedTuple):
    """Functional result plus the node-visit trace the timing models consume."""

    found: bool
    value: Any
    path: Tuple[BTreeNode, ...]  # nodes visited root -> exit, in order
    found_at_inner: bool


class _BTreeBase:
    """Shared structure and algorithms for the three variants."""

    #: Whether an equality match at an inner node terminates the search.
    inner_match_terminates = True
    #: Minimum fill fraction enforced on insert-driven splits.
    min_fill = 0.5

    def __init__(self, order: int = DEFAULT_ORDER):
        if order < 3:
            raise ConfigurationError("B-Tree order must be >= 3")
        self.order = order
        self.root = BTreeNode()
        self._count = 0
        # Search traces are pure while the tree is unchanged; runners
        # replay the same query stream many times.  Mutations clear it.
        self._trace_cache: dict = {}

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def search(self, query: int) -> SearchTrace:
        """Route ``query`` from the root, recording every node visited.

        This is the single functional traversal shared by the CUDA-baseline
        kernel model, the TTA model, and the tests; the timing models
        attach costs to the returned path.
        """
        trace = self._trace_cache.get(query)
        if trace is None:
            trace = self._trace_cache[query] = self._search(query)
        return trace

    def _search(self, query: int) -> SearchTrace:
        path: List[BTreeNode] = []
        node = self.root
        while True:
            path.append(node)
            if node.is_leaf:
                for i, key in enumerate(node.keys):
                    if key == query:
                        return SearchTrace(True, node.values[i], tuple(path), False)
                    if key > query:
                        break
                return SearchTrace(False, None, tuple(path), False)
            # Inner node: Algorithm 1 — equality then first key >= query.
            next_child: Optional[BTreeNode] = None
            for i, key in enumerate(node.keys):
                if key == query and self.inner_match_terminates:
                    return SearchTrace(True, query, tuple(path), True)
                if query <= key:
                    next_child = node.children[i]
                    break
            if next_child is None:
                # Query exceeds the subtree's max fence: not present.
                return SearchTrace(False, None, tuple(path), False)
            node = next_child

    def keys_in_order(self) -> List[int]:
        out: List[int] = []
        self._collect(self.root, out)
        return out

    def _collect(self, node: BTreeNode, out: List[int]) -> None:
        if node.is_leaf:
            out.extend(node.keys)
        else:
            for child in node.children:
                self._collect(child, out)

    def height(self) -> int:
        h, node = 1, self.root
        while not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    def nodes(self) -> List[BTreeNode]:
        """All nodes in BFS order (the serialization order)."""
        out, frontier = [], [self.root]
        while frontier:
            node = frontier.pop(0)
            out.append(node)
            frontier.extend(node.children)
        return out

    def fork(self, memo: dict) -> "_BTreeBase":
        """A twin that writes cannot reach through: every node and its
        key, value and child lists are copied, keys and values are
        shared.  ``memo`` gains ``id(node) -> twin`` for each node, and
        the search-trace cache is kept, its paths on the twins."""
        # Walk the leaf chain as well as the children, iteratively: the
        # chain is as long as the leaf count.
        originals, frontier = [], [self.root]
        while frontier:
            node = frontier.pop()
            if id(node) in memo:
                continue
            twin = memo[id(node)] = BTreeNode(list(node.keys),
                                              values=list(node.values))
            twin.address = node.address
            originals.append(node)
            frontier.extend(node.children)
            if node.next is not None:
                frontier.append(node.next)
        for node in originals:
            twin = memo[id(node)]
            twin.children = [memo[id(child)] for child in node.children]
            if node.next is not None:
                twin.next = memo[id(node.next)]
        tree = copy.copy(self)
        tree.root = memo[id(self.root)]
        twin_of = memo.__getitem__
        tree._trace_cache = {
            query: SearchTrace(t.found, t.value,
                               tuple([twin_of(id(n)) for n in t.path]),
                               t.found_at_inner)
            for query, t in self._trace_cache.items()}
        return tree

    def __deepcopy__(self, memo: dict) -> "_BTreeBase":
        # The generic deep copy recurses along the leaf chain and
        # overflows the stack on any non-toy tree; a fork copies every
        # container a write can change.
        twin = memo[id(self)] = self.fork(memo)
        return twin

    # -- construction -------------------------------------------------------
    def insert(self, key: int, value: Any = None) -> None:
        """Insert ``key``; duplicates are rejected (index semantics)."""
        self._trace_cache.clear()
        leaf, path = self._descend_to_leaf(key)
        if key in leaf.keys:
            raise KeyError(f"duplicate key {key}")
        idx = self._insertion_point(leaf.keys, key)
        leaf.keys.insert(idx, key)
        leaf.values.insert(idx, value if value is not None else key)
        self._count += 1
        self._repair_upward(path + [leaf])

    def _descend_to_leaf(self, key: int) -> Tuple[BTreeNode, List[BTreeNode]]:
        path: List[BTreeNode] = []
        node = self.root
        while not node.is_leaf:
            path.append(node)
            idx = self._route_index(node.keys, key)
            node = node.children[idx]
        return node, path

    @staticmethod
    def _route_index(keys: Sequence[int], key: int) -> int:
        for i, fence in enumerate(keys):
            if key <= fence:
                return i
        return len(keys) - 1  # beyond max fence: rightmost child

    @staticmethod
    def _insertion_point(keys: Sequence[int], key: int) -> int:
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            if keys[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _repair_upward(self, path: List[BTreeNode]) -> None:
        """Fix fences bottom-up and split overfull nodes."""
        for depth in range(len(path) - 1, -1, -1):
            node = path[depth]
            parent = path[depth - 1] if depth > 0 else None
            if self._width(node) > self.order:
                self._overflow(node, parent, path, depth)
            elif parent is not None:
                self._refresh_fence(parent, node)

    @staticmethod
    def _width(node: BTreeNode) -> int:
        return len(node.keys) if node.is_leaf else len(node.children)

    def _refresh_fence(self, parent: BTreeNode, child: BTreeNode) -> None:
        idx = parent.children.index(child)
        parent.keys[idx] = self._max_key(child)

    @staticmethod
    def _max_key(node: BTreeNode) -> int:
        return node.keys[-1]

    def _overflow(self, node: BTreeNode, parent: Optional[BTreeNode],
                  path: List[BTreeNode], depth: int) -> None:
        """Handle an overfull node: B*Trees try redistribution first."""
        if parent is not None and self._try_redistribute(node, parent):
            return
        self._split(node, parent)

    def _try_redistribute(self, node: BTreeNode, parent: BTreeNode) -> bool:
        """Hook for B*Tree sibling redistribution; off by default."""
        return False

    def _split(self, node: BTreeNode, parent: Optional[BTreeNode]) -> None:
        mid = self._width(node) // 2
        if node.is_leaf:
            right = BTreeNode(keys=node.keys[mid:], values=node.values[mid:])
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            right.next = node.next
            node.next = right
        else:
            right = BTreeNode(
                keys=node.keys[mid:], children=node.children[mid:]
            )
            node.keys = node.keys[:mid]
            node.children = node.children[:mid]
        if parent is None:
            new_root = BTreeNode(
                keys=[self._max_key_deep(node), self._max_key_deep(right)],
                children=[node, right],
            )
            self.root = new_root
        else:
            idx = parent.children.index(node)
            parent.children.insert(idx + 1, right)
            parent.keys[idx] = self._max_key_deep(node)
            parent.keys.insert(idx + 1, self._max_key_deep(right))

    def _max_key_deep(self, node: BTreeNode) -> int:
        while not node.is_leaf:
            node = node.children[-1]
        return node.keys[-1]

    # -- deletion -----------------------------------------------------------
    def delete(self, key: int) -> None:
        """Remove ``key``, rebalancing by borrow-then-merge."""
        self._trace_cache.clear()
        leaf, path = self._descend_to_leaf(key)
        if key not in leaf.keys:
            raise KeyError(f"key {key} not in tree")
        i = leaf.keys.index(key)
        leaf.keys.pop(i)
        leaf.values.pop(i)
        self._count -= 1
        chain = path + [leaf]
        for depth in range(len(chain) - 1, 0, -1):
            node, parent = chain[depth], chain[depth - 1]
            if self._width(node) < 2:
                self._fix_underflow(node, parent)
            elif node in parent.children:
                self._refresh_fence(parent, node)
        # Collapse trivial roots (and empty-leaf roots stay as-is).
        while not self.root.is_leaf and len(self.root.children) == 1:
            self.root = self.root.children[0]

    def _fix_underflow(self, node: BTreeNode, parent: BTreeNode) -> None:
        idx = parent.children.index(node)
        for sibling_idx in (idx - 1, idx + 1):
            if 0 <= sibling_idx < len(parent.children):
                sibling = parent.children[sibling_idx]
                if self._width(sibling) > 2:
                    self._borrow(node, sibling,
                                 from_left=sibling_idx < idx)
                    self._refresh_fence(parent, node)
                    self._refresh_fence(parent, sibling)
                    return
        # No sibling can lend: merge with a neighbor.
        sibling_idx = idx - 1 if idx > 0 else idx + 1
        sibling = parent.children[sibling_idx]
        left, right = ((sibling, node) if sibling_idx < idx
                       else (node, sibling))
        if left.is_leaf:
            left.keys += right.keys
            left.values += right.values
            left.next = right.next
        else:
            left.keys += right.keys
            left.children += right.children
        right_idx = parent.children.index(right)
        parent.children.pop(right_idx)
        parent.keys.pop(right_idx)
        self._refresh_fence(parent, left)

    def _borrow(self, node: BTreeNode, sibling: BTreeNode,
                from_left: bool) -> None:
        if node.is_leaf:
            if from_left:
                node.keys.insert(0, sibling.keys.pop())
                node.values.insert(0, sibling.values.pop())
            else:
                node.keys.append(sibling.keys.pop(0))
                node.values.append(sibling.values.pop(0))
        else:
            if from_left:
                node.children.insert(0, sibling.children.pop())
                node.keys.insert(0, sibling.keys.pop())
            else:
                node.children.append(sibling.children.pop(0))
                node.keys.append(sibling.keys.pop(0))

    # -- range scans -----------------------------------------------------------
    def range_scan(self, lo: int, hi: int) -> List[int]:
        """All keys in [lo, hi], walking the chained leaves in order."""
        if lo > hi:
            return []
        node = self.root
        while not node.is_leaf:
            idx = self._route_index(node.keys, lo)
            node = node.children[idx]
        out: List[int] = []
        while node is not None:
            for key in node.keys:
                if key > hi:
                    return out
                if key >= lo:
                    out.append(key)
            node = node.next
        return out

    # -- bulk loading ---------------------------------------------------------
    @classmethod
    def bulk_load(cls, keys: Sequence[int], order: int = DEFAULT_ORDER,
                  fill: Tuple[float, float] = None, seed: int = 0) -> "_BTreeBase":
        """Build a tree over sorted unique ``keys`` with randomized node fill.

        ``fill`` is a (lo, hi) fraction of ``order``; each node's width is
        drawn uniformly from it, reproducing the per-node child-count
        variation the paper identifies as a divergence source.
        """
        tree = cls(order)
        sorted_keys = sorted(keys)
        if len(set(sorted_keys)) != len(sorted_keys):
            raise ConfigurationError("bulk_load requires unique keys")
        if not sorted_keys:
            return tree
        lo, hi = fill if fill is not None else cls.default_fill()
        rng = random.Random(seed)

        def draw_width() -> int:
            width = int(round(rng.uniform(lo, hi) * order))
            return max(2, min(order, width))

        def chunk(items: List) -> List[List]:
            """Split ``items`` into runs of 2..order elements (last run too)."""
            chunks, i = [], 0
            while i < len(items):
                width = min(draw_width(), len(items) - i)
                chunks.append(items[i:i + width])
                i += width
            if len(chunks) > 1 and len(chunks[-1]) < 2:
                if len(chunks[-2]) + len(chunks[-1]) <= order:
                    chunks[-2] = chunks[-2] + chunks[-1]
                    chunks.pop()
                else:
                    chunks[-1] = chunks[-2][-1:] + chunks[-1]
                    chunks[-2] = chunks[-2][:-1]
            return chunks

        # Level 0: leaves, chained for range scans.
        level = [BTreeNode(keys=list(c), values=list(c))
                 for c in chunk(sorted_keys)]
        for left, right in zip(level, level[1:]):
            left.next = right
        # Upper levels until a single root remains.
        while len(level) > 1:
            level = [
                BTreeNode(keys=[tree._max_key_deep(c) for c in group],
                          children=group)
                for group in chunk(level)
            ]
        tree.root = level[0]
        tree._count = len(sorted_keys)
        return tree

    @classmethod
    def default_fill(cls) -> Tuple[float, float]:
        return (0.5, 1.0)

    # -- invariant checking (used by tests) -----------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        keys = self.keys_in_order()
        assert keys == sorted(keys), "keys out of order"
        assert len(keys) == len(set(keys)), "duplicate keys"
        assert len(keys) == self._count, "count mismatch"
        depths = set()
        self._check_node(self.root, depth=1, depths=depths, is_root=True)
        assert len(depths) <= 1, f"leaves at multiple depths: {depths}"

    def _check_node(self, node: BTreeNode, depth: int, depths: set,
                    is_root: bool) -> None:
        width = self._width(node)
        assert width <= self.order, f"overfull node width={width}"
        if not is_root and self._count > self.order:
            assert width >= 2, "underfull node"
        if node.is_leaf:
            depths.add(depth)
            assert node.keys == sorted(node.keys)
            assert len(node.values) == len(node.keys)
        else:
            assert len(node.keys) == len(node.children)
            for fence, child in zip(node.keys, node.children):
                assert fence == self._max_key_deep(child), "stale fence key"
                self._check_node(child, depth + 1, depths, is_root=False)


class BTree(_BTreeBase):
    """Classic B-Tree: inner equality matches terminate the search."""

    inner_match_terminates = True

    @classmethod
    def default_fill(cls) -> Tuple[float, float]:
        return (0.5, 1.0)


class BStarTree(_BTreeBase):
    """B*Tree: >= 2/3 fill via sibling redistribution before splitting."""

    inner_match_terminates = True
    min_fill = 2.0 / 3.0

    @classmethod
    def default_fill(cls) -> Tuple[float, float]:
        return (0.7, 1.0)

    def _try_redistribute(self, node: BTreeNode, parent: BTreeNode) -> bool:
        idx = parent.children.index(node)
        for sibling_idx in (idx - 1, idx + 1):
            if 0 <= sibling_idx < len(parent.children):
                sibling = parent.children[sibling_idx]
                if self._width(sibling) < self.order - 1:
                    self._shift_into(node, sibling, sibling_idx < idx)
                    self._refresh_fence(parent, node)
                    self._refresh_fence(parent, sibling)
                    return True
        return False

    def _shift_into(self, node: BTreeNode, sibling: BTreeNode,
                    sibling_is_left: bool) -> None:
        if node.is_leaf:
            if sibling_is_left:
                sibling.keys.append(node.keys.pop(0))
                sibling.values.append(node.values.pop(0))
            else:
                sibling.keys.insert(0, node.keys.pop())
                sibling.values.insert(0, node.values.pop())
        else:
            if sibling_is_left:
                sibling.children.append(node.children.pop(0))
                sibling.keys.append(node.keys.pop(0))
            else:
                sibling.children.insert(0, node.children.pop())
                sibling.keys.insert(0, node.keys.pop())


class BPlusTree(_BTreeBase):
    """B+Tree: keys only at leaves, so every search reaches leaf depth."""

    inner_match_terminates = False

    @classmethod
    def default_fill(cls) -> Tuple[float, float]:
        return (0.6, 1.0)
