"""R-Trees: spatial indexes over rectangles (Guttman [27]).

The paper's introduction names R-Trees alongside B-Trees as the index
structures motivating TTA ("web indexing, databases, data mining ...
B-Trees, B+Trees, and R-Trees are used to index data").  An R-Tree
range query is a pure AABB-overlap traversal, which maps directly onto
the (modified) Ray-Box unit — the same observation RTIndeX [34] exploits
in software.

Provided here:

* STR (Sort-Tile-Recursive) bulk loading — the standard packing
  algorithm for static spatial data;
* incremental ``insert`` with Guttman's quadratic split (exercised by
  the property tests to validate the structural invariants);
* ``range_query`` returning both results and the visit trace consumed
  by the timing models.
"""

import copy
import math
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.aabb import AABB
from repro.geometry.vec import Vec3
from repro.trees.bvh import box_columns, changed_boxes, fold_extremes

DEFAULT_MAX_ENTRIES = 9  # matches the 9-wide TTA instruction


class RectEntry(NamedTuple):
    """A data rectangle with an identifier."""

    rect: AABB
    data_id: int


def _overlaps(a: AABB, b: AABB) -> bool:
    return (a.lo.x <= b.hi.x and b.lo.x <= a.hi.x
            and a.lo.y <= b.hi.y and b.lo.y <= a.hi.y
            and a.lo.z <= b.hi.z and b.lo.z <= a.hi.z)


def _enlargement(mbr: AABB, rect: AABB) -> float:
    grown = mbr.union(rect)
    return grown.surface_area() - mbr.surface_area()


class RTreeNode:
    """Inner nodes hold child nodes; leaves hold data entries."""

    __slots__ = ("mbr", "children", "entries", "address")

    def __init__(self):
        self.mbr: AABB = AABB.empty()
        self.children: List["RTreeNode"] = []
        self.entries: List[RectEntry] = []
        self.address = -1

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def width(self) -> int:
        return len(self.entries) if self.is_leaf else len(self.children)

    def recompute_mbr(self) -> None:
        box = AABB.empty()
        if self.is_leaf:
            for entry in self.entries:
                box = box.union(entry.rect)
        else:
            for child in self.children:
                box = box.union(child.mbr)
        self.mbr = box

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "inner"
        return f"RTreeNode({kind}, width={self.width})"


class RTreeVisit(NamedTuple):
    node: RTreeNode
    kind: str       # "inner" | "leaf"
    tests: int      # entry-overlap tests performed
    hit: bool


class RangeQueryResult(NamedTuple):
    ids: Tuple[int, ...]
    visits: Tuple[RTreeVisit, ...]


class RTreeArrays:
    """Flat view of an R-Tree from one walk in :meth:`RTree.nodes` order.

    A BFS lists each node's children contiguously, so inner node ``i``
    owns nodes ``[child_start[i], child_start[i] + width[i])``.
    ``lo``/``hi`` are the node MBRs.  Made per use: R-Tree writes
    restructure the tree, so there is no view to carry from one epoch
    to the next.
    """

    __slots__ = ("nodes", "width", "is_leaf", "child_start", "depth",
                 "lo", "hi")

    def __init__(self, tree: "RTree"):
        self.nodes = nodes = [tree.root]
        child_start, width, depth = [], [], [0]
        for i, node in enumerate(nodes):
            kids = node.children
            if kids:
                child_start.append(len(nodes))
                width.append(len(kids))
                depth.extend([depth[i] + 1] * len(kids))
                nodes.extend(kids)
            else:
                child_start.append(-1)
                width.append(len(node.entries))
        self.child_start = np.array(child_start, dtype=np.intp)
        self.width = np.array(width, dtype=np.intp)
        self.depth = np.array(depth, dtype=np.intp)
        self.is_leaf = self.child_start < 0
        self.lo, self.hi = box_columns([node.mbr for node in nodes])

    def refit_mbrs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Exact MBR columns, bottom-up: leaves fold their entries, then
        each depth, deepest first, folds its children (the order
        :meth:`RTreeNode.recompute_mbr` folds in)."""
        leaves = np.flatnonzero(self.is_leaf)
        ends = np.cumsum(self.width[leaves])
        starts = ends - self.width[leaves]
        entry_lo, entry_hi = box_columns(
            [e.rect for i in leaves.tolist() for e in self.nodes[i].entries])
        lo, hi = np.empty_like(self.lo), np.empty_like(self.hi)
        lo[leaves] = fold_extremes(entry_lo, starts, ends, lower=True)
        hi[leaves] = fold_extremes(entry_hi, starts, ends, lower=False)
        inner = np.flatnonzero(~self.is_leaf)
        for d in range(int(self.depth.max()), -1, -1):
            level = inner[self.depth[inner] == d]
            if len(level):
                starts = self.child_start[level]
                ends = starts + self.width[level]
                lo[level] = fold_extremes(lo, starts, ends, lower=True)
                hi[level] = fold_extremes(hi, starts, ends, lower=False)
        return lo, hi


class RTree:
    """An R-Tree over :class:`RectEntry` items."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 4:
            raise ConfigurationError("R-Tree needs max_entries >= 4")
        self.max_entries = max_entries
        self.min_entries = max(2, max_entries // 3)
        self.root = RTreeNode()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    # -- queries -----------------------------------------------------------
    def range_query(self, window: AABB) -> RangeQueryResult:
        """All data rectangles overlapping ``window``, plus the trace."""
        ids: List[int] = []
        visits: List[RTreeVisit] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                found = 0
                for entry in node.entries:
                    if _overlaps(entry.rect, window):
                        ids.append(entry.data_id)
                        found += 1
                visits.append(RTreeVisit(node, "leaf", len(node.entries),
                                         found > 0))
            else:
                pushed = 0
                for child in node.children:
                    if _overlaps(child.mbr, window):
                        stack.append(child)
                        pushed += 1
                visits.append(RTreeVisit(node, "inner", len(node.children),
                                         pushed > 0))
        return RangeQueryResult(tuple(sorted(ids)), tuple(visits))

    # -- insertion (Guttman, quadratic split) ---------------------------------
    def insert(self, rect: AABB, data_id: int) -> None:
        entry = RectEntry(rect, data_id)
        leaf, path = self._choose_leaf(rect)
        leaf.entries.append(entry)
        self._count += 1
        self._adjust(path + [leaf])

    def _choose_leaf(self, rect: AABB) -> Tuple[RTreeNode, List[RTreeNode]]:
        node, path = self.root, []
        while not node.is_leaf:
            path.append(node)
            node = min(node.children,
                       key=lambda c: (_enlargement(c.mbr, rect),
                                      c.mbr.surface_area()))
        return node, path

    def _adjust(self, path: List[RTreeNode]) -> None:
        for depth in range(len(path) - 1, -1, -1):
            node = path[depth]
            node.recompute_mbr()
            if node.width > self.max_entries:
                sibling = self._split(node)
                if depth == 0:
                    new_root = RTreeNode()
                    new_root.children = [node, sibling]
                    new_root.recompute_mbr()
                    self.root = new_root
                else:
                    parent = path[depth - 1]
                    parent.children.append(sibling)
        self.root.recompute_mbr()

    def _split(self, node: RTreeNode) -> RTreeNode:
        """Quadratic split: seed with the worst pair, greedily distribute."""
        items = node.entries if node.is_leaf else node.children

        def rect_of(item):
            return item.rect if node.is_leaf else item.mbr

        # Seeds: the pair whose combined box wastes the most area.
        worst, seeds = -math.inf, (0, 1)
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                combined = rect_of(items[i]).union(rect_of(items[j]))
                waste = (combined.surface_area()
                         - rect_of(items[i]).surface_area()
                         - rect_of(items[j]).surface_area())
                if waste > worst:
                    worst, seeds = waste, (i, j)
        group_a = [items[seeds[0]]]
        group_b = [items[seeds[1]]]
        box_a, box_b = rect_of(group_a[0]), rect_of(group_b[0])
        remaining = [it for k, it in enumerate(items) if k not in seeds]
        for index, item in enumerate(remaining):
            left = len(remaining) - index  # items still unassigned
            # Force-assign when one group must absorb all the rest to
            # reach the minimum fill.
            slack_a = self.min_entries - len(group_a)
            slack_b = self.min_entries - len(group_b)
            if slack_a >= left:
                choose_a = True
            elif slack_b >= left:
                choose_a = False
            else:
                choose_a = (_enlargement(box_a, rect_of(item))
                            <= _enlargement(box_b, rect_of(item)))
            if choose_a:
                group_a.append(item)
                box_a = box_a.union(rect_of(item))
            else:
                group_b.append(item)
                box_b = box_b.union(rect_of(item))
        sibling = RTreeNode()
        if node.is_leaf:
            node.entries = group_a
            sibling.entries = group_b
        else:
            node.children = group_a
            sibling.children = group_b
        node.recompute_mbr()
        sibling.recompute_mbr()
        return sibling

    # -- deletion (Guttman CondenseTree) --------------------------------------
    def delete(self, data_id: int, rect: AABB = None) -> None:
        """Remove one data rectangle, condensing underfull nodes.

        ``rect`` (when known) guides the leaf search along overlapping
        MBRs; without it the search degenerates to a full scan.  Nodes
        that drop below the minimum fill are dissolved and their
        surviving entries reinserted from the top — Guttman's
        CondenseTree, the piece that keeps churned R-Trees within the
        structural invariants the property tests assert.
        """
        path: List[RTreeNode] = []
        leaf = self._find_leaf(self.root, data_id, rect, path)
        if leaf is None:
            raise KeyError(f"data_id {data_id} not in R-Tree")
        leaf.entries = [e for e in leaf.entries if e.data_id != data_id]
        self._count -= 1
        orphans: List[RectEntry] = []
        chain = path + [leaf]
        for depth in range(len(chain) - 1, 0, -1):
            node, parent = chain[depth], chain[depth - 1]
            if node.width < self.min_entries:
                parent.children.remove(node)
                self._collect_entries(node, orphans)
            else:
                node.recompute_mbr()
        self.root.recompute_mbr()
        while not self.root.is_leaf and len(self.root.children) == 1:
            self.root = self.root.children[0]
        for entry in orphans:
            # ``insert`` re-increments the count; the orphan was never
            # logically removed.
            self._count -= 1
            self.insert(entry.rect, entry.data_id)

    def _find_leaf(self, node: RTreeNode, data_id: int, rect,
                   path: List[RTreeNode]):
        """DFS for the leaf holding ``data_id``; fills ``path`` with its
        ancestors (root first)."""
        if node.is_leaf:
            if any(e.data_id == data_id for e in node.entries):
                return node
            return None
        path.append(node)
        for child in node.children:
            if rect is None or _overlaps(child.mbr, rect):
                found = self._find_leaf(child, data_id, rect, path)
                if found is not None:
                    return found
        path.pop()
        return None

    def _collect_entries(self, node: RTreeNode,
                         out: List[RectEntry]) -> None:
        if node.is_leaf:
            out.extend(node.entries)
        else:
            for child in node.children:
                self._collect_entries(child, out)

    def entries_in_order(self) -> List[RectEntry]:
        """Every live data entry (leaf scan, BFS order)."""
        out: List[RectEntry] = []
        for node in self.nodes():
            if node.is_leaf:
                out.extend(node.entries)
        return out

    def refit(self) -> int:
        """Recompute every MBR bottom-up as one array pass.

        Guttman insert/delete already keep MBRs exact, so this is the
        bookkeeping sweep the maintenance scheduler charges, not a
        correctness requirement; a node whose MBR bits change gets a
        new ``mbr``.  Returns the number of nodes touched.
        """
        flat = RTreeArrays(self)
        lo, hi = flat.refit_mbrs()
        for i, box in changed_boxes(flat.lo, flat.hi, lo, hi):
            flat.nodes[i].mbr = box
        return len(flat.nodes)

    # -- STR bulk loading ---------------------------------------------------------
    @classmethod
    def bulk_load(cls, entries: Sequence[RectEntry],
                  max_entries: int = DEFAULT_MAX_ENTRIES) -> "RTree":
        """Sort-Tile-Recursive packing: near-full, low-overlap nodes."""
        tree = cls(max_entries)
        if not entries:
            return tree
        level_items: List = list(entries)
        is_leaf_level = True
        while True:
            nodes = cls._str_pack(level_items, max_entries, is_leaf_level)
            if len(nodes) == 1:
                tree.root = nodes[0]
                break
            level_items = nodes
            is_leaf_level = False
        tree._count = len(entries)
        return tree

    @staticmethod
    def _str_pack(items: List, max_entries: int,
                  is_leaf: bool) -> List[RTreeNode]:
        def center_x(item):
            rect = item.rect if is_leaf else item.mbr
            return rect.centroid().x

        def center_y(item):
            rect = item.rect if is_leaf else item.mbr
            return rect.centroid().y

        n = len(items)
        n_nodes = math.ceil(n / max_entries)
        n_slices = max(1, math.ceil(math.sqrt(n_nodes)))
        slice_size = math.ceil(n / n_slices)
        min_fill = max(2, max_entries // 3)
        items = sorted(items, key=center_x)
        nodes: List[RTreeNode] = []
        for s in range(0, n, slice_size):
            column = sorted(items[s:s + slice_size], key=center_y)
            chunks = [column[t:t + max_entries]
                      for t in range(0, len(column), max_entries)]
            if len(chunks) > 1 and len(chunks[-1]) < min_fill:
                # Rebalance the tail so no node is underfull.
                need = min_fill - len(chunks[-1])
                chunks[-1] = chunks[-2][-need:] + chunks[-1]
                chunks[-2] = chunks[-2][:-need]
            for chunk in chunks:
                node = RTreeNode()
                if is_leaf:
                    node.entries = list(chunk)
                else:
                    node.children = list(chunk)
                node.recompute_mbr()
                nodes.append(node)
        # A short final column can still leave one underfull node: fold
        # it into its predecessor or steal enough items to reach fill.
        if len(nodes) > 1:
            last, prev = nodes[-1], nodes[-2]

            def items_of(node):
                return node.entries if is_leaf else node.children

            if len(items_of(last)) < min_fill:
                if len(items_of(prev)) + len(items_of(last)) <= max_entries:
                    items_of(prev).extend(items_of(last))
                    nodes.pop()
                    prev.recompute_mbr()
                else:
                    need = min_fill - len(items_of(last))
                    moved = items_of(prev)[-need:]
                    del items_of(prev)[-need:]
                    items_of(last)[:0] = moved
                    prev.recompute_mbr()
                    last.recompute_mbr()
        return nodes

    # -- structure access --------------------------------------------------------
    def nodes(self) -> List[RTreeNode]:
        out, frontier = [], [self.root]
        while frontier:
            node = frontier.pop(0)
            out.append(node)
            frontier.extend(node.children)
        return out

    def height(self) -> int:
        h, node = 1, self.root
        while not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    def fork(self, memo: dict) -> "RTree":
        """A twin that writes cannot reach through: every node and its
        entry and child lists are copied, MBRs and entries are shared.
        ``memo`` gains ``id(node) -> twin`` for each node."""
        nodes = self.nodes()
        for node in nodes:
            twin = memo[id(node)] = RTreeNode()
            twin.mbr = node.mbr
            twin.entries = list(node.entries)
            twin.address = node.address
        for node in nodes:
            memo[id(node)].children = [memo[id(c)] for c in node.children]
        tree = copy.copy(self)
        tree.root = memo[id(self.root)]
        return tree

    def check_invariants(self) -> None:
        """Raise AssertionError on any structural violation."""
        ids: List[int] = []
        depths = set()
        self._check(self.root, 1, depths, ids, is_root=True)
        assert len(depths) <= 1, f"leaves at depths {depths}"
        assert len(ids) == self._count
        assert len(set(ids)) == len(ids), "duplicate data ids"

    def _check(self, node: RTreeNode, depth: int, depths: set,
               ids: List[int], is_root: bool) -> None:
        assert node.width <= self.max_entries, "overfull node"
        if not is_root and self._count > self.max_entries:
            assert node.width >= self.min_entries, "underfull node"
        if node.is_leaf:
            depths.add(depth)
            for entry in node.entries:
                assert node.mbr.contains_box(entry.rect), "MBR violation"
                ids.append(entry.data_id)
        else:
            for child in node.children:
                assert node.mbr.contains_box(child.mbr), "MBR violation"
                self._check(child, depth + 1, depths, ids, is_root=False)


def make_rect(x0: float, y0: float, x1: float, y1: float) -> AABB:
    """A 2D rectangle embedded at z=0 (spatial indexes are planar here)."""
    return AABB(Vec3(min(x0, x1), min(y0, y1), 0.0),
                Vec3(max(x0, x1), max(y0, y1), 0.0))
