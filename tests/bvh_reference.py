"""Reference BVHs for the builder's and the write path's tests.

:class:`repro.trees.BVH` keeps every box and leaf slice in its SoA view
(:class:`repro.trees.bvh.BVHArrays`) and builds one level at a time.
The trees here are the object-at-a-time constructions it replaced,
kept as oracles it must match node for node: bound bits, leaf slices,
``_prim_order``, ``node_count``, and the results of every write.

* :class:`ReferenceBVH` — :class:`RefNode` objects that hold their own
  box and slice, the scalar builder (a fold of ``AABB.union`` over
  every candidate split), the scalar writes (``insert``, ``remove``,
  ``update``, ``refit``, ``fork``) and the node-walking ``traverse`` and
  radius query.
* :class:`RecursiveBVH` — the same tree from the recursive array
  builder (``_ArrayBuilder``), one node per call over packed bounds.

:func:`node_box`, :func:`node_slice` and :func:`node_prims` read a node
of either kind of tree, so one assertion covers both.
"""

import copy
import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.aabb import AABB
from repro.geometry.batch import aabbs_soa
from repro.geometry.intersect import point_distance_below, ray_aabb_intersect
from repro.geometry.ray import Ray
from repro.geometry.vec import Vec3
from repro.trees.bvh import _SAH_BINS, BVH, surface_areas


def _hex(values) -> Tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


def tree_records(tree) -> List[tuple]:
    """Per node in DFS order: box bits (``float.hex``, so ``0.0`` and
    ``-0.0`` differ), slice, and child DFS indexes, on either kind of
    tree."""
    nodes = tree.nodes()
    index = {id(node): i for i, node in enumerate(nodes)}
    records = []
    for node in nodes:
        box = node_box(tree, node)
        children = (None if node.is_leaf
                    else (index[id(node.left)], index[id(node.right)]))
        records.append((_hex((*box.lo, *box.hi)), node_slice(tree, node),
                        children))
    return records


def visit_records(tree, visits) -> List[tuple]:
    """``(DFS index, kind, tests, hit)`` per visit, on either kind of
    tree."""
    index = {id(node): i for i, node in enumerate(tree.nodes())}
    return [(index[id(v.node)], v.kind, v.tests, v.hit) for v in visits]


def assert_matches(bvh: BVH, ref: "ReferenceBVH") -> None:
    """``bvh``'s view equals the reference tree: boxes, slices, shape,
    order, the structural columns and every primitive column."""
    assert tree_records(bvh) == tree_records(ref)
    assert bvh._prim_order == ref._prim_order
    assert bvh.node_count == len(ref.nodes()) and bvh.depth() == ref.depth()
    soa = bvh.soa()
    nodes = ref.nodes()
    index = {id(node): i for i, node in enumerate(nodes)}
    parent = [-1] * len(nodes)
    for i, node in enumerate(nodes):
        if not node.is_leaf:
            parent[index[id(node.left)]] = parent[index[id(node.right)]] = i
    assert soa.parent.tolist() == parent
    assert soa.leaves.tolist() == [i for i, n in enumerate(nodes)
                                   if n.is_leaf]
    assert soa.left_list == soa.left.tolist()
    assert soa.right_list == soa.right.tolist()
    assert soa.first_list == soa.first_prim.tolist()
    assert soa.count_list == soa.prim_count.tolist()
    assert soa.prim_id_list == soa.prim_ids.tolist() == ref.live_prim_ids()
    live = [ref.primitives[i] for i in ref._prim_order]
    boxes = [ref._prim_bounds[i] for i in ref._prim_order]
    assert [_hex(row) for row in soa.prim_lo.tolist()] == \
        [_hex(b.lo) for b in boxes]
    assert [_hex(row) for row in soa.prim_hi.tolist()] == \
        [_hex(b.hi) for b in boxes]
    if soa.prim_kind == "sphere":
        assert [_hex(row) for row in soa.centers.tolist()] == \
            [_hex(p.center) for p in live]
        assert soa.radii.tolist() == [p.radius for p in live]
    elif soa.prim_kind == "triangle":
        for name in ("v0", "v1", "v2"):
            assert [_hex(row) for row in getattr(soa, name).tolist()] == \
                [_hex(getattr(p, name)) for p in live]


class RefNode:
    """A BVH node that holds its own box and leaf slice."""

    __slots__ = ("bounds", "left", "right", "first_prim", "prim_count",
                 "address")

    def __init__(self, bounds: AABB):
        self.bounds = bounds
        self.left: Optional["RefNode"] = None
        self.right: Optional["RefNode"] = None
        self.first_prim = 0
        self.prim_count = 0
        self.address = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RefVisit(NamedTuple):
    node: RefNode
    kind: str
    tests: int
    hit: bool


class RefTraversal(NamedTuple):
    closest_t: float
    closest_prim: Optional[int]
    all_hits: Tuple[int, ...]
    visits: Tuple[RefVisit, ...]


def node_box(tree, node) -> AABB:
    """``node``'s box: its own on a reference tree, its view row's on a
    :class:`BVH`."""
    if isinstance(node, RefNode):
        return node.bounds
    return tree.soa().box(node.row)


def node_slice(tree, node) -> Tuple[int, int]:
    """``node``'s ``(first_prim, prim_count)`` on either kind of tree."""
    if isinstance(node, RefNode):
        return node.first_prim, node.prim_count
    soa = tree.soa()
    return soa.first_list[node.row], soa.count_list[node.row]


def node_prims(tree, node) -> List:
    """The primitives of ``node``'s leaf slice on either kind of tree."""
    first, count = node_slice(tree, node)
    return [tree.primitives[tree._prim_order[i]]
            for i in range(first, first + count)]


class ReferenceBVH:
    """A BVH of :class:`RefNode` objects from the scalar builder, with
    the scalar writes and traversals."""

    def __init__(self, primitives: Sequence, max_leaf_size: int = 2,
                 method: str = "median"):
        if not primitives:
            raise ConfigurationError("cannot build a BVH with no primitives")
        if method not in ("median", "sah"):
            raise ConfigurationError(f"unknown BVH build method {method!r}")
        self.primitives = list(primitives)
        self.max_leaf_size = max_leaf_size
        self._prim_bounds = [p.bounds() for p in self.primitives]
        self._prim_order = list(range(len(self.primitives)))
        self.root = self._build(0, len(self.primitives), method)
        self.node_count = self._count_nodes(self.root)

    def _range_bounds(self, first: int, count: int) -> AABB:
        box = AABB.empty()
        for i in range(first, first + count):
            box = box.union(self._prim_bounds[self._prim_order[i]])
        return box

    def _build(self, first: int, count: int, method: str) -> RefNode:
        node = RefNode(self._range_bounds(first, count))
        if count <= self.max_leaf_size:
            node.first_prim, node.prim_count = first, count
            return node
        split = (self._sah_split(first, count, node.bounds)
                 if method == "sah" else self._median_split(first, count))
        if split is None or split in (first, first + count):
            node.first_prim, node.prim_count = first, count
            return node
        node.left = self._build(first, split - first, method)
        node.right = self._build(split, first + count - split, method)
        return node

    def _median_split(self, first: int, count: int) -> int:
        bounds = self._range_bounds(first, count)
        axis = bounds.longest_axis()
        segment = self._prim_order[first:first + count]
        segment.sort(key=lambda i: self._prim_bounds[i].centroid().component(axis))
        self._prim_order[first:first + count] = segment
        return first + count // 2

    def _sah_split(self, first: int, count: int, bounds: AABB) -> Optional[int]:
        """Surface-area-heuristic split over centroid-sorted primitives.

        Sorts the segment by centroid along the longest axis and scores
        the 11 equal-count splits at ``k/12`` of it; there are no
        spatial bins.  Falls back to the median split when the axis is
        degenerate or no candidate beats the leaf cost.
        """
        axis = bounds.longest_axis()
        lo = bounds.lo.component(axis)
        hi = bounds.hi.component(axis)
        if hi - lo < 1e-12:
            return self._median_split(first, count)
        segment = self._prim_order[first:first + count]
        segment.sort(key=lambda i: self._prim_bounds[i].centroid().component(axis))
        self._prim_order[first:first + count] = segment

        best_cost, best_split = math.inf, None
        leaf_cost = count * bounds.surface_area()
        for k in range(1, _SAH_BINS):
            split = first + (count * k) // _SAH_BINS
            if split in (first, first + count):
                continue
            left = self._range_bounds(first, split - first)
            right = self._range_bounds(split, first + count - split)
            cost = (left.surface_area() * (split - first)
                    + right.surface_area() * (first + count - split))
            if cost < best_cost:
                best_cost, best_split = cost, split
        if best_split is None or best_cost >= leaf_cost:
            return first + count // 2
        return best_split

    def _count_nodes(self, node: RefNode) -> int:
        if node.is_leaf:
            return 1
        return 1 + self._count_nodes(node.left) + self._count_nodes(node.right)

    @classmethod
    def of(cls, bvh: BVH) -> "ReferenceBVH":
        """A reference twin of ``bvh``'s current state: a node per view
        row with that row's box and slice, the primitive and order
        lists copied, and each primitive's box from its ``bounds()``."""
        tree = object.__new__(cls)
        soa = bvh.soa()
        nodes = [RefNode(soa.box(i)) for i in range(soa.n_nodes)]
        for node, l, r, f, c in zip(nodes, soa.left_list, soa.right_list,
                                    soa.first_list, soa.count_list):
            if l >= 0:
                node.left, node.right = nodes[l], nodes[r]
            else:
                node.first_prim, node.prim_count = f, c
        tree.root = nodes[0]
        tree.primitives = list(bvh.primitives)
        tree.max_leaf_size = bvh.max_leaf_size
        tree._prim_bounds = [p.bounds() for p in tree.primitives]
        tree._prim_order = list(bvh._prim_order)
        tree.node_count = len(nodes)
        return tree

    # -- access ---------------------------------------------------------
    def nodes(self) -> List[RefNode]:
        """All nodes in DFS order, left child first."""
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        return out

    def depth(self) -> int:
        def rec(node: RefNode) -> int:
            if node.is_leaf:
                return 1
            return 1 + max(rec(node.left), rec(node.right))
        return rec(self.root)

    def live_prim_ids(self) -> List[int]:
        return [self.primitives[i].prim_id for i in self._prim_order]

    # -- scalar writes --------------------------------------------------
    def _leaves(self) -> List[RefNode]:
        return [node for node in self.nodes() if node.is_leaf]

    def _shift(self, leaf: RefNode, delta: int) -> None:
        """Grow ``leaf``'s slice by ``delta``; move the later leaves'."""
        leaves = self._leaves()
        for later in leaves[leaves.index(leaf) + 1:]:
            later.first_prim += delta
        leaf.prim_count += delta

    def _slice_pos(self, prim_id: int) -> int:
        ids = self.live_prim_ids()
        if prim_id not in ids:
            raise KeyError(f"prim_id {prim_id} not live in BVH")
        return ids.index(prim_id)

    def _path_to_pos(self, pos: int) -> List[RefNode]:
        """Root-to-leaf path of the first leaf whose slice holds ``pos``."""
        def rec(node, path):
            path = path + [node]
            if node.is_leaf:
                hold = node.first_prim <= pos < node.first_prim + node.prim_count
                return path if hold else None
            return rec(node.left, path) or rec(node.right, path)
        return rec(self.root, [])

    def insert(self, prim) -> int:
        bounds = prim.bounds()
        node, path = self.root, []
        while not node.is_leaf:
            path.append(node)
            grow_left = (node.left.bounds.union(bounds).surface_area()
                         - node.left.bounds.surface_area())
            grow_right = (node.right.bounds.union(bounds).surface_area()
                          - node.right.bounds.surface_area())
            node = node.left if grow_left <= grow_right else node.right
        path.append(node)
        pos = node.first_prim + node.prim_count
        self._prim_order.insert(pos, len(self.primitives))
        self.primitives.append(prim)
        self._prim_bounds.append(bounds)
        for on_path in path:
            on_path.bounds = on_path.bounds.union(bounds)
        self._shift(node, +1)
        return len(path)

    def remove(self, prim_id: int) -> int:
        pos = self._slice_pos(prim_id)
        self._shift(self._path_to_pos(pos)[-1], -1)
        self._prim_order.pop(pos)
        return 1

    def update(self, prim_id: int, prim) -> int:
        pos = self._slice_pos(prim_id)
        index = self._prim_order[pos]
        self.primitives[index] = prim
        bounds = self._prim_bounds[index] = prim.bounds()
        path = self._path_to_pos(pos)
        for node in path:
            node.bounds = node.bounds.union(bounds)
        return len(path)

    def refit(self) -> int:
        from tests.quality_reference import bvh_refit
        return bvh_refit(self)

    def fork(self) -> "ReferenceBVH":
        tree = copy.copy(self)
        tree.root = copy.deepcopy(self.root)
        tree.primitives = list(self.primitives)
        tree._prim_bounds = list(self._prim_bounds)
        tree._prim_order = list(self._prim_order)
        return tree

    # -- scalar traversals ----------------------------------------------
    def traverse(self, ray: Ray, intersector, mode: str = "closest"
                 ) -> RefTraversal:
        """The while-while loop over node objects (Algorithm 3)."""
        visits, all_hits = [], []
        closest_t, closest_prim, tmax, clipped = ray.tmax, None, ray.tmax, ray
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaf_hit = False
                for prim in node_prims(self, node):
                    hit = intersector(clipped, prim)
                    if hit is not None:
                        leaf_hit = True
                        all_hits.append(prim.prim_id)
                        if hit.t < closest_t:
                            closest_t, closest_prim = hit.t, prim.prim_id
                        if mode == "closest" and hit.t < tmax:
                            tmax = hit.t
                            clipped = Ray(ray.origin, ray.direction,
                                          ray.tmin, tmax)
                visits.append(RefVisit(node, "leaf", node.prim_count,
                                       leaf_hit))
                if mode == "any" and leaf_hit:
                    break
            else:
                span = ray_aabb_intersect(clipped, node.bounds)
                visits.append(RefVisit(node, "inner", 1, span is not None))
                if span is not None:
                    stack.append(node.right)
                    stack.append(node.left)
        if closest_prim is None:
            closest_t = math.inf
        return RefTraversal(closest_t, closest_prim, tuple(all_hits),
                            tuple(visits))

    def radius_query(self, center: Vec3, radius: float
                     ) -> Tuple[Tuple[int, ...], Tuple[RefVisit, ...]]:
        """Sorted hits and visits of a node-walking radius search."""
        visits, hits = [], []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                found = 0
                for sphere in node_prims(self, node):
                    if point_distance_below(center, sphere.center, radius):
                        hits.append(sphere.prim_id)
                        found += 1
                visits.append(RefVisit(node, "leaf", node.prim_count,
                                       found > 0))
            else:
                inside = node.bounds.contains_point(center)
                visits.append(RefVisit(node, "inner", 1, inside))
                if inside:
                    stack.append(node.right)
                    stack.append(node.left)
        return tuple(sorted(hits)), tuple(visits)


class RecursiveBVH(ReferenceBVH):
    """A :class:`ReferenceBVH` whose tree comes from the recursive array
    builder."""

    def __init__(self, primitives: Sequence, max_leaf_size: int = 2,
                 method: str = "median"):
        self.primitives = list(primitives)
        self.max_leaf_size = max_leaf_size
        self._prim_bounds = [p.bounds() for p in self.primitives]
        lo, hi = aabbs_soa(self._prim_bounds)
        builder = _ArrayBuilder(lo, hi, max_leaf_size, sah=method == "sah")
        self.root = builder.build(0, len(self.primitives))
        self._prim_order = builder.order.tolist()
        self.node_count = builder.node_count


def _first_extreme(rows: np.ndarray, reduce) -> List[float]:
    """Column ``np.min``/``np.max`` of ``rows`` as Python floats.

    A left fold of Python ``min``/``max`` keeps the first-seen value on
    ties, so when the extreme is zero the first ``0.0``/``-0.0`` in row
    order wins; numpy makes no promise about which zero it returns.
    """
    out = reduce(rows, axis=0).tolist()
    for j, value in enumerate(out):
        if value == 0.0:
            column = rows[:, j]
            out[j] = column[int(np.argmax(column == 0.0))].item()
    return out


class _ArrayBuilder:
    """Top-down median/SAH construction over packed primitive bounds.

    ``lo``/``hi`` are the ``(N, 3)`` primitive bounds, permuted in step
    with ``order`` so a node's primitives are always the contiguous rows
    ``[first, first + count)``.  The arrays live only for one build.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, max_leaf_size: int,
                 sah: bool):
        self.lo, self.hi = lo, hi
        self.order = np.arange(len(lo))
        self.max_leaf_size = max_leaf_size
        self.sah = sah
        self.node_count = 0

    def build(self, first: int, count: int) -> RefNode:
        end = first + count
        lo = _first_extreme(self.lo[first:end], np.min)
        hi = _first_extreme(self.hi[first:end], np.max)
        bounds = AABB(Vec3(*lo), Vec3(*hi))
        node = RefNode(bounds)
        self.node_count += 1
        if count <= self.max_leaf_size:
            node.first_prim, node.prim_count = first, count
            return node
        axis = bounds.longest_axis()
        self._sort(first, end, axis)
        split = first + count // 2
        if self.sah and hi[axis] - lo[axis] >= 1e-12:
            split = self._sah_split(first, count,
                                    count * bounds.surface_area())
        if split in (first, end):
            node.first_prim, node.prim_count = first, count
            return node
        node.left = self.build(first, split - first)
        node.right = self.build(split, end - split)
        return node

    def _sort(self, first: int, end: int, axis: int) -> None:
        """Stable sort of the segment by centroid along ``axis``."""
        lo, hi = self.lo[first:end], self.hi[first:end]
        perm = np.argsort((lo[:, axis] + hi[:, axis]) * 0.5, kind="stable")
        self.lo[first:end] = lo[perm]
        self.hi[first:end] = hi[perm]
        self.order[first:end] = self.order[first:end][perm]

    def _sah_split(self, first: int, count: int, leaf_cost: float) -> int:
        """Best of the equal-count splits of the sorted segment, or its
        median when none beats ``leaf_cost``."""
        cuts = [c for c in ((count * k) // _SAH_BINS
                            for k in range(1, _SAH_BINS)) if c not in (0, count)]
        lo, hi = self.lo[first:first + count], self.hi[first:first + count]
        at = np.array(cuts, dtype=np.intp)
        left = surface_areas(np.minimum.accumulate(lo)[at - 1],
                              np.maximum.accumulate(hi)[at - 1])
        right = surface_areas(np.minimum.accumulate(lo[::-1])[::-1][at],
                               np.maximum.accumulate(hi[::-1])[::-1][at])
        costs = left * at + right * (count - at)
        best_cost, best = math.inf, None
        for cut, cost in zip(cuts, costs.tolist()):
            if cost < best_cost:
                best_cost, best = cost, cut
        if best is None or best_cost >= leaf_cost:
            return first + count // 2
        return first + best
