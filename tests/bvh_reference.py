"""Reference BVH builders for the level-synchronous builder's tests.

Two constructions :class:`repro.trees.BVH` used before, each kept
verbatim as an oracle the current builder must match node for node:
bound bits, leaf slices, ``_prim_order`` and ``node_count``.

* :class:`ReferenceBVH` — the object-at-a-time scalar builder, a fold
  of ``AABB.union`` over every candidate split.
* :class:`RecursiveBVH` — the recursive array builder
  (``_ArrayBuilder``), one node per call over packed bounds.
"""

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.aabb import AABB
from repro.geometry.batch import aabbs_soa
from repro.geometry.vec import Vec3
from repro.trees.bvh import _SAH_BINS, BVH, BVHNode, surface_areas


class ReferenceBVH(BVH):
    """A :class:`BVH` whose tree comes from the scalar builder."""

    def __init__(self, primitives: Sequence, max_leaf_size: int = 2,
                 method: str = "median"):
        if not primitives:
            raise ConfigurationError("cannot build a BVH with no primitives")
        if method not in ("median", "sah"):
            raise ConfigurationError(f"unknown BVH build method {method!r}")
        self.primitives = list(primitives)
        self.max_leaf_size = max_leaf_size
        self._bounds = [p.bounds() for p in self.primitives]
        self._prim_order = list(range(len(self.primitives)))
        self.root = self._build(0, len(self.primitives), method)
        self.node_count = self._count_nodes(self.root)
        self._soa = None
        self.mutation_epoch = 0
        self._soa_epoch = 0

    def _range_bounds(self, first: int, count: int) -> AABB:
        box = AABB.empty()
        for i in range(first, first + count):
            box = box.union(self._prim_bounds[self._prim_order[i]])
        return box

    def _build(self, first: int, count: int, method: str) -> BVHNode:
        node = BVHNode(self._range_bounds(first, count))
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

    def _count_nodes(self, node: BVHNode) -> int:
        if node.is_leaf:
            return 1
        return 1 + self._count_nodes(node.left) + self._count_nodes(node.right)


class RecursiveBVH(BVH):
    """A :class:`BVH` whose tree comes from the recursive array builder."""

    def __init__(self, primitives: Sequence, max_leaf_size: int = 2,
                 method: str = "median"):
        self.primitives = list(primitives)
        self.max_leaf_size = max_leaf_size
        self._bounds = [p.bounds() for p in self.primitives]
        lo, hi = aabbs_soa(self._bounds)
        builder = _ArrayBuilder(lo, hi, max_leaf_size, sah=method == "sah")
        self.root = builder.build(0, len(self.primitives))
        self._prim_order = builder.order.tolist()
        self.node_count = builder.node_count
        self._soa = None
        self.mutation_epoch = 0
        self._soa_epoch = 0


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

    def build(self, first: int, count: int) -> BVHNode:
        end = first + count
        lo = _first_extreme(self.lo[first:end], np.min)
        hi = _first_extreme(self.hi[first:end], np.max)
        bounds = AABB(Vec3(*lo), Vec3(*hi))
        node = BVHNode(bounds)
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
