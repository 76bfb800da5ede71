"""Scalar reference BVH builder for the array builder's differential test.

This is the object-at-a-time construction :class:`repro.trees.BVH` used
before it moved to packed arrays, kept verbatim as the oracle the
array builder must match node for node: bound bits, leaf slices,
``_prim_order`` and ``node_count``.
"""

import math
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.geometry.aabb import AABB
from repro.trees.bvh import _SAH_BINS, BVH, BVHNode


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
        self._prim_bounds = [p.bounds() for p in self.primitives]
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
