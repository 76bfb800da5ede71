"""Scalar references for the array write-maintenance passes.

These are the node-at-a-time ``bvh_quality``, ``rtree_quality``,
``BVH.refit`` and R-Tree refit from before they moved to array columns,
kept verbatim as the oracles the array passes must match: quality
dicts by ``float.hex``, node bounds bit for bit, touched counts equal.
"""

import math
from typing import Dict

from repro.geometry.aabb import AABB

_EPS = 1e-12

#: SAH constants (relative units; only ratios matter here).
_C_TRAVERSE = 1.0
_C_INTERSECT = 1.0


def _overlap_sa(a: AABB, b: AABB) -> float:
    """Surface area of the intersection box (0 when disjoint)."""
    box = AABB(a.lo.max_with(b.lo), a.hi.min_with(b.hi))
    return box.surface_area()


def bvh_quality(bvh) -> Dict[str, float]:
    """BVH decay = the SAH cost itself: loose bounds and overgrown
    leaves both raise expected visits, which is exactly what the serve
    latency pays."""
    nodes = bvh.nodes()
    root_sa = max(bvh.root.bounds.surface_area(), _EPS)
    sah = 0.0
    overlaps = []
    leaf_counts = []
    for node in nodes:
        p_hit = node.bounds.surface_area() / root_sa
        if node.is_leaf:
            sah += p_hit * node.prim_count * _C_INTERSECT
            leaf_counts.append(node.prim_count)
        else:
            sah += p_hit * _C_TRAVERSE
            sa = node.bounds.surface_area()
            if sa > _EPS:
                overlaps.append(
                    _overlap_sa(node.left.bounds, node.right.bounds) / sa)
    n_live = len(bvh._prim_order)
    n_leaves = max(1, len(leaf_counts))
    ideal_depth = 1 + max(0, math.ceil(
        math.log2(max(1, n_live / max(1, bvh.max_leaf_size)))))
    return {
        "sah_cost": sah,
        "overlap": sum(overlaps) / max(1, len(overlaps)),
        "fill_factor": (sum(leaf_counts) / n_leaves) / max(1, bvh.max_leaf_size),
        "depth_skew": bvh.depth() / max(1, ideal_depth),
        "decay": sah,
        "nodes": float(len(nodes)),
        "items": float(n_live),
    }


def rtree_quality(tree) -> Dict[str, float]:
    """R-Tree decay = SAH-style visit cost inflated by sibling overlap —
    quadratic splits bloat overlap long before node counts move."""
    nodes = tree.nodes()
    root_sa = max(tree.root.mbr.surface_area(), _EPS)
    sah = 0.0
    overlaps = []
    fills = []
    for node in nodes:
        p_hit = node.mbr.surface_area() / root_sa
        sah += p_hit * node.width * _C_INTERSECT
        fills.append(node.width / tree.max_entries)
        if not node.is_leaf:
            sa = node.mbr.surface_area()
            if sa > _EPS:
                pair = 0.0
                kids = node.children
                for i in range(len(kids)):
                    for j in range(i + 1, len(kids)):
                        pair += _overlap_sa(kids[i].mbr, kids[j].mbr)
                overlaps.append(pair / sa)
    overlap = sum(overlaps) / max(1, len(overlaps))
    n = max(1, len(tree))
    ideal_height = 1 + max(0, math.ceil(
        math.log(max(2, n)) / math.log(max(2, tree.max_entries)))) - 1
    return {
        "sah_cost": sah,
        "overlap": overlap,
        "fill_factor": sum(fills) / max(1, len(fills)),
        "depth_skew": tree.height() / max(1, ideal_height),
        "decay": sah * (1.0 + overlap),
        "nodes": float(len(nodes)),
        "items": float(len(tree)),
    }


def _range_bounds(bvh, first: int, count: int) -> AABB:
    box = AABB.empty()
    for i in range(first, first + count):
        box = box.union(bvh._prim_bounds[bvh._prim_order[i]])
    return box


def bvh_refit(bvh) -> int:
    """Recompute exact bounds bottom-up without restructuring.

    Leaf boxes are rebuilt from their (live) primitives, inner boxes
    from their children.  Returns the number of nodes touched.  The
    tree's SoA memo is dropped, as the epoch bump did before.
    """
    def rec(node) -> int:
        if node.is_leaf:
            node.bounds = _range_bounds(bvh, node.first_prim,
                                        node.prim_count)
            return 1
        touched = rec(node.left) + rec(node.right)
        node.bounds = node.left.bounds.union(node.right.bounds)
        return touched + 1

    touched = rec(bvh.root)
    bvh.mutation_epoch += 1
    bvh._soa = None
    return touched


def rtree_refit(tree) -> int:
    """Bottom-up exact MBR sweep; returns the number of nodes touched."""
    nodes = tree.nodes()
    for node in reversed(nodes):
        node.recompute_mbr()
    tree.mutation_epoch = getattr(tree, "mutation_epoch", 0) + 1
    return len(nodes)
