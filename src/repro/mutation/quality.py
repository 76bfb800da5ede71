"""Tree-quality metrics: how far has churn pushed a structure from a
fresh bulk build?

Every flavor reports the same dict shape so the obs registry, the
rebuild scheduler, and the churn curves treat them uniformly:

``sah_cost``
    Surface-area-heuristic traversal cost estimate (BVH / R-Tree;
    0.0 for the comparison trees, which have no spatial extent).
``overlap``
    Mean sibling-overlap ratio at inner nodes (R-Tree / BVH); the
    quantity quadratic splits and loose refit-skipped bounds inflate.
``fill_factor``
    Mean leaf occupancy relative to the leaf capacity.  Online inserts
    overgrow leaves (k-d, BVH) or split them half-full (B-Tree), both
    of which show up here.
``depth_skew``
    Deepest leaf depth over the ideal balanced depth.
``decay``
    The scalar the rebuild scheduler compares against its baseline:
    higher = worse.  Per-flavor definition documented on each function.
``nodes`` / ``items``
    Structure size, for normalizing costs.

All pure functions of the tree — no registry, no clock.
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


def btree_quality(tree) -> Dict[str, float]:
    """B-Tree decay = height over the ideal height: splits and
    underfull nodes only hurt once they add a level (fences stay exact,
    so per-node work never worsens)."""
    nodes = tree.nodes()
    fills = [tree._width(n) / tree.order for n in nodes]
    n = max(2, len(tree))
    ideal_height = max(1, math.ceil(math.log(n) / math.log(tree.order)))
    skew = tree.height() / ideal_height
    return {
        "sah_cost": 0.0,
        "overlap": 0.0,
        "fill_factor": sum(fills) / max(1, len(fills)),
        "depth_skew": skew,
        "decay": skew,
        "nodes": float(len(nodes)),
        "items": float(len(tree)),
    }


def kdtree_quality(tree) -> Dict[str, float]:
    """k-d decay = worst leaf overgrowth: online inserts append into
    fixed leaves, so the scan cost at the hottest leaf is what grows."""
    leaves = [n for n in tree.nodes() if n.is_leaf]
    counts = [len(n.point_ids) for n in leaves]
    max_occ = max(counts) if counts else 0
    n_live = max(1, tree.n_live)
    ideal_depth = 1 + max(0, math.ceil(
        math.log2(max(1, n_live / max(1, tree.max_leaf_size)))))
    return {
        "sah_cost": 0.0,
        "overlap": 0.0,
        "fill_factor": (sum(counts) / max(1, len(counts)))
        / max(1, tree.max_leaf_size),
        "depth_skew": tree.depth() / max(1, ideal_depth),
        "decay": max(1.0, max_occ / max(1, tree.max_leaf_size)),
        "nodes": float(len(tree.nodes())),
        "items": float(n_live),
    }


#: Metric keys every quality dict carries, canonical export order.
QUALITY_KEYS = ("sah_cost", "overlap", "fill_factor", "depth_skew",
                "decay", "nodes", "items")
