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

import numpy as np

from repro.trees.bvh import first_max, first_min, surface_areas
from repro.trees.rtree import RTreeArrays

_EPS = 1e-12

#: SAH constants (relative units; only ratios matter here).
_C_TRAVERSE = 1.0
_C_INTERSECT = 1.0


def _overlap_areas(a_lo: np.ndarray, a_hi: np.ndarray, b_lo: np.ndarray,
                   b_hi: np.ndarray) -> np.ndarray:
    """Surface area of each intersection box (0 when disjoint), with
    the box taken as ``AABB(a.lo.max_with(b.lo), a.hi.min_with(b.hi))``."""
    return surface_areas(first_max(a_lo, b_lo), first_min(a_hi, b_hi))


def _fold_sum(terms: np.ndarray) -> float:
    """``s = 0.0; for t in terms: s += t``: ``cumsum`` adds left to
    right, unlike ``np.sum``'s pairwise tree."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def bvh_quality(bvh) -> Dict[str, float]:
    """BVH decay = the SAH cost itself: loose bounds and overgrown
    leaves both raise expected visits, which is exactly what the serve
    latency pays.  Read from the tree's SoA view, node order as
    :meth:`BVH.nodes`."""
    soa = bvh.soa()
    sa = surface_areas(soa.lo, soa.hi)
    root_sa = max(sa[0].item(), _EPS)
    p_hit = sa / root_sa
    leaf = soa.left < 0
    sah = _fold_sum(np.where(leaf, p_hit * soa.prim_count * _C_INTERSECT,
                             p_hit * _C_TRAVERSE))
    inner = np.flatnonzero(~leaf & (sa > _EPS))
    a, b = soa.left[inner], soa.right[inner]
    overlaps = (_overlap_areas(soa.lo[a], soa.hi[a], soa.lo[b], soa.hi[b])
                / sa[inner]).tolist()
    leaf_counts = soa.prim_count[leaf]
    n_live = len(bvh._prim_order)
    n_leaves = max(1, len(leaf_counts))
    ideal_depth = 1 + max(0, math.ceil(
        math.log2(max(1, n_live / max(1, bvh.max_leaf_size)))))
    return {
        "sah_cost": sah,
        "overlap": sum(overlaps) / max(1, len(overlaps)),
        "fill_factor": (int(leaf_counts.sum()) / n_leaves)
        / max(1, bvh.max_leaf_size),
        "depth_skew": soa.depth / max(1, ideal_depth),
        "decay": sah,
        "nodes": float(soa.n_nodes),
        "items": float(n_live),
    }


def _sibling_overlaps(flat: RTreeArrays, sa: np.ndarray) -> list:
    """Per inner node with area above ``_EPS`` (node order): the summed
    intersection area of every child pair ``i < j``, over its area."""
    inner = np.flatnonzero(~flat.is_leaf & (sa > _EPS))
    ratios = np.empty(len(flat.nodes))
    for w in sorted(set(flat.width[inner].tolist())):
        group = inner[flat.width[inner] == w]
        i, j = np.triu_indices(w, 1)
        a = flat.child_start[group][:, None] + i
        b = flat.child_start[group][:, None] + j
        pairs = _overlap_areas(flat.lo[a], flat.hi[a], flat.lo[b], flat.hi[b])
        # Left fold per node: a leading 0.0 column, then cumsum.
        table = np.concatenate((np.zeros((len(group), 1)), pairs), axis=1)
        ratios[group] = np.cumsum(table, axis=1)[:, -1] / sa[group]
    return ratios[inner].tolist()


def rtree_quality(tree) -> Dict[str, float]:
    """R-Tree decay = SAH-style visit cost inflated by sibling overlap —
    quadratic splits bloat overlap long before node counts move.  One
    pass over the tree's flat view, node order as :meth:`RTree.nodes`."""
    flat = RTreeArrays(tree)
    sa = surface_areas(flat.lo, flat.hi)
    root_sa = max(sa[0].item(), _EPS)
    sah = _fold_sum(sa / root_sa * flat.width * _C_INTERSECT)
    overlaps = _sibling_overlaps(flat, sa)
    overlap = sum(overlaps) / max(1, len(overlaps))
    fills = (flat.width / tree.max_entries).tolist()
    n = max(1, len(tree))
    ideal_height = 1 + max(0, math.ceil(
        math.log(max(2, n)) / math.log(max(2, tree.max_entries)))) - 1
    return {
        "sah_cost": sah,
        "overlap": overlap,
        "fill_factor": sum(fills) / max(1, len(fills)),
        "depth_skew": tree.height() / max(1, ideal_height),
        "decay": sah * (1.0 + overlap),
        "nodes": float(len(flat.nodes)),
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
    nodes = tree.nodes()
    leaves = [n for n in nodes if n.is_leaf]
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
        "nodes": float(len(nodes)),
        "items": float(n_live),
    }


#: Metric keys every quality dict carries, canonical export order.
QUALITY_KEYS = ("sah_cost", "overlap", "fill_factor", "depth_skew",
                "decay", "nodes", "items")
