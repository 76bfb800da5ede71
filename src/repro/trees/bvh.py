"""Bounding Volume Hierarchies: builders, traversal, two-level structures.

The BVH here plays the role of the acceleration structure the RTA
hardware traverses (Algorithm 3 / Fig. 3): binary inner nodes with
AABBs, primitives (triangles, spheres, or point-AABBs for RTNN) at the
leaves.  ``traverse`` implements the while-while loop and returns both
the functional hit and a visit trace that the timing models replay.

Two-level structures (:class:`TwoLevelBVH`) model the TLAS/BLAS split
used by *RTNN, *WKND_PT and LumiBench in Table III, where crossing from
the top level into an instance costs an R-XFORM µop.

Construction packs the primitive bounds once into ``(N, 3)`` arrays and
splits top-down, one tree level at a time: every open segment of a
level is handled by the same few numpy passes, so the Python cost
grows with the depth, not the node count.  Each node's box is the
column min/max of its segment; a split sorts the segment (stably) by
centroid along the box's longest axis.  ``median`` splits at the
middle; ``sah`` scores the 11 equal-count splits at ``k/12`` of the
sorted segment — there are no spatial bins — from the boxes of its 12
chunks, accumulated from each end, and takes the cheapest if it beats
the leaf cost, else the median.  The trees are bit-identical to those
of a scalar fold of ``AABB.union`` and of the earlier recursive array
builder (both kept in the tests as references), which fixes these
rules:

* first zero wins: when a box extreme is zero, the first ``0.0`` or
  ``-0.0`` in primitive order is kept, as Python's ``min``/``max`` do;
* same arithmetic: the sort key is ``(lo + hi) * 0.5``, surface area is
  ``2 * (ex*ey + ey*ez + ez*ex)`` (0 if an extent is negative), and a
  split costs ``sa_left * n_left + sa_right * n_right``;
* same selection: splits at the segment ends are skipped, the first
  minimum wins and must be strictly below the leaf cost, and an axis
  extent under ``1e-12`` takes the median split;
* bounds must be finite: list sort and ``argsort`` order NaN keys
  differently, so NaN or infinite bounds are rejected.
"""

import copy
import math
from itertools import compress
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.aabb import AABB
from repro.geometry.batch import aabbs_soa, spheres_soa, triangles_soa
from repro.geometry.intersect import ray_aabb_intersect
from repro.geometry.ray import Ray
from repro.geometry.sphere import Sphere
from repro.geometry.triangle import Triangle
from repro.geometry.vec import Vec3

_SAH_BINS = 12


class BVHArrays:
    """Struct-of-arrays view of a BVH, one per mutation epoch.

    Nodes appear in DFS order (the order :meth:`BVH.nodes` serializes,
    which is also the memory-image layout order), primitives in
    ``_prim_order`` order so ``prim k`` here is the k-th primitive a
    leaf's ``[first_prim, first_prim + prim_count)`` slice touches.
    The numpy columns feed the batch kernels in
    :mod:`repro.geometry.batch`; the plain-list mirrors keep scalar DFS
    loops free of per-element numpy indexing overhead.

    A view is packed from the tree once; the online writes, which never
    restructure the tree, derive the next epoch's view from the last
    one (:meth:`derive`).  The node list and the structural columns
    (``left``/``right``, ``parent``, ``leaves``, ``levels``) are then
    shared, the changed columns are fresh copies, and no view is ever
    written after it is made.
    """

    __slots__ = (
        "nodes", "lo", "hi", "left", "right", "first_prim", "prim_count",
        "left_list", "right_list", "first_list", "count_list",
        "parent", "leaves", "levels",
        "prim_ids", "prim_id_list", "prim_lo", "prim_hi", "prim_kind",
        "centers", "radii", "v0", "v1", "v2",
    )

    def __init__(self, bvh: "BVH"):
        self.nodes = bvh.nodes()
        index_of = {id(node): i for i, node in enumerate(self.nodes)}
        self.lo, self.hi = box_columns([node.bounds for node in self.nodes])
        self.left_list = [-1 if n.is_leaf else index_of[id(n.left)]
                          for n in self.nodes]
        self.right_list = [-1 if n.is_leaf else index_of[id(n.right)]
                           for n in self.nodes]
        self.first_list = [n.first_prim for n in self.nodes]
        self.count_list = [n.prim_count for n in self.nodes]
        self.left = np.array(self.left_list, dtype=np.int32)
        self.right = np.array(self.right_list, dtype=np.int32)
        self.first_prim = np.array(self.first_list, dtype=np.int32)
        self.prim_count = np.array(self.count_list, dtype=np.int32)

        inner = np.flatnonzero(self.left >= 0)
        self.leaves = np.flatnonzero(self.left < 0)
        self.parent = np.full(len(self.nodes), -1, dtype=np.int32)
        self.parent[self.left[inner]] = inner
        self.parent[self.right[inner]] = inner
        #: inner node indexes by depth, root level first
        self.levels: List[np.ndarray] = []
        frontier = np.zeros(1, dtype=np.intp)
        while True:
            frontier = frontier[self.left[frontier] >= 0]
            if not len(frontier):
                break
            self.levels.append(frontier)
            frontier = np.concatenate((self.left[frontier],
                                       self.right[frontier]))
        for name, column in _prim_columns(bvh).items():
            setattr(self, name, column)

    def derive(self, **columns) -> "BVHArrays":
        """A new view with ``columns`` replaced and every other one
        shared; ``first_prim``/``prim_count`` bring their list mirrors."""
        view = object.__new__(BVHArrays)
        for name in self.__slots__:
            setattr(view, name, columns.get(name, getattr(self, name)))
        if "first_prim" in columns:
            view.first_list = view.first_prim.tolist()
        if "prim_count" in columns:
            view.count_list = view.prim_count.tolist()
        return view

    def edit_prims(self, bvh: "BVH", pos: int, prim=None,
                   insert: bool = False) -> Dict[str, object]:
        """The primitive columns after a write at slice position ``pos``
        of ``bvh``'s primitive order: ``prim`` inserted there
        (``insert``) or put in place of the old entry, or without
        ``prim`` the entry deleted.  The columns are re-packed from
        ``bvh`` when their kind could change."""
        names = ("prim_ids", "prim_lo", "prim_hi") \
            + _KIND_COLUMNS.get(self.prim_kind, ())
        rows = None if prim is None else _prim_rows(prim)
        if self.prim_kind is None or (rows is None and self.n_prims == 1) \
                or (rows is not None and not rows.keys() >= set(names)):
            return _prim_columns(bvh)
        columns = {}
        for name in names:
            column = getattr(self, name)
            if rows is None:
                columns[name] = np.delete(column, pos, axis=0)
            elif insert:
                columns[name] = np.insert(column, pos, rows[name], axis=0)
            else:
                columns[name] = column.copy()
                columns[name][pos] = rows[name]
        columns["prim_id_list"] = columns["prim_ids"].tolist()
        return columns

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_prims(self) -> int:
        return len(self.prim_ids)

    @property
    def depth(self) -> int:
        """:meth:`BVH.depth`: the children of the deepest inner level
        are all leaves."""
        return len(self.levels) + 1

    def slice_pos(self, prim_id: int) -> int:
        """Slice position of live primitive ``prim_id``."""
        hits = np.flatnonzero(self.prim_ids == prim_id)
        if not len(hits):
            raise KeyError(f"prim_id {prim_id} not live in BVH")
        return int(hits[0])

    def leaf_at(self, pos: int) -> int:
        """Index of the leaf whose slice holds slice position ``pos``."""
        first = self.first_prim[self.leaves]
        holds = (first <= pos) & (pos < first + self.prim_count[self.leaves])
        return int(self.leaves[np.argmax(holds)])

    def leaves_after(self, leaf: int) -> np.ndarray:
        """The leaves after ``leaf`` in slice order (DFS order)."""
        return self.leaves[np.searchsorted(self.leaves, leaf, side="right"):]

    def path_to(self, node: int) -> List[int]:
        """Node indexes from the root down to ``node``."""
        path = [node]
        while self.parent[path[-1]] >= 0:
            path.append(int(self.parent[path[-1]]))
        return path[::-1]


def box_columns(boxes: Sequence[AABB]) -> Tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` columns of ``boxes``, shape ``(N, 3)`` even when
    empty; one flat float list is much cheaper to convert than rows."""
    flat = np.array([c for b in boxes for c in (b.lo.x, b.lo.y, b.lo.z,
                                                 b.hi.x, b.hi.y, b.hi.z)],
                    dtype=np.float64).reshape(-1, 6)
    return np.ascontiguousarray(flat[:, :3]), np.ascontiguousarray(flat[:, 3:])


def changed_boxes(old_lo: np.ndarray, old_hi: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray) -> List[Tuple[int, AABB]]:
    """``(row, box)`` for each row whose ``lo``/``hi`` bits differ."""
    changed = ((lo.view(np.int64) != old_lo.view(np.int64))
               | (hi.view(np.int64) != old_hi.view(np.int64))).any(axis=1)
    rows = np.flatnonzero(changed)
    return [(i, AABB(Vec3(*l), Vec3(*h))) for i, l, h in
            zip(rows.tolist(), lo[rows].tolist(), hi[rows].tolist())]


def fold_extremes(rows: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                  lower: bool) -> np.ndarray:
    """Per-segment column min (``lower``) or max of ``rows[s:e]``.

    Matches a left fold of Python ``min``/``max`` from the empty box,
    as :meth:`AABB.union` does it: an empty segment gives ``inf`` (min)
    or ``-inf`` (max), NaN entries are skipped, and when the extreme is
    zero the first ``0.0``/``-0.0`` in row order wins.
    """
    fill = np.inf if lower else -np.inf
    out = np.full((len(starts), rows.shape[1]), fill)
    live = ends > starts
    if not live.any():
        return out
    s, e = starts[live], ends[live]
    # Interleaved (start, end) marks reduce each segment and each gap;
    # the extra row keeps the last end mark a valid index.
    padded = np.concatenate((rows, rows[:1]))
    marks = np.column_stack((s, e)).ravel()
    reduce = np.fmin if lower else np.fmax
    ext = reduce.reduceat(padded, marks, axis=0)[::2]
    ext[np.isnan(ext)] = fill
    zero = ext == 0.0
    if zero.any():
        n = len(rows)
        at = np.where(rows == 0.0, np.arange(n)[:, None], n)
        next_zero = np.minimum.accumulate(at[::-1], axis=0)[::-1]
        first = np.minimum(next_zero[s], n - 1)
        picked = np.take_along_axis(rows, first, axis=0)
        ext = np.where(zero, picked, ext)
    out[live] = ext
    return out


def first_min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Python ``min(a, b)`` per element: ``a`` unless ``b < a``."""
    return np.where(b < a, b, a)


def first_max(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Python ``max(a, b)`` per element: ``a`` unless ``b > a``."""
    return np.where(b > a, b, a)


_KIND_COLUMNS = {"sphere": ("centers", "radii"),
                 "triangle": ("v0", "v1", "v2")}


def bounds_columns(prims: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` columns of each primitive's ``bounds()``.

    A sphere's box is ``center ± radius``: computed on the packed
    columns it is bit-identical to :meth:`Sphere.bounds` and builds no
    per-primitive box.
    """
    # A list, not a generator: no Python frame resumes per primitive.
    if all([isinstance(p, Sphere) for p in prims]):
        centers, radii = spheres_soa(prims)
        radii = radii[:, None]
        return centers - radii, centers + radii
    return aabbs_soa([p.bounds() for p in prims])


def _prim_columns(bvh: "BVH") -> Dict[str, object]:
    """Every primitive column of a view, packed from ``bvh``."""
    order = bvh._prim_order
    prims = [bvh.primitives[i] for i in order]
    columns: Dict[str, object] = dict.fromkeys(
        ("centers", "radii", "v0", "v1", "v2"))
    if bvh._bounds is None:
        columns["prim_lo"] = bvh._bounds_lo[order]
        columns["prim_hi"] = bvh._bounds_hi[order]
    else:
        columns["prim_lo"], columns["prim_hi"] = box_columns(
            [bvh._bounds[i] for i in order])
    columns["prim_id_list"] = [p.prim_id for p in prims]
    columns["prim_ids"] = np.array(columns["prim_id_list"], dtype=np.int64)
    if all(isinstance(p, Sphere) for p in prims):
        columns["prim_kind"] = "sphere"
        centers, columns["radii"] = spheres_soa(prims)
        columns["centers"] = centers.reshape(-1, 3)
    elif all(isinstance(p, Triangle) for p in prims):
        columns["prim_kind"] = "triangle"
        columns["v0"], columns["v1"], columns["v2"] = (
            v.reshape(-1, 3) for v in triangles_soa(prims))
    else:
        columns["prim_kind"] = None
    return columns


def _prim_rows(prim) -> Dict[str, object]:
    """``prim``'s row of each primitive column it has a value for."""
    bounds = prim.bounds()
    rows = {"prim_ids": prim.prim_id, "prim_lo": tuple(bounds.lo),
            "prim_hi": tuple(bounds.hi)}
    if isinstance(prim, Sphere):
        rows.update(centers=tuple(prim.center), radii=prim.radius)
    elif isinstance(prim, Triangle):
        rows.update(v0=tuple(prim.v0), v1=tuple(prim.v1), v2=tuple(prim.v2))
    return rows


class BVHNode:
    """Binary BVH node; leaves hold a slice of the primitive list."""

    __slots__ = ("bounds", "left", "right", "first_prim", "prim_count", "address")

    def __init__(self, bounds: AABB):
        self.bounds = bounds
        self.left: Optional["BVHNode"] = None
        self.right: Optional["BVHNode"] = None
        self.first_prim = 0
        self.prim_count = 0
        self.address = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def children(self) -> List["BVHNode"]:
        return [] if self.is_leaf else [self.left, self.right]

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"BVHNode(leaf, prims={self.prim_count})"
        return "BVHNode(inner)"


def surface_areas(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:meth:`AABB.surface_area` of each ``(lo, hi)`` row pair."""
    e = hi - lo
    ex, ey, ez = e[..., 0], e[..., 1], e[..., 2]
    area = 2.0 * (ex * ey + ey * ez + ez * ex)
    area[(ex < 0) | (ey < 0) | (ez < 0)] = 0.0
    return area


def _build_levels(lo: np.ndarray, hi: np.ndarray, max_leaf_size: int,
                  sah: bool) -> Tuple[BVHNode, np.ndarray, int]:
    """Top-down median/SAH construction, one tree level at a time.

    ``lo``/``hi`` are the ``(N, 3)`` primitive bounds, permuted in step
    with the returned order so each open segment of a level is a run of
    contiguous rows; the arrays live only for one build.  Each level
    boxes all its segments with :func:`fold_extremes`, sorts the rows of
    every segment that splits with one stable ``lexsort`` keyed by
    (segment, centroid on the segment's longest axis), and picks all
    its cuts at once (:func:`_sah_cuts`).  Returns the root, the
    primitive order and the node count.
    """
    order = np.arange(len(lo))
    first = np.zeros(1, dtype=np.intp)
    count = np.array([len(lo)], dtype=np.intp)
    root, parents, node_count = None, [], 0
    while len(first):
        box_lo = fold_extremes(lo, first, first + count, lower=True)
        box_hi = fold_extremes(hi, first, first + count, lower=False)
        nodes = [BVHNode(AABB(Vec3(*l), Vec3(*h)))
                 for l, h in zip(box_lo.tolist(), box_hi.tolist())]
        node_count += len(nodes)
        if root is None:
            root = nodes[0]
        for parent, left, right in zip(parents, nodes[::2], nodes[1::2]):
            parent.left, parent.right = left, right
        # AABB.longest_axis, ties to the lower axis.
        e = box_hi - box_lo
        axis = np.where((e[:, 0] >= e[:, 1]) & (e[:, 0] >= e[:, 2]), 0,
                        np.where(e[:, 1] >= e[:, 2], 1, 2))
        split = count > max_leaf_size
        if split.any():
            seg_first, seg_count = first[split], count[split]
            seg = np.repeat(np.arange(len(seg_first)), seg_count)
            rows = np.arange(len(seg)) + np.repeat(
                seg_first - (np.cumsum(seg_count) - seg_count), seg_count)
            on = np.repeat(axis[split], seg_count)
            key = (lo[rows, on] + hi[rows, on]) * 0.5
            moved = rows[np.lexsort((key, seg))]
            lo[rows], hi[rows], order[rows] = lo[moved], hi[moved], order[moved]
        cut = count // 2
        if sah:
            span = np.take_along_axis(e, axis[:, None], axis=1)[:, 0]
            scored = split & (span >= 1e-12)
            if scored.any():
                cut[scored] = _sah_cuts(
                    lo, hi, first[scored], count[scored], cut[scored],
                    count[scored] * surface_areas(box_lo[scored],
                                                  box_hi[scored]))
        split &= (cut > 0) & (cut < count)
        inner = split.tolist()
        for node, f, c, s in zip(nodes, first.tolist(), count.tolist(),
                                 inner):
            if not s:
                node.first_prim, node.prim_count = f, c
        parents = list(compress(nodes, inner))
        first, count, cut = first[split], count[split], cut[split]
        first = np.column_stack((first, first + cut)).ravel()
        count = np.column_stack((cut, count - cut)).ravel()
    return root, order, node_count


def _sah_cuts(lo: np.ndarray, hi: np.ndarray, first: np.ndarray,
              count: np.ndarray, median: np.ndarray,
              leaf_cost: np.ndarray) -> np.ndarray:
    """Per sorted segment, the offset of the best of its equal-count
    splits at ``k/12``, or ``median`` when none beats ``leaf_cost``.

    The boxes left and right of each split accumulate the boxes of the
    segment's 12 chunks.  Splits at the segment ends are skipped, and
    the first minimum wins, as in a strict ``<`` scan.
    """
    cuts = count[:, None] * np.arange(_SAH_BINS + 1) // _SAH_BINS
    starts = (first[:, None] + cuts[:, :-1]).ravel()
    ends = (first[:, None] + cuts[:, 1:]).ravel()
    shape = (len(first), _SAH_BINS, 3)
    chunk_lo = fold_extremes(lo, starts, ends, lower=True).reshape(shape)
    chunk_hi = fold_extremes(hi, starts, ends, lower=False).reshape(shape)
    left_lo = np.minimum.accumulate(chunk_lo, axis=1)[:, :-1]
    left_hi = np.maximum.accumulate(chunk_hi, axis=1)[:, :-1]
    right_lo = np.minimum.accumulate(chunk_lo[:, ::-1], axis=1)[:, -2::-1]
    right_hi = np.maximum.accumulate(chunk_hi[:, ::-1], axis=1)[:, -2::-1]
    left, right = surface_areas(np.stack((left_lo, right_lo)),
                                np.stack((left_hi, right_hi)))
    at = cuts[:, 1:-1]
    costs = left * at + right * (count[:, None] - at)
    # A NaN cost (0 * inf area terms) never wins a strict ``<`` scan,
    # and a NaN leaf cost loses to any finite split.
    costs[(at == 0) | ~(costs < np.inf)] = np.inf
    best = np.argmin(costs, axis=1)
    rows = np.arange(len(first))
    best_cost = costs[rows, best]
    wins = (best_cost < np.inf) & ~(best_cost >= leaf_cost)
    return np.where(wins, at[rows, best], median)


class VisitEvent(NamedTuple):
    """One step of a traversal: a node visit plus what was tested there."""

    node: BVHNode
    kind: str          # "inner" | "leaf"
    tests: int         # primitive tests performed at a leaf (1 for inner)
    hit: bool          # did the node/any primitive test pass


class TraversalResult(NamedTuple):
    closest_t: float
    closest_prim: Optional[int]
    all_hits: Tuple[int, ...]
    visits: Tuple[VisitEvent, ...]


class BVH:
    """A BVH over primitives that expose ``bounds()`` and ``prim_id``.

    ``intersector(ray, prim)`` must return ``None`` or an object with a
    ``t`` attribute — the triangle/sphere tests from :mod:`repro.geometry`
    plug straight in.
    """

    def __init__(self, primitives: Sequence, max_leaf_size: int = 2,
                 method: str = "median"):
        if not primitives:
            raise ConfigurationError("cannot build a BVH with no primitives")
        if method not in ("median", "sah"):
            raise ConfigurationError(f"unknown BVH build method {method!r}")
        self.primitives = list(primitives)
        self.max_leaf_size = max_leaf_size
        lo, hi = bounds_columns(self.primitives)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ConfigurationError(
                "BVH primitive bounds must be finite (NaN or inf found)")
        # Primitive bounds, in primitive order: these columns until the
        # write path first asks for boxes (:attr:`_prim_bounds`).
        self._bounds_lo, self._bounds_hi = lo, hi
        self._bounds: Optional[List[AABB]] = None
        self.root, order, self.node_count = _build_levels(
            lo.copy(), hi.copy(), max_leaf_size, sah=method == "sah")
        self._prim_order = order.tolist()
        self._soa: Optional[BVHArrays] = None
        #: bumped by every mutating operation; derived views (the SoA
        #: arrays, memory images, lowered jobs) key their validity on it.
        self.mutation_epoch = 0
        self._soa_epoch = 0

    @property
    def _prim_bounds(self) -> List[AABB]:
        """Each primitive's box, in primitive order, for the write path
        (``insert``, ``update``, ``fork``).  Unpacked from the build's
        columns on first use, which then drops them."""
        if self._bounds is None:
            self._bounds = [AABB(Vec3(*l), Vec3(*h)) for l, h in
                            zip(self._bounds_lo.tolist(),
                                self._bounds_hi.tolist())]
            self._bounds_lo = self._bounds_hi = None
        return self._bounds

    # -- online mutation --------------------------------------------------------
    #
    # The mutation paths keep results *exact* while letting quality
    # decay: bounds only ever grow (inserts union the path, deletes and
    # moves leave the old extents in place), so a conservative AABB can
    # cost extra visits but never miss a hit.  ``refit`` restores exact
    # bounds without restructuring; a full rebuild restores quality.
    # None of them restructures the tree, so each derives the next
    # epoch's SoA view from the current one instead of re-packing it.

    def _advance(self, view: BVHArrays) -> None:
        """Bump the epoch and install ``view`` as its SoA."""
        self.mutation_epoch = getattr(self, "mutation_epoch", 0) + 1
        self._soa, self._soa_epoch = view, self.mutation_epoch

    @staticmethod
    def _grow_rows(soa: BVHArrays, rows: Sequence[int],
                   bounds: AABB) -> Tuple[np.ndarray, np.ndarray]:
        """Union ``bounds`` into the boxes of node ``rows``; returns
        copies of the view's ``lo``/``hi`` with those rows updated."""
        lo, hi = soa.lo.copy(), soa.hi.copy()
        for i in rows:
            node = soa.nodes[i]
            node.bounds = b = node.bounds.union(bounds)
            lo[i] = (b.lo.x, b.lo.y, b.lo.z)
            hi[i] = (b.hi.x, b.hi.y, b.hi.z)
        return lo, hi

    def insert(self, prim) -> int:
        """Online insert: descend by least bound growth, append at a leaf.

        The leaf's primitive slice grows past ``max_leaf_size`` rather
        than splitting — exactly the decay mode per-frame RT pipelines
        accept between rebuilds.  Only the leaves after the target in
        slice order shift, so an empty leaf ahead of an empty target
        keeps its place.  Returns the number of nodes touched (the
        descent path), which the mutation cost model charges.
        """
        soa = self.soa()
        bounds = prim.bounds()
        nodes, left, right = soa.nodes, soa.left_list, soa.right_list
        leaf, path = 0, []
        while left[leaf] >= 0:
            path.append(leaf)
            node = nodes[leaf]
            grow_left = (node.left.bounds.union(bounds).surface_area()
                         - node.left.bounds.surface_area())
            grow_right = (node.right.bounds.union(bounds).surface_area()
                          - node.right.bounds.surface_area())
            leaf = left[leaf] if grow_left <= grow_right else right[leaf]
        path.append(leaf)
        pos = soa.first_list[leaf] + soa.count_list[leaf]
        self._prim_order.insert(pos, len(self.primitives))
        self.primitives.append(prim)
        self._prim_bounds.append(bounds)
        lo, hi = self._grow_rows(soa, path, bounds)
        self._advance(soa.derive(
            lo=lo, hi=hi, **self._shift_slices(soa, leaf, +1),
            **soa.edit_prims(self, pos, prim, insert=True)))
        return len(path)

    def remove(self, prim_id: int) -> int:
        """Online delete: drop the primitive from its leaf's slice.

        The primitive stays in ``primitives`` as an unreachable
        tombstone (slice indexes stay stable); bounds are left loose.
        Returns the number of nodes touched.
        """
        soa = self.soa()
        pos = soa.slice_pos(prim_id)
        self._prim_order.pop(pos)
        self._advance(soa.derive(
            **self._shift_slices(soa, soa.leaf_at(pos), -1),
            **soa.edit_prims(self, pos)))
        return 1

    def update(self, prim_id: int, prim) -> int:
        """Online update: replace a live primitive in place.

        The slot keeps its position in the leaf; path bounds are grown
        to cover the new extent while the old extent stays covered
        (conservative, so results remain exact until the next refit).
        """
        soa = self.soa()
        pos = soa.slice_pos(prim_id)
        prim_index = self._prim_order[pos]
        self.primitives[prim_index] = prim
        bounds = prim.bounds()
        self._prim_bounds[prim_index] = bounds
        path = soa.path_to(soa.leaf_at(pos))
        lo, hi = self._grow_rows(soa, path, bounds)
        self._advance(soa.derive(lo=lo, hi=hi,
                                 **soa.edit_prims(self, pos, prim)))
        return len(path)

    @staticmethod
    def _shift_slices(soa: BVHArrays, leaf: int,
                      delta: int) -> Dict[str, np.ndarray]:
        """Grow (or shrink) ``leaf``'s slice by ``delta`` and move the
        slices of the leaves after it in slice order to match."""
        first, count = soa.first_prim.copy(), soa.prim_count.copy()
        after = soa.leaves_after(leaf)
        first[after] += delta
        count[leaf] += delta
        soa.nodes[leaf].prim_count += delta
        for i in after.tolist():
            soa.nodes[i].first_prim += delta
        return {"first_prim": first, "prim_count": count}

    def refit(self) -> int:
        """Recompute exact bounds bottom-up without restructuring.

        This is the per-frame BVH refit of the RT pipelines, as one
        array pass: each leaf box is the column min/max of its slice of
        the primitive bounds (the empty box for an empty leaf), then
        each inner level, deepest first, takes the box of its two
        children.  Both follow :meth:`AABB.union`'s rules, so the bits
        match a scalar fold of ``union``.  Nodes whose box changed get
        a new ``bounds`` once.  Returns the number of nodes touched —
        the quantity the cycle model charges.
        """
        soa = self.soa()
        leaves = soa.leaves
        starts = soa.first_prim[leaves]
        ends = starts + soa.prim_count[leaves]
        lo, hi = np.empty_like(soa.lo), np.empty_like(soa.hi)
        lo[leaves] = fold_extremes(soa.prim_lo, starts, ends, lower=True)
        hi[leaves] = fold_extremes(soa.prim_hi, starts, ends, lower=False)
        for level in reversed(soa.levels):
            a, b = soa.left[level], soa.right[level]
            lo[level] = first_min(lo[a], lo[b])
            hi[level] = first_max(hi[a], hi[b])
        for i, box in changed_boxes(soa.lo, soa.hi, lo, hi):
            soa.nodes[i].bounds = box
        self._advance(soa.derive(lo=lo, hi=hi))
        return soa.n_nodes

    def live_prim_ids(self) -> List[int]:
        """The prim_ids still reachable from a leaf slice."""
        return [self.primitives[i].prim_id for i in self._prim_order]

    def fork(self, memo: dict) -> "BVH":
        """A twin that writes cannot reach through: every node and the
        primitive, bounds and order lists are copied, primitives and
        boxes are shared.  The current SoA view carries over on the
        twins, its columns shared (writes derive new ones).  ``memo``
        gains ``id(node) -> twin`` for each node."""
        soa = getattr(self, "_soa", None)
        if getattr(self, "_soa_epoch", 0) \
                != getattr(self, "mutation_epoch", 0):
            soa = None
        # The view lists the nodes in ``nodes()`` order.
        nodes = self.nodes() if soa is None else soa.nodes
        twins = []
        for node in nodes:
            twin = memo[id(node)] = BVHNode(node.bounds)
            twin.first_prim = node.first_prim
            twin.prim_count = node.prim_count
            twin.address = node.address
            twins.append(twin)
        for node, twin in zip(nodes, twins):
            if not node.is_leaf:
                twin.left = memo[id(node.left)]
                twin.right = memo[id(node.right)]
        bounds = list(self._prim_bounds)
        tree = copy.copy(self)
        tree.root = memo[id(self.root)]
        tree.primitives = list(self.primitives)
        tree._bounds = bounds
        tree._prim_order = list(self._prim_order)
        tree._soa = None if soa is None else soa.derive(nodes=twins)
        return tree

    # -- access ---------------------------------------------------------------
    def soa(self) -> BVHArrays:
        """The struct-of-arrays view of the current mutation epoch.

        Packed from the tree on first use (and after a rebuild, which
        makes a new tree); the online writes install the view they
        derive, so it is never stale.  Callers in the kernels/workloads
        feed its columns to the batch geometry tests instead of walking
        ``BVHNode`` objects scalar-style.
        """
        # getattr guards trees unpickled from caches written before
        # these attributes existed.
        epoch = getattr(self, "mutation_epoch", 0)
        if getattr(self, "_soa", None) is None \
                or getattr(self, "_soa_epoch", 0) != epoch:
            self._soa = BVHArrays(self)
            self._soa_epoch = epoch
        return self._soa

    def leaf_prims(self, node: BVHNode) -> List:
        return [self.primitives[self._prim_order[i]]
                for i in range(node.first_prim, node.first_prim + node.prim_count)]

    def nodes(self) -> List[BVHNode]:
        """All nodes in DFS order (the serialization order real builders emit)."""
        out: List[BVHNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        return out

    def depth(self) -> int:
        def rec(node: BVHNode) -> int:
            if node.is_leaf:
                return 1
            return 1 + max(rec(node.left), rec(node.right))
        return rec(self.root)

    # -- traversal --------------------------------------------------------------
    def traverse(self, ray: Ray, intersector: Callable,
                 mode: str = "closest") -> TraversalResult:
        """While-while stack traversal (Algorithm 3).

        ``mode`` is "closest" (shrink tmax to the nearest hit, as in path
        tracing), "any" (stop at the first hit, as in shadow rays), or
        "all" (collect every hit, as in radius search).
        """
        if mode not in ("closest", "any", "all"):
            raise ConfigurationError(f"unknown traversal mode {mode!r}")
        visits: List[VisitEvent] = []
        all_hits: List[int] = []
        closest_t, closest_prim = ray.tmax, None
        tmax = ray.tmax
        # The ray with [tmin, tmax] clipping applied.  Rebuilding a Ray
        # is deterministic, so one shared object reused until tmax
        # actually shrinks is bit-identical to a fresh clip per test —
        # and keeps the hot loop allocation-free outside "closest" hits.
        clipped = ray
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                leaf_hit = False
                for prim in self.leaf_prims(node):
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
                visits.append(VisitEvent(node, "leaf", node.prim_count, leaf_hit))
                if mode == "any" and leaf_hit:
                    break
            else:
                span = ray_aabb_intersect(clipped, node.bounds)
                visits.append(VisitEvent(node, "inner", 1, span is not None))
                if span is not None:
                    stack.append(node.right)
                    stack.append(node.left)
        if closest_prim is None:
            closest_t = math.inf
        return TraversalResult(closest_t, closest_prim,
                               tuple(all_hits), tuple(visits))


class Instance:
    """A BLAS reference with an object-to-world rigid transform.

    Only translation + uniform scale are modelled; that is all the
    procedural workloads need, and it keeps the R-XFORM functional model
    (world ray -> object ray) trivially invertible.
    """

    __slots__ = ("blas", "translation", "scale", "instance_id")

    def __init__(self, blas: BVH, translation: Vec3 = None,
                 scale: float = 1.0, instance_id: int = -1):
        if scale <= 0:
            raise ConfigurationError("instance scale must be positive")
        self.blas = blas
        self.translation = translation if translation is not None else Vec3()
        self.scale = scale
        self.instance_id = instance_id

    def bounds(self) -> AABB:
        b = self.blas.root.bounds
        return AABB(self._to_world(b.lo), self._to_world(b.hi))

    @property
    def prim_id(self) -> int:
        return self.instance_id

    def _to_world(self, p: Vec3) -> Vec3:
        return p * self.scale + self.translation

    def world_to_object(self, ray: Ray) -> Ray:
        """The functional model of the R-XFORM unit."""
        inv = 1.0 / self.scale
        origin = (ray.origin - self.translation) * inv
        return Ray(origin, ray.direction, ray.tmin * inv, ray.tmax * inv)

    def t_to_world(self, t_object: float) -> float:
        return t_object * self.scale


class TwoLevelHit(NamedTuple):
    t: float
    instance_id: int
    prim_id: int


class TwoLevelResult(NamedTuple):
    hit: Optional[TwoLevelHit]
    tlas_visits: Tuple[VisitEvent, ...]
    blas_visits: Tuple[VisitEvent, ...]
    xforms: int


class TwoLevelBVH:
    """TLAS over instances, each pointing into a BLAS.

    Crossing TLAS->BLAS requires one ray transform, which Table III
    accounts as an R-XFORM µop; the count is reported so the TTA+ timing
    model charges it.
    """

    def __init__(self, instances: Sequence[Instance]):
        if not instances:
            raise ConfigurationError("two-level BVH needs at least one instance")
        self.instances = list(instances)
        self.tlas = BVH(self.instances, max_leaf_size=1)

    def trace(self, ray: Ray, intersector: Callable) -> TwoLevelResult:
        tlas_visits: List[VisitEvent] = []
        blas_visits: List[VisitEvent] = []
        xforms = 0
        best: Optional[TwoLevelHit] = None
        tmax = ray.tmax
        # The original clips once per *node*: a shrink while visiting a
        # leaf's instances must not affect later instances of the same
        # leaf, so the rebuild happens here rather than at the shrink.
        clipped, clip_tmax = ray, tmax
        stack = [self.tlas.root]
        while stack:
            node = stack.pop()
            if tmax != clip_tmax:
                clipped = Ray(ray.origin, ray.direction, ray.tmin, tmax)
                clip_tmax = tmax
            span = ray_aabb_intersect(clipped, node.bounds)
            if node.is_leaf:
                tlas_visits.append(VisitEvent(node, "leaf", 1, span is not None))
                if span is None:
                    continue
                for instance in self.tlas.leaf_prims(node):
                    xforms += 1
                    object_ray = instance.world_to_object(clipped)
                    result = instance.blas.traverse(object_ray, intersector)
                    blas_visits.extend(result.visits)
                    if result.closest_prim is not None:
                        t_world = instance.t_to_world(result.closest_t)
                        if t_world < tmax:
                            tmax = t_world
                            best = TwoLevelHit(t_world, instance.instance_id,
                                               result.closest_prim)
            else:
                tlas_visits.append(VisitEvent(node, "inner", 1, span is not None))
                if span is not None:
                    stack.append(node.right)
                    stack.append(node.left)
        return TwoLevelResult(best, tuple(tlas_visits), tuple(blas_visits), xforms)
