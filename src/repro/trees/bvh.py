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
column min/max of its segment, written straight into the tree's
:class:`BVHArrays` view, which holds every box and leaf slice (a node
object holds only its children, address and view row); a split sorts the segment (stably) by
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


def _list_mirror(slot: str, column: str) -> property:
    """A view property: ``column`` as a list, kept in ``slot`` from its
    first read."""
    def read(self) -> list:
        value = getattr(self, slot)
        if value is None:
            value = getattr(self, column).tolist()
            setattr(self, slot, value)
        return value
    return property(read, doc=f"``{column}`` as a list, built on first "
                              f"read.")


#: list mirror slot -> the columns whose replacement drops it
_MIRRORS = {"_first_list": ("first_prim",), "_count_list": ("prim_count",),
            "_prim_id_list": ("prim_ids",), "_boxes": ("lo", "hi")}


class BVHArrays:
    """Struct-of-arrays view of a BVH: the only store of its boxes and
    leaf slices.

    Nodes appear in DFS order (the order :meth:`BVH.nodes` lists, which
    is also the memory-image layout order), primitives in
    ``_prim_order`` order so ``prim k`` here is the k-th primitive a
    leaf's ``[first_prim, first_prim + prim_count)`` slice touches.  A
    node object holds its children and address; its box and slice are
    the view's rows at ``node.row``.  The numpy columns feed the batch
    kernels in :mod:`repro.geometry.batch`; the plain-list mirrors keep
    scalar DFS loops free of per-element numpy indexing overhead.
    ``left_list``/``right_list`` are made with the view; ``first_list``,
    ``count_list``, ``prim_id_list`` and the ``boxes`` of the scalar ray
    traversals are built on first read, so a write pays for none.

    The build makes the first view; the online writes, which never
    restructure the tree, derive each next view from the last one
    (:meth:`derive`).  The node list and the structural columns
    (``left``/``right``, ``parent``, ``leaves``, ``levels``) are then
    shared, the changed columns are fresh copies, and no column is ever
    written after its view is made.
    """

    __slots__ = (
        "nodes", "lo", "hi", "left", "right", "first_prim", "prim_count",
        "left_list", "right_list", "parent", "leaves", "levels",
        "prim_ids", "prim_lo", "prim_hi", "prim_kind",
        "centers", "radii", "v0", "v1", "v2",
        "_first_list", "_count_list", "_prim_id_list", "_boxes",
    )

    def __init__(self, nodes: List["BVHNode"], lo: np.ndarray,
                 hi: np.ndarray, left: np.ndarray, right: np.ndarray,
                 first_prim: np.ndarray, prim_count: np.ndarray,
                 prims: Dict[str, object]):
        self.nodes = nodes
        self.lo, self.hi = lo, hi
        self.left, self.right = left, right
        self.first_prim, self.prim_count = first_prim, prim_count
        self.left_list, self.right_list = left.tolist(), right.tolist()
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
        for name, column in prims.items():
            setattr(self, name, column)
        self._first_list = self._count_list = None
        self._prim_id_list = self._boxes = None

    def derive(self, **columns) -> "BVHArrays":
        """A new view with ``columns`` replaced and every other one
        shared; the mirrors of replaced columns are dropped."""
        view = object.__new__(BVHArrays)
        for name in self.__slots__:
            setattr(view, name, columns.get(name, getattr(self, name)))
        for mirror, sources in _MIRRORS.items():
            if not columns.keys().isdisjoint(sources):
                setattr(view, mirror, None)
        return view

    def edit_prims(self, bvh: "BVH", pos: int,
                   rows: Optional[Dict[str, object]] = None,
                   insert: bool = False) -> Dict[str, object]:
        """The primitive columns after a write at slice position ``pos``
        of ``bvh``'s primitive order: a primitive's ``rows``
        (:func:`_prim_rows`) inserted there (``insert``) or put in place
        of the old entry, or without ``rows`` the entry deleted.  Rows
        are edited; the kind columns are re-packed from ``bvh``'s live
        primitives when their kind could change."""
        names = ("prim_ids", "prim_lo", "prim_hi")
        kind = _KIND_COLUMNS.get(self.prim_kind, ())
        if self.prim_kind is not None and (
                self.n_prims > 1 if rows is None
                else rows.keys() >= set(kind)):
            names += kind
            columns = {}
        else:
            columns = _kind_columns([bvh.primitives[i]
                                     for i in bvh._prim_order])
        for name in names:
            column = getattr(self, name)
            if rows is None:
                columns[name] = np.delete(column, pos, axis=0)
            elif insert:
                columns[name] = np.insert(column, pos, rows[name], axis=0)
            else:
                columns[name] = column.copy()
                columns[name][pos] = rows[name]
        return columns

    first_list = _list_mirror("_first_list", "first_prim")
    count_list = _list_mirror("_count_list", "prim_count")
    prim_id_list = _list_mirror("_prim_id_list", "prim_ids")

    @property
    def boxes(self) -> List[AABB]:
        """Each node's box as an :class:`AABB`, for the scalar ray
        traversals; built on first read, so only the static scenes
        traversed that way hold them."""
        if self._boxes is None:
            self._boxes = [AABB(Vec3(*l), Vec3(*h)) for l, h in
                           zip(self.lo.tolist(), self.hi.tolist())]
        return self._boxes

    def box(self, row: int) -> AABB:
        """Node ``row``'s box as an :class:`AABB`."""
        return AABB(Vec3(*self.lo[row].tolist()),
                    Vec3(*self.hi[row].tolist()))

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


def _kind_columns(prims: Sequence) -> Dict[str, object]:
    """``prim_kind`` and the kind columns of ``prims``: centers and
    radii when all are spheres, vertices when all are triangles."""
    columns: Dict[str, object] = dict.fromkeys(
        ("centers", "radii", "v0", "v1", "v2"))
    # Lists, not generators: no Python frame resumes per primitive.
    if all([isinstance(p, Sphere) for p in prims]):
        columns["prim_kind"] = "sphere"
        centers, columns["radii"] = spheres_soa(prims)
        columns["centers"] = centers.reshape(-1, 3)
    elif all([isinstance(p, Triangle) for p in prims]):
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
    """Binary BVH node: its children, its memory-image address, and its
    ``row`` in the tree's :class:`BVHArrays` view, which holds its box
    and, at a leaf, its primitive slice."""

    __slots__ = ("left", "right", "address", "row")

    def __init__(self, row: int):
        self.left: Optional["BVHNode"] = None
        self.right: Optional["BVHNode"] = None
        self.address = -1
        self.row = row

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def children(self) -> List["BVHNode"]:
        return [] if self.is_leaf else [self.left, self.right]

    def __repr__(self) -> str:
        return f"BVHNode({'leaf' if self.is_leaf else 'inner'}, " \
               f"row={self.row})"


def _link_nodes(nodes: List[BVHNode], left: Sequence[int],
                right: Sequence[int]) -> None:
    """Give each inner node of ``nodes`` (DFS rows) its children."""
    for node, l, r in zip(nodes, left, right):
        if l >= 0:
            node.left, node.right = nodes[l], nodes[r]


def surface_areas(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:meth:`AABB.surface_area` of each ``(lo, hi)`` row pair."""
    e = hi - lo
    ex, ey, ez = e[..., 0], e[..., 1], e[..., 2]
    area = 2.0 * (ex * ey + ey * ez + ez * ex)
    area[(ex < 0) | (ey < 0) | (ez < 0)] = 0.0
    return area


def _build_levels(lo: np.ndarray, hi: np.ndarray, max_leaf_size: int,
                  sah: bool) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """Top-down median/SAH construction, one tree level at a time.

    ``lo``/``hi`` are the ``(N, 3)`` primitive bounds; they are permuted
    in place in step with the returned order, so each open segment of a
    level is a run of contiguous rows and, at the end, row ``k`` is the
    box of the ``k``-th primitive in slice order.  Each level boxes all
    its segments with :func:`fold_extremes`, sorts the rows of every
    segment that splits with one stable ``lexsort`` keyed by (segment,
    centroid on the segment's longest axis), and picks all its cuts at
    once (:func:`_sah_cuts`).  Returns the primitive order and the node
    columns in DFS order (:func:`_dfs_columns`).
    """
    order = np.arange(len(lo))
    first = np.zeros(1, dtype=np.intp)
    count = np.array([len(lo)], dtype=np.intp)
    levels = []
    while len(first):
        box_lo = fold_extremes(lo, first, first + count, lower=True)
        box_hi = fold_extremes(hi, first, first + count, lower=False)
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
        levels.append((box_lo, box_hi, np.where(split, 0, first),
                       np.where(split, 0, count), split))
        first, count, cut = first[split], count[split], cut[split]
        first = np.column_stack((first, first + cut)).ravel()
        count = np.column_stack((cut, count - cut)).ravel()
    return order, _dfs_columns(levels)


def _dfs_columns(levels: list) -> Tuple[np.ndarray, ...]:
    """``(lo, hi, left, right, first_prim, prim_count)`` node columns in
    DFS order from the build's per-level ``(box_lo, box_hi, first,
    count, split)``.

    In breadth-first numbering the ``k``-th inner node's children are
    nodes ``2k + 1`` and ``2k + 2``.  Subtree sizes, summed deepest
    level first, then place each left child just after its parent and
    each right child after the left child's subtree.
    """
    split = np.concatenate([level[4] for level in levels])
    n = len(split)
    inner = np.flatnonzero(split)
    kids = 1 + 2 * np.arange(len(inner))
    # ``inner[cuts[d]:cuts[d + 1]]``: the inner nodes of level ``d``.
    ends = np.cumsum([len(level[4]) for level in levels])
    cuts = np.searchsorted(inner, np.concatenate(([0], ends)))
    size = np.ones(n, dtype=np.intp)
    for d in reversed(range(len(levels))):
        at = slice(cuts[d], cuts[d + 1])
        size[inner[at]] += size[kids[at]] + size[kids[at] + 1]
    row = np.zeros(n, dtype=np.intp)
    for d in range(len(levels)):
        at = slice(cuts[d], cuts[d + 1])
        row[kids[at]] = row[inner[at]] + 1
        row[kids[at] + 1] = row[kids[at]] + size[kids[at]]
    lo, hi = np.empty((n, 3)), np.empty((n, 3))
    lo[row] = np.concatenate([level[0] for level in levels])
    hi[row] = np.concatenate([level[1] for level in levels])
    left, right = np.full(n, -1, np.int32), np.full(n, -1, np.int32)
    left[row[inner]] = row[kids]
    right[row[inner]] = row[kids + 1]
    first, count = np.empty(n, np.int32), np.empty(n, np.int32)
    first[row] = np.concatenate([level[2] for level in levels])
    count[row] = np.concatenate([level[3] for level in levels])
    return lo, hi, left, right, first, count


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
    plug straight in.  The boxes and leaf slices live in the
    :class:`BVHArrays` view the build installs (:meth:`soa`).
    """

    def __init__(self, primitives: Sequence, max_leaf_size: int = 2,
                 method: str = "median"):
        if not primitives:
            raise ConfigurationError("cannot build a BVH with no primitives")
        if method not in ("median", "sah"):
            raise ConfigurationError(f"unknown BVH build method {method!r}")
        self.primitives = list(primitives)
        self.max_leaf_size = max_leaf_size
        kind = _kind_columns(self.primitives)
        # Sphere and triangle boxes computed on the kind columns are
        # bit-identical to their ``bounds()`` and build no box objects.
        if kind["prim_kind"] == "sphere":
            centers, radii = kind["centers"], kind["radii"][:, None]
            lo, hi = centers - radii, centers + radii
        elif kind["prim_kind"] == "triangle":
            v0, v1, v2 = kind["v0"], kind["v1"], kind["v2"]
            lo = first_min(first_min(v0, v1), v2)
            hi = first_max(first_max(v0, v1), v2)
        else:
            lo, hi = aabbs_soa([p.bounds() for p in self.primitives])
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ConfigurationError(
                "BVH primitive bounds must be finite (NaN or inf found)")
        # The build leaves lo/hi in slice order: the primitive columns.
        order, nodes = _build_levels(lo, hi, max_leaf_size,
                                     sah=method == "sah")
        self._prim_order = order.tolist()
        self.node_count = len(nodes[0])
        prims = {name: column if name == "prim_kind" or column is None
                 else column[order] for name, column in kind.items()}
        prims.update(prim_lo=lo, prim_hi=hi, prim_ids=np.array(
            [self.primitives[i].prim_id for i in self._prim_order],
            dtype=np.int64))
        self._soa = soa = BVHArrays(
            [BVHNode(i) for i in range(self.node_count)], *nodes, prims)
        _link_nodes(soa.nodes, soa.left_list, soa.right_list)

    # -- online mutation --------------------------------------------------------
    #
    # The mutation paths keep results *exact* while letting quality
    # decay: bounds only ever grow (inserts union the path, deletes and
    # moves leave the old extents in place), so a conservative AABB can
    # cost extra visits but never miss a hit.  ``refit`` restores exact
    # bounds without restructuring; a full rebuild restores quality.
    # None of them restructures the tree, so each derives the next SoA
    # view from the current one and installs it.

    @staticmethod
    def _grow_rows(soa: BVHArrays, rows: Sequence[int], lo: np.ndarray,
                   hi: np.ndarray) -> Dict[str, np.ndarray]:
        """Copies of the view's ``lo``/``hi`` with the box ``lo``/``hi``
        unioned into node ``rows``, as :meth:`AABB.union` does it."""
        box_lo, box_hi = soa.lo.copy(), soa.hi.copy()
        box_lo[rows] = first_min(box_lo[rows], lo)
        box_hi[rows] = first_max(box_hi[rows], hi)
        return {"lo": box_lo, "hi": box_hi}

    def insert(self, prim) -> int:
        """Online insert: descend by least bound growth, append at a leaf.

        The leaf's primitive slice grows past ``max_leaf_size`` rather
        than splitting — exactly the decay mode per-frame RT pipelines
        accept between rebuilds.  Only the leaves after the target in
        slice order shift, so an empty leaf ahead of an empty target
        keeps its place.  Returns the number of nodes touched (the
        descent path), which the mutation cost model charges.
        """
        soa = self._soa
        rows = _prim_rows(prim)
        lo, hi = np.array(rows["prim_lo"]), np.array(rows["prim_hi"])
        left, right = soa.left_list, soa.right_list
        leaf, path = 0, []
        while left[leaf] >= 0:
            path.append(leaf)
            kids = [left[leaf], right[leaf]]
            kid_lo, kid_hi = soa.lo[kids], soa.hi[kids]
            grow = (surface_areas(first_min(kid_lo, lo),
                                  first_max(kid_hi, hi))
                    - surface_areas(kid_lo, kid_hi)).tolist()
            leaf = kids[0] if grow[0] <= grow[1] else kids[1]
        path.append(leaf)
        pos = soa.first_prim[leaf].item() + soa.prim_count[leaf].item()
        self._prim_order.insert(pos, len(self.primitives))
        self.primitives.append(prim)
        self._soa = soa.derive(
            **self._grow_rows(soa, path, lo, hi),
            **self._shift_slices(soa, leaf, +1),
            **soa.edit_prims(self, pos, rows, insert=True))
        return len(path)

    def remove(self, prim_id: int) -> int:
        """Online delete: drop the primitive from its leaf's slice.

        The primitive stays in ``primitives`` as an unreachable
        tombstone (slice indexes stay stable); bounds are left loose.
        Returns the number of nodes touched.
        """
        soa = self._soa
        pos = soa.slice_pos(prim_id)
        self._prim_order.pop(pos)
        self._soa = soa.derive(
            **self._shift_slices(soa, soa.leaf_at(pos), -1),
            **soa.edit_prims(self, pos))
        return 1

    def update(self, prim_id: int, prim) -> int:
        """Online update: replace a live primitive in place.

        The slot keeps its position in the leaf; path bounds are grown
        to cover the new extent while the old extent stays covered
        (conservative, so results remain exact until the next refit).
        """
        soa = self._soa
        pos = soa.slice_pos(prim_id)
        self.primitives[self._prim_order[pos]] = prim
        rows = _prim_rows(prim)
        path = soa.path_to(soa.leaf_at(pos))
        self._soa = soa.derive(
            **self._grow_rows(soa, path, np.array(rows["prim_lo"]),
                              np.array(rows["prim_hi"])),
            **soa.edit_prims(self, pos, rows))
        return len(path)

    @staticmethod
    def _shift_slices(soa: BVHArrays, leaf: int,
                      delta: int) -> Dict[str, np.ndarray]:
        """Grow (or shrink) ``leaf``'s slice by ``delta`` and move the
        slices of the leaves after it in slice order to match."""
        first, count = soa.first_prim.copy(), soa.prim_count.copy()
        first[soa.leaves_after(leaf)] += delta
        count[leaf] += delta
        return {"first_prim": first, "prim_count": count}

    def refit(self) -> int:
        """Recompute exact bounds bottom-up without restructuring.

        This is the per-frame BVH refit of the RT pipelines, as one
        array pass: each leaf box is the column min/max of its slice of
        the primitive bounds (the empty box for an empty leaf), then
        each inner level, deepest first, takes the box of its two
        children.  Both follow :meth:`AABB.union`'s rules, so the bits
        match a scalar fold of ``union``.  Returns the number of nodes
        touched — the quantity the cycle model charges.
        """
        soa = self._soa
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
        self._soa = soa.derive(lo=lo, hi=hi)
        return soa.n_nodes

    def live_prims(self) -> List:
        """The primitives still reachable from a leaf slice, in slice
        order."""
        return [self.primitives[i] for i in self._prim_order]

    def live_prim_ids(self) -> List[int]:
        """The prim_ids still reachable from a leaf slice."""
        return [prim.prim_id for prim in self.live_prims()]

    def fork(self, memo: dict) -> "BVH":
        """A twin that writes cannot reach through: every node and the
        primitive and order lists are copied, primitives are shared.
        The SoA view carries over on the twins, its columns shared
        (writes derive new ones).  ``memo`` gains ``id(node) -> twin``
        for each node."""
        soa = self._soa
        twins = []
        for node in soa.nodes:
            twin = memo[id(node)] = BVHNode(node.row)
            twin.address = node.address
            twins.append(twin)
        _link_nodes(twins, soa.left_list, soa.right_list)
        tree = copy.copy(self)
        tree.primitives = list(self.primitives)
        tree._prim_order = list(self._prim_order)
        tree._soa = soa.derive(nodes=twins)
        return tree

    # -- access ---------------------------------------------------------------
    def soa(self) -> BVHArrays:
        """The struct-of-arrays view: the tree's boxes, slices and
        primitive columns.  The build installs it and every online
        write installs the one it derives, so it is never stale.
        Callers in the kernels/workloads feed its columns to the batch
        geometry tests instead of walking ``BVHNode`` objects."""
        return self._soa

    @property
    def root(self) -> BVHNode:
        return self._soa.nodes[0]

    def nodes(self) -> List[BVHNode]:
        """All nodes in DFS order (the serialization order real builders emit)."""
        return list(self._soa.nodes)

    def depth(self) -> int:
        return self._soa.depth

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
        soa = self._soa
        nodes, boxes = soa.nodes, soa.boxes
        left, right = soa.left_list, soa.right_list
        first, count = soa.first_list, soa.count_list
        prims, order = self.primitives, self._prim_order
        visits: List[VisitEvent] = []
        all_hits: List[int] = []
        closest_t, closest_prim = ray.tmax, None
        tmax = ray.tmax
        # The ray with [tmin, tmax] clipping applied.  Rebuilding a Ray
        # is deterministic, so one shared object reused until tmax
        # actually shrinks is bit-identical to a fresh clip per test —
        # and keeps the hot loop allocation-free outside "closest" hits.
        clipped = ray
        stack = [0]
        while stack:
            i = stack.pop()
            if left[i] < 0:
                leaf_hit = False
                for k in range(first[i], first[i] + count[i]):
                    prim = prims[order[k]]
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
                visits.append(VisitEvent(nodes[i], "leaf", count[i], leaf_hit))
                if mode == "any" and leaf_hit:
                    break
            else:
                span = ray_aabb_intersect(clipped, boxes[i])
                visits.append(VisitEvent(nodes[i], "inner", 1, span is not None))
                if span is not None:
                    stack.append(right[i])
                    stack.append(left[i])
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
        b = self.blas.soa().box(0)
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
        soa = self.tlas.soa()
        nodes, boxes = soa.nodes, soa.boxes
        left, right = soa.left_list, soa.right_list
        first, count = soa.first_list, soa.count_list
        instances, order = self.tlas.primitives, self.tlas._prim_order
        tlas_visits: List[VisitEvent] = []
        blas_visits: List[VisitEvent] = []
        xforms = 0
        best: Optional[TwoLevelHit] = None
        tmax = ray.tmax
        # The original clips once per *node*: a shrink while visiting a
        # leaf's instances must not affect later instances of the same
        # leaf, so the rebuild happens here rather than at the shrink.
        clipped, clip_tmax = ray, tmax
        stack = [0]
        while stack:
            i = stack.pop()
            if tmax != clip_tmax:
                clipped = Ray(ray.origin, ray.direction, ray.tmin, tmax)
                clip_tmax = tmax
            span = ray_aabb_intersect(clipped, boxes[i])
            if left[i] < 0:
                tlas_visits.append(VisitEvent(nodes[i], "leaf", 1,
                                              span is not None))
                if span is None:
                    continue
                for k in range(first[i], first[i] + count[i]):
                    instance = instances[order[k]]
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
                tlas_visits.append(VisitEvent(nodes[i], "inner", 1,
                                              span is not None))
                if span is not None:
                    stack.append(right[i])
                    stack.append(left[i])
        return TwoLevelResult(best, tuple(tlas_visits), tuple(blas_visits), xforms)
