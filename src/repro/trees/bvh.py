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
splits top-down.  Each node's box is the column min/max of its segment;
a split sorts the segment (stably) by centroid along the box's longest
axis.  ``median`` splits at the middle; ``sah`` scores the 11
equal-count splits at ``k/12`` of the sorted segment — there are no
spatial bins — from prefix/suffix min/max, and takes the cheapest if it
beats the leaf cost, else the median.  The trees are bit-identical to
those of a scalar fold of ``AABB.union`` (kept in the tests as the
reference), which fixes these rules:

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


def _prim_columns(bvh: "BVH") -> Dict[str, object]:
    """Every primitive column of a view, packed from ``bvh``."""
    order = bvh._prim_order
    prims = [bvh.primitives[i] for i in order]
    columns: Dict[str, object] = dict.fromkeys(
        ("centers", "radii", "v0", "v1", "v2"))
    columns["prim_lo"], columns["prim_hi"] = box_columns(
        [bvh._prim_bounds[i] for i in order])
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


def surface_areas(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:meth:`AABB.surface_area` of each ``(lo, hi)`` row pair."""
    e = hi - lo
    ex, ey, ez = e[..., 0], e[..., 1], e[..., 2]
    area = 2.0 * (ex * ey + ey * ez + ez * ex)
    area[(ex < 0) | (ey < 0) | (ez < 0)] = 0.0
    return area


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
        self._prim_bounds = [p.bounds() for p in self.primitives]
        lo, hi = aabbs_soa(self._prim_bounds)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ConfigurationError(
                "BVH primitive bounds must be finite (NaN or inf found)")
        builder = _ArrayBuilder(lo, hi, max_leaf_size, sah=method == "sah")
        self.root = builder.build(0, len(self.primitives))
        self._prim_order = builder.order.tolist()
        self.node_count = builder.node_count
        self._soa: Optional[BVHArrays] = None
        #: bumped by every mutating operation; derived views (the SoA
        #: arrays, memory images, lowered jobs) key their validity on it.
        self.mutation_epoch = 0
        self._soa_epoch = 0

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
