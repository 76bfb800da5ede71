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
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

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
    """Struct-of-arrays view of a BVH, materialized once per tree.

    Nodes appear in DFS order (the order :meth:`BVH.nodes` serializes,
    which is also the memory-image layout order), primitives in
    ``_prim_order`` order so ``prim k`` here is the k-th primitive a
    leaf's ``[first_prim, first_prim + prim_count)`` slice touches.
    The numpy columns feed the batch kernels in
    :mod:`repro.geometry.batch`; the plain-list mirrors keep scalar DFS
    loops free of per-element numpy indexing overhead.
    """

    __slots__ = (
        "nodes", "lo", "hi", "left", "right", "first_prim", "prim_count",
        "left_list", "right_list", "first_list", "count_list",
        "prim_ids", "prim_id_list", "prim_kind",
        "centers", "radii", "v0", "v1", "v2",
    )

    def __init__(self, bvh: "BVH"):
        self.nodes = bvh.nodes()
        index_of = {id(node): i for i, node in enumerate(self.nodes)}
        self.lo, self.hi = aabbs_soa([node.bounds for node in self.nodes])
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

        prims = [bvh.primitives[i] for i in bvh._prim_order]
        self.prim_id_list = [p.prim_id for p in prims]
        self.prim_ids = np.array(self.prim_id_list, dtype=np.int64)
        self.centers = self.radii = self.v0 = self.v1 = self.v2 = None
        if all(isinstance(p, Sphere) for p in prims):
            self.prim_kind = "sphere"
            self.centers, self.radii = spheres_soa(prims)
        elif all(isinstance(p, Triangle) for p in prims):
            self.prim_kind = "triangle"
            self.v0, self.v1, self.v2 = triangles_soa(prims)
        else:
            self.prim_kind = None

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_prims(self) -> int:
        return len(self.prim_ids)


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


def _surface_areas(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:meth:`AABB.surface_area` of each ``(lo, hi)`` row pair."""
    ex, ey, ez = (hi - lo).T
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
        left = _surface_areas(np.minimum.accumulate(lo)[at - 1],
                              np.maximum.accumulate(hi)[at - 1])
        right = _surface_areas(np.minimum.accumulate(lo[::-1])[::-1][at],
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

    def _invalidate(self) -> None:
        self.mutation_epoch = getattr(self, "mutation_epoch", 0) + 1
        self._soa = None

    def insert(self, prim) -> int:
        """Online insert: descend by least bound growth, append at a leaf.

        The leaf's primitive slice grows past ``max_leaf_size`` rather
        than splitting — exactly the decay mode per-frame RT pipelines
        accept between rebuilds.  Returns the number of nodes touched
        (the descent path), which the mutation cost model charges.
        """
        bounds = prim.bounds()
        node, path = self.root, []
        while not node.is_leaf:
            path.append(node)
            grow_left = (node.left.bounds.union(bounds).surface_area()
                         - node.left.bounds.surface_area())
            grow_right = (node.right.bounds.union(bounds).surface_area()
                          - node.right.bounds.surface_area())
            node = node.left if grow_left <= grow_right else node.right
        prim_index = len(self.primitives)
        self.primitives.append(prim)
        self._prim_bounds.append(bounds)
        pos = node.first_prim + node.prim_count
        self._prim_order.insert(pos, prim_index)
        node.prim_count += 1
        for other in self.nodes():
            if other.is_leaf and other is not node and other.first_prim >= pos:
                other.first_prim += 1
        for ancestor in path:
            ancestor.bounds = ancestor.bounds.union(bounds)
        node.bounds = node.bounds.union(bounds)
        self._invalidate()
        return len(path) + 1

    def remove(self, prim_id: int) -> int:
        """Online delete: drop the primitive from its leaf's slice.

        The primitive stays in ``primitives`` as an unreachable
        tombstone (slice indexes stay stable); bounds are left loose.
        Returns the number of nodes touched.
        """
        pos = None
        for k, i in enumerate(self._prim_order):
            if self.primitives[i].prim_id == prim_id:
                pos = k
                break
        if pos is None:
            raise KeyError(f"prim_id {prim_id} not live in BVH")
        leaf = None
        for node in self.nodes():
            if node.is_leaf and node.first_prim <= pos < (node.first_prim
                                                          + node.prim_count):
                leaf = node
                break
        self._prim_order.pop(pos)
        leaf.prim_count -= 1
        for other in self.nodes():
            if other.is_leaf and other is not leaf and other.first_prim > pos:
                other.first_prim -= 1
        self._invalidate()
        return 1

    def update(self, prim_id: int, prim) -> int:
        """Online update: replace a live primitive in place.

        The slot keeps its position in the leaf; path bounds are grown
        to cover the new extent while the old extent stays covered
        (conservative, so results remain exact until the next refit).
        """
        pos = None
        for k, i in enumerate(self._prim_order):
            if self.primitives[i].prim_id == prim_id:
                pos, prim_index = k, i
                break
        if pos is None:
            raise KeyError(f"prim_id {prim_id} not live in BVH")
        self.primitives[prim_index] = prim
        bounds = prim.bounds()
        self._prim_bounds[prim_index] = bounds
        touched = self._grow_path(self.root, pos, bounds)
        self._invalidate()
        return touched

    def _grow_path(self, node: BVHNode, pos: int, bounds: AABB) -> int:
        """Union ``bounds`` into every node on the path to slice ``pos``."""
        node.bounds = node.bounds.union(bounds)
        if node.is_leaf:
            return 1
        # Leaf slices are laid out in-order, so the left subtree covers a
        # contiguous prefix of positions.
        left_end = self._subtree_end(node.left)
        child = node.left if pos < left_end else node.right
        return 1 + self._grow_path(child, pos, bounds)

    @staticmethod
    def _subtree_end(node: BVHNode) -> int:
        while not node.is_leaf:
            node = node.right
        return node.first_prim + node.prim_count

    def _range_bounds(self, first: int, count: int) -> AABB:
        box = AABB.empty()
        for i in range(first, first + count):
            box = box.union(self._prim_bounds[self._prim_order[i]])
        return box

    def refit(self) -> int:
        """Recompute exact bounds bottom-up without restructuring.

        This is the per-frame BVH refit of the RT pipelines: leaf boxes
        are rebuilt from their (live) primitives, inner boxes from their
        children.  Returns the number of nodes touched — the quantity
        the cycle model charges.
        """
        def rec(node: BVHNode) -> int:
            if node.is_leaf:
                node.bounds = self._range_bounds(node.first_prim,
                                                 node.prim_count)
                return 1
            touched = rec(node.left) + rec(node.right)
            node.bounds = node.left.bounds.union(node.right.bounds)
            return touched + 1

        touched = rec(self.root)
        self._invalidate()
        return touched

    def live_prim_ids(self) -> List[int]:
        """The prim_ids still reachable from a leaf slice."""
        return [self.primitives[i].prim_id for i in self._prim_order]

    # -- access ---------------------------------------------------------------
    def soa(self) -> BVHArrays:
        """The struct-of-arrays view, cached per mutation epoch.

        Mutations (insert/remove/update/refit) bump ``mutation_epoch``,
        so a stale view is rebuilt on next access instead of silently
        serving pre-mutation bounds; callers in the kernels/workloads
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
