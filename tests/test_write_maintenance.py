"""Write maintenance on flat arrays: the online BVH writes, the array
refits and the array quality scores.

* A seeded fuzz of small sphere BVHs under random insert/remove/update
  checks the structural rules a write must keep: leaf slices ordered
  and contiguous, every live primitive inside all its ancestors' boxes,
  and ``radius_query`` equal to brute force.
* A seeded differential fuzz over churned BVH, R-Tree and k-d states
  compares the array passes with the scalar references in
  :mod:`tests.quality_reference` after every op: quality dicts by
  ``float.hex``, node bounds bit for bit, touched counts, and the BVH
  SoA view each write derives against a :class:`tests.bvh_reference.
  ReferenceBVH` taking the same writes.
"""

import copy
import math
import random

import pytest

from repro.geometry.aabb import AABB
from repro.geometry.sphere import Sphere
from repro.geometry.triangle import Triangle
from repro.geometry.vec import Vec3
from repro.kernels.radius_search import radius_query
from repro.mutation import make_mutator
from repro.mutation.quality import bvh_quality, kdtree_quality, rtree_quality
from repro.serve import build_resident_index
from repro.trees.bvh import BVH
from repro.trees.rtree import RectEntry, RTree, make_rect
from tests import quality_reference as ref
from tests.bvh_reference import (ReferenceBVH, assert_matches, node_box,
                                 node_prims, node_slice, tree_records)


def _hex(values):
    return [float(v).hex() for v in values]


def _box_hex(box: AABB):
    return _hex((*box.lo, *box.hi))


def _quality_hex(quality):
    return {key: float(value).hex() for key, value in quality.items()}


# -- structural rules under online writes ---------------------------------------
def _slices_in_order(bvh: BVH) -> None:
    """Leaf slices, in DFS order, tile ``[0, live)`` with no gap."""
    at = 0
    for node in bvh.nodes():
        if node.is_leaf:
            first, count = node_slice(bvh, node)
            assert first == at, "leaf slices out of order"
            at += count
    assert at == len(bvh._prim_order)


def _inside_ancestors(bvh: BVH) -> None:
    def walk(node, ancestors):
        ancestors = ancestors + [node_box(bvh, node)]
        if node.is_leaf:
            for prim in node_prims(bvh, node):
                for box in ancestors:
                    assert box.contains_box(prim.bounds()), \
                        f"prim {prim.prim_id} outside an ancestor box"
            return
        walk(node.left, ancestors)
        walk(node.right, ancestors)

    walk(bvh.root, [])


def _brute_radius(spheres, center: Vec3, radius: float):
    return tuple(sorted(
        s.prim_id for s in spheres
        if (s.center - center).length_squared() < radius * radius))


class TestOnlineWritesKeepStructure:
    RADIUS = 0.3

    def _run(self, seed: int) -> None:
        rng = random.Random(seed)

        def sphere(pid):
            return Sphere(Vec3(rng.random(), rng.random(), rng.random()),
                          self.RADIUS, prim_id=pid)

        live = {pid: sphere(pid) for pid in range(rng.randint(4, 23))}
        bvh = BVH(list(live.values()), max_leaf_size=rng.randint(1, 2),
                  method=rng.choice(("median", "sah")))
        next_id = len(live)
        for _ in range(40):
            op = rng.choice(("insert", "remove", "update"))
            if op == "insert" or len(live) < 2:
                live[next_id] = sphere(next_id)
                bvh.insert(live[next_id])
                next_id += 1
            elif op == "remove":
                pid = rng.choice(sorted(live))
                del live[pid]
                bvh.remove(pid)
            else:
                pid = rng.choice(sorted(live))
                live[pid] = sphere(pid)
                bvh.update(pid, live[pid])
            _slices_in_order(bvh)
            _inside_ancestors(bvh)
            for s in live.values():
                assert radius_query(bvh, s.center, self.RADIUS).hits == \
                    _brute_radius(live.values(), s.center, self.RADIUS)

    def test_seeded_insert_remove_update_fuzz(self):
        for seed in range(150):
            self._run(seed)

    def test_insert_into_empty_leaf_keeps_earlier_empty_leaf(self):
        """Both leaves emptied, then an insert lands in the second: the
        first keeps its slice start, ahead of the new primitive."""
        spheres = [Sphere(Vec3(x, 0.0, 0.0), 0.1, prim_id=i)
                   for i, x in enumerate((0.0, 10.0))]
        bvh = BVH(spheres, max_leaf_size=1)
        bvh.remove(0)
        bvh.remove(1)
        bvh.insert(Sphere(Vec3(10.0, 0.0, 0.0), 0.1, prim_id=2))
        _slices_in_order(bvh)
        left, right = bvh.root.left, bvh.root.right
        assert node_slice(bvh, left) == (0, 0)
        assert node_slice(bvh, right) == (0, 1)


# -- differential fuzz against the scalar references ------------------------------
class _Box:
    """A primitive with given bounds (signed zeros and duplicates
    survive into the tree's boxes, which spheres' ``c ± r`` do not)."""

    def __init__(self, lo: Vec3, hi: Vec3, prim_id: int):
        self.lo, self.hi, self.prim_id = lo, hi, prim_id

    def bounds(self) -> AABB:
        return AABB(self.lo, self.hi)


_COORDS = (0.0, -0.0, 0.5, -0.5, 1.0)


def _coord(rng: random.Random) -> float:
    return rng.choice(_COORDS) if rng.random() < 0.7 else rng.uniform(-1, 1)


def _point(rng: random.Random) -> Vec3:
    return Vec3(_coord(rng), _coord(rng), _coord(rng))


def _make_prim(rng: random.Random, pid: int, kind: str):
    if kind == "boxes":
        lo = [_coord(rng) for _ in range(3)]
        hi = [x + rng.choice((0.0, -0.0, 0.5)) for x in lo]
        return _Box(Vec3(*lo), Vec3(*hi), pid)
    if kind == "triangles":
        return Triangle(_point(rng), _point(rng), _point(rng), prim_id=pid)
    return Sphere(_point(rng), 0.5, prim_id=pid)


def _same_bounds(tree_nodes, twin_nodes, attr: str) -> None:
    for a, b in zip(tree_nodes, twin_nodes, strict=True):
        assert _box_hex(getattr(a, attr)) == _box_hex(getattr(b, attr))


class TestBVHMatchesScalarReference:
    """Each write, refit and quality score of a :class:`BVH` against a
    :class:`ReferenceBVH` built from the same primitives and taking the
    same writes."""

    @staticmethod
    def _check(bvh: BVH, twin: ReferenceBVH) -> None:
        assert_matches(bvh, twin)
        assert _quality_hex(bvh_quality(bvh)) == \
            _quality_hex(ref.bvh_quality(twin))

    @pytest.mark.parametrize("kind", ["spheres", "triangles", "boxes"])
    def test_seeded_churn(self, kind):
        zero_signs, emptied = set(), 0
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(2, 24)
            prims = {pid: _make_prim(rng, pid, kind) for pid in range(n)}
            leaf = rng.randint(1, 3)
            bvh = BVH(list(prims.values()), max_leaf_size=leaf,
                      method="sah")
            twin = ReferenceBVH(list(prims.values()), max_leaf_size=leaf,
                                method="sah")
            self._check(bvh, twin)
            next_id = n
            for _ in range(30):
                op = rng.random()
                if op < 0.35 or not prims:
                    prims[next_id] = _make_prim(rng, next_id, kind)
                    assert bvh.insert(prims[next_id]) == \
                        twin.insert(prims[next_id])
                    next_id += 1
                elif op < 0.65:
                    # May empty leaves and, at the end, the whole tree.
                    pid = rng.choice(sorted(prims))
                    del prims[pid]
                    assert bvh.remove(pid) == twin.remove(pid)
                elif op < 0.85:
                    pid = rng.choice(sorted(prims))
                    prims[pid] = _make_prim(rng, pid, kind)
                    assert bvh.update(pid, prims[pid]) == \
                        twin.update(pid, prims[pid])
                else:
                    assert bvh.refit() == twin.refit()
                self._check(bvh, twin)
            emptied += any(node.is_leaf and not node_slice(bvh, node)[1]
                           for node in bvh.nodes())
            assert bvh.refit() == twin.refit()
            self._check(bvh, twin)
            for node in bvh.nodes():
                box = node_box(bvh, node)
                zero_signs.update(math.copysign(1.0, v) for v in
                                  (*box.lo, *box.hi) if v == 0.0)
        assert emptied, "fuzz must refit trees with emptied leaves"
        if kind != "spheres":
            assert zero_signs == {1.0, -1.0}, "fuzz must reach signed zeros"

    def test_emptied_tree_refits_to_empty_boxes(self):
        prims = [Sphere(Vec3(i, 0.0, 0.0), 0.5, prim_id=i) for i in range(5)]
        bvh = BVH(prims, max_leaf_size=1)
        for i in range(5):
            bvh.remove(i)
        twin = ReferenceBVH.of(bvh)
        assert bvh.refit() == twin.refit()
        assert tree_records(bvh) == tree_records(twin)
        assert node_box(bvh, bvh.root).is_empty()
        self._check(bvh, twin)


class TestRTreeMatchesScalarReference:
    @staticmethod
    def _rect(rng: random.Random) -> AABB:
        x, y = _coord(rng), _coord(rng)
        return make_rect(x, y, x + rng.choice((0.0, -0.0, 0.5)),
                         y + rng.choice((0.0, 1.0)))

    def test_seeded_churn(self):
        for seed in range(40):
            rng = random.Random(seed)
            live = {i: self._rect(rng) for i in range(rng.randint(0, 50))}
            tree = RTree.bulk_load(
                [RectEntry(rect, i) for i, rect in live.items()],
                max_entries=rng.choice((4, 5, 9)))
            next_id = len(live)
            for _ in range(30):
                op = rng.random()
                if op < 0.45 or not live:
                    live[next_id] = self._rect(rng)
                    tree.insert(live[next_id], next_id)
                    next_id += 1
                elif op < 0.75:
                    pid = rng.choice(sorted(live))
                    tree.delete(pid, live.pop(pid))
                else:
                    # Loosen some MBRs (and duplicate a box) so the
                    # refit has work to do.
                    nodes = tree.nodes()
                    for node in nodes[::3]:
                        node.mbr = node.mbr.union(make_rect(-3, -3, -2, -2))
                    nodes[-1].mbr = nodes[0].mbr
                    twin = copy.deepcopy(tree)
                    assert tree.refit() == ref.rtree_refit(twin)
                    _same_bounds(tree.nodes(), twin.nodes(), "mbr")
                assert _quality_hex(rtree_quality(tree)) == \
                    _quality_hex(ref.rtree_quality(tree))


#: Tiny resident indexes: builds in milliseconds, real traversal.
_TINY = {
    "range": dict(n_rects=256, n_queries=16),
    "knn": dict(n_points=256, n_queries=16, k=4),
    "radius": dict(n_points=256, n_queries=16),
}

#: The scalar reference of each class: (quality, refit).
_REFERENCE = {
    "range": (lambda wl: ref.rtree_quality(wl.tree),
              lambda wl: ref.rtree_refit(wl.tree)),
    # k-d quality and refit have no array pass; they are their own
    # reference, and the refit touches every node.
    "knn": (lambda wl: kdtree_quality(wl.tree),
            lambda wl: len(wl.tree.nodes())),
    "radius": (lambda wl: ref.bvh_quality(ReferenceBVH.of(wl.bvh)),
               lambda wl: ref.bvh_refit(wl.bvh)),
}


@pytest.mark.parametrize("query_class", sorted(_TINY))
def test_mutator_churn_matches_reference(query_class):
    """Every write and refit of a served index's mutator, against the
    scalar reference run on a deep copy of the same state."""
    index = build_resident_index(query_class,
                                 dict(_TINY[query_class], seed=3))
    mutator = make_mutator(query_class, index.workload)
    quality_ref, refit_ref = _REFERENCE[query_class]
    rng = random.Random(3)
    for step in range(36):
        if step % 4 == 3:
            twin = copy.deepcopy(index.workload)
            if query_class == "radius":
                twin.bvh = ReferenceBVH.of(twin.bvh)
            assert mutator.refit() == refit_ref(twin)
            if query_class == "radius":
                assert tree_records(index.workload.bvh) == \
                    tree_records(twin.bvh)
            elif query_class == "range":
                _same_bounds(index.workload.tree.nodes(),
                             twin.tree.nodes(), "mbr")
        else:
            mutator.apply(("insert", "delete", "update")[step % 3], rng)
        assert _quality_hex(mutator.quality()) == \
            _quality_hex(quality_ref(index.workload))
        if query_class == "radius":
            bvh = index.workload.bvh
            assert_matches(bvh, ReferenceBVH.of(bvh))
