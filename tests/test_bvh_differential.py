"""Seeded differential test: :class:`repro.trees.BVH` against the
object-at-a-time :class:`tests.bvh_reference.ReferenceBVH`.

The BVH keeps every box and leaf slice in its SoA view; the reference
keeps them on its nodes and writes them one node at a time.  Both are
built over the same spheres or triangles (median and SAH), then take
the same seeded run of inserts, updates, deletes, refits, forks and
rebuilds.  After every step the view must equal the reference: node
boxes bit for bit, leaf slices, primitive columns, ``traverse`` visit
lists and, over spheres, ``radius_query`` results and visits.  A fork
must leave the tree it came from as it was.
"""

import random

import pytest

from repro.geometry import Ray, Sphere, Triangle, Vec3
from repro.geometry.aabb import AABB
from repro.geometry.sphere import ray_sphere_intersect
from repro.geometry.triangle import ray_triangle_intersect
from repro.kernels.radius_search import radius_query
from repro.trees import BVH
from repro.trees.bvh import BVHNode
from tests.bvh_reference import (ReferenceBVH, assert_matches, tree_records,
                                 visit_records)

_INTERSECT = {"spheres": ray_sphere_intersect,
              "triangles": ray_triangle_intersect}


def _point(rng: random.Random) -> Vec3:
    # Half-unit grid: centroid ties, shared faces and zero extents.
    return Vec3(*(rng.randint(-8, 8) * 0.5 for _ in range(3)))


def _prim(rng: random.Random, kind: str, pid: int):
    if kind == "spheres":
        return Sphere(_point(rng), rng.choice((0.25, 0.5, 1.0)), prim_id=pid)
    p = _point(rng)
    return Triangle(p, p + Vec3(rng.random(), 0.0, 0.0),
                    p + Vec3(0.0, rng.random(), rng.random()), prim_id=pid)


def _rays(rng: random.Random, n: int):
    rays = []
    for _ in range(n):
        d = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        if d.length_squared() < 1e-6:
            d = Vec3(0.0, 0.0, 1.0)
        rays.append(Ray(_point(rng) * 2.0, d.normalized()))
    return rays


def _assert_same(bvh: BVH, ref: ReferenceBVH, kind: str,
                 rng: random.Random) -> None:
    assert_matches(bvh, ref)
    for ray in _rays(rng, 3):
        for mode in ("closest", "any", "all"):
            got = bvh.traverse(ray, _INTERSECT[kind], mode=mode)
            want = ref.traverse(ray, _INTERSECT[kind], mode=mode)
            assert (got.closest_t, got.closest_prim, got.all_hits) == \
                (want.closest_t, want.closest_prim, want.all_hits)
            assert visit_records(bvh, got.visits) == \
                visit_records(ref, want.visits)
    if kind == "spheres":
        for _ in range(3):
            center, radius = _point(rng), rng.choice((0.5, 1.5, 3.0))
            got = radius_query(bvh, center, radius)
            hits, visits = ref.radius_query(center, radius)
            assert got.hits == hits
            assert visit_records(bvh, got.visits) == \
                visit_records(ref, visits)


@pytest.mark.parametrize("method", ["median", "sah"])
@pytest.mark.parametrize("kind", ["spheres", "triangles"])
def test_writes_match_the_reference(kind, method):
    steps = {"insert": 0, "update": 0, "delete": 0, "refit": 0, "fork": 0,
             "rebuild": 0}
    for seed in range(12):
        rng = random.Random(f"bvh-diff-{kind}-{method}-{seed}")
        leaf = rng.randint(1, 4)
        prims = [_prim(rng, kind, pid) for pid in range(rng.randint(1, 40))]
        bvh = BVH(prims, max_leaf_size=leaf, method=method)
        ref = ReferenceBVH(prims, max_leaf_size=leaf, method=method)
        _assert_same(bvh, ref, kind, rng)
        next_id, parent = len(prims), None
        for _ in range(25):
            live = ref.live_prim_ids()
            op = rng.choices(list(steps), weights=(4, 3, 3, 2, 1, 1))[0]
            if op in ("update", "delete", "rebuild") and not live:
                op = "insert"
            steps[op] += 1
            if op == "insert":
                prim = _prim(rng, kind, next_id)
                next_id += 1
                assert bvh.insert(prim) == ref.insert(prim)
            elif op == "update":
                pid = rng.choice(live)
                prim = _prim(rng, kind, pid)
                assert bvh.update(pid, prim) == ref.update(pid, prim)
            elif op == "delete":
                pid = rng.choice(live)
                assert bvh.remove(pid) == ref.remove(pid)
            elif op == "refit":
                assert bvh.refit() == ref.refit()
            elif op == "fork":
                parent = (bvh, tree_records(bvh), list(bvh._prim_order))
                bvh, ref = bvh.fork({}), ref.fork()
            else:
                live_prims = sorted(bvh.live_prims(),
                                    key=lambda p: p.prim_id)
                bvh = BVH(live_prims, max_leaf_size=leaf, method=method)
                ref = ReferenceBVH(live_prims, max_leaf_size=leaf,
                                   method=method)
            _assert_same(bvh, ref, kind, rng)
            if parent is not None and parent[0] is not bvh:
                # Writes to the twin never reach the tree it forked from.
                assert tree_records(parent[0]) == parent[1]
                assert parent[0]._prim_order == parent[2]
    assert all(steps.values()), steps


def test_kind_change_repacks_kind_columns():
    """A triangle inserted into a sphere tree drops the sphere columns;
    deleting it brings them back, as a fresh pack of the live set."""
    rng = random.Random("bvh-diff-mixed")
    prims = [_prim(rng, "spheres", pid) for pid in range(9)]
    bvh = BVH(prims, max_leaf_size=2, method="sah")
    ref = ReferenceBVH(prims, max_leaf_size=2, method="sah")
    tri = _prim(rng, "triangles", 9)
    bvh.insert(tri)
    ref.insert(tri)
    assert bvh.soa().prim_kind is None and bvh.soa().centers is None
    assert_matches(bvh, ref)
    bvh.remove(9)
    ref.remove(9)
    assert bvh.soa().prim_kind == "sphere"
    assert_matches(bvh, ref)
    for _ in range(3):
        center = _point(rng)
        assert radius_query(bvh, center, 1.0).hits == \
            ref.radius_query(center, 1.0)[0]


def test_no_box_objects(monkeypatch):
    """Nodes hold no box or slice, and building, refitting, deleting
    from and forking a sphere or triangle BVH makes no ``AABB``: a
    write makes only its primitive's own ``bounds()``."""
    assert BVHNode.__slots__ == ("left", "right", "address", "row")
    made = [0]
    init = AABB.__init__

    def counting_init(self, lo, hi):
        made[0] += 1
        init(self, lo, hi)

    rng = random.Random("bvh-no-boxes")
    for kind in ("spheres", "triangles"):
        prims = [_prim(rng, kind, pid) for pid in range(300)]
        monkeypatch.setattr(AABB, "__init__", counting_init)
        bvh = BVH(prims, max_leaf_size=4, method="sah")
        bvh.refit()
        bvh.remove(7)
        bvh = bvh.fork({})
        assert made[0] == 0, kind
        bvh.insert(_prim(rng, kind, 300))
        bvh.update(3, _prim(rng, kind, 3))
        assert made[0] == 2, kind  # one bounds() per write
        made[0] = 0
        monkeypatch.undo()
        assert bvh.soa()._boxes is None, "boxes are built on first traversal"
