"""Seeded differential fuzz: level-synchronous BVH build vs the recursive one.

:class:`repro.trees.BVH` builds one tree level at a time;
:class:`tests.bvh_reference.RecursiveBVH` is the recursive array
builder it replaced.  Both must make the same tree node for node: every
box by ``float.hex`` (so ``0.0`` and ``-0.0`` differ), every leaf
slice, the tree shape, ``_prim_order`` and ``node_count``.

The inputs lean on the rules the builder must keep: grid-snapped
coordinates make centroid ties (the sort must be stable), signed zeros
test which zero a box keeps, extents of exactly ``1e-12`` test the
cut-off below which SAH is skipped, overflowing extents test that
infinite and NaN split costs never win, duplicates make zero-extent boxes, and
sizes from 1 to 700 cover segments shorter than the 12 SAH chunks as
well as deep trees.
"""

import random

import pytest

from repro.geometry import Sphere, Triangle, Vec3
from repro.geometry.aabb import AABB
from repro.trees import BVH
from tests.bvh_reference import RecursiveBVH, node_box, tree_records


class _Box:
    """An axis-aligned box primitive."""

    def __init__(self, lo: Vec3, hi: Vec3, prim_id: int):
        self._bounds = AABB(lo, hi)
        self.prim_id = prim_id

    def bounds(self) -> AABB:
        return self._bounds


def _coord(rng, style):
    if style == "grid":
        return rng.randint(-4, 4) * 0.5
    if style == "zeros":
        return rng.choice((0.0, -0.0, 0.0, -0.0, 0.5, -0.5, 1.0, -2.0))
    if style == "tiny":
        # Extents at and under the 1e-12 cut-off for an SAH split.
        return rng.choice((0.0, -0.0, 5e-13, 1e-12))
    if style == "huge":
        # Extents and areas that overflow to inf (and 0 * inf to NaN).
        return rng.choice((0.0, 1.0, 1e308, -1e308, 1e200))
    return rng.uniform(-10.0, 10.0)


def _point(rng, style):
    return Vec3(_coord(rng, style), _coord(rng, style), _coord(rng, style))


def _prims(kind, n, rng):
    style = rng.choice(("grid", "zeros", "tiny", "huge", "uniform"))
    pool = [_point(rng, style) for _ in range(n)]
    if rng.random() < 0.3:
        # Duplicates: every point drawn from a small pool.
        pool = [rng.choice(pool[:max(1, n // 7)]) for _ in range(n)]
    prims = []
    for i, p in enumerate(pool):
        if kind == "sphere":
            radius = {"uniform": rng.uniform(0.01, 1.0),
                      "tiny": rng.choice((1e-13, 5e-13))}.get(
                          style, rng.choice((0.25, 0.5, 1.0)))
            prims.append(Sphere(p, radius, prim_id=i))
        elif kind == "triangle":
            prims.append(Triangle(p, rng.choice((p, _point(rng, style))),
                                  _point(rng, style), prim_id=i))
        else:
            q = _point(rng, style)
            prims.append(_Box(Vec3(min(p.x, q.x), min(p.y, q.y),
                                   min(p.z, q.z)),
                              Vec3(max(p.x, q.x), max(p.y, q.y),
                                   max(p.z, q.z)), prim_id=i))
    return prims


def assert_same_build(fast, ref):
    assert fast.node_count == ref.node_count == len(ref.nodes())
    assert tree_records(fast) == tree_records(ref)
    assert fast._prim_order == ref._prim_order
    assert all(type(i) is int for i in fast._prim_order)


def _sizes(rng, cases):
    """Mostly small trees, where the chunk and tie rules bite, plus a
    few large ones up to 700 primitives."""
    sizes = [1, 2, 3, 5, 11, 12, 13, 25, 700]
    while len(sizes) < cases:
        sizes.append(rng.randint(1, 64) if rng.random() < 0.8
                     else rng.randint(65, 700))
    return sizes


# Overflowing extents make numpy warn in both builders.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", ["median", "sah"])
@pytest.mark.parametrize("kind", ["sphere", "triangle", "box"])
def test_level_build_matches_recursive_build(kind, method):
    rng = random.Random(f"bvh-levels-{kind}-{method}")
    for n in _sizes(rng, 40):
        prims = _prims(kind, n, rng)
        leaf = rng.randint(1, 4)
        assert_same_build(BVH(prims, max_leaf_size=leaf, method=method),
                          RecursiveBVH(prims, max_leaf_size=leaf,
                                       method=method))


@pytest.mark.parametrize("method", ["median", "sah"])
def test_signed_zero_extremes_keep_the_first_zero(method):
    # Every coordinate is 0.0 or -0.0: each box extreme is a zero, and
    # the one first in primitive order must win at every level.
    rng = random.Random(f"bvh-zeros-{method}")
    for _ in range(30):
        n = rng.randint(1, 60)
        prims = [_Box(Vec3(*(rng.choice((0.0, -0.0)) for _ in range(3))),
                      Vec3(*(rng.choice((0.0, -0.0, 1.0)) for _ in range(3))),
                      prim_id=i) for i in range(n)]
        assert_same_build(BVH(prims, max_leaf_size=1, method=method),
                          RecursiveBVH(prims, max_leaf_size=1,
                                       method=method))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n_low", [1, 3, 5])
def test_nan_split_costs_never_win(n_low):
    # Flat boxes at x = -1e308 and x = 1e308: every split that mixes the
    # two has an infinite x extent times a zero y extent, a NaN cost,
    # and so does the leaf.  Only the clean split may win.
    prims = [_Box(Vec3(x, 0.0, 0.0), Vec3(x, 0.0, 0.0), prim_id=i)
             for i, x in enumerate([1e308] * (12 - n_low)
                                   + [-1e308] * n_low)]
    fast = BVH(prims, max_leaf_size=1, method="sah")
    assert_same_build(fast, RecursiveBVH(prims, max_leaf_size=1,
                                         method="sah"))
    # The root splits the low boxes from the high ones.
    assert node_box(fast, fast.root.left).hi.x == -1e308
    assert node_box(fast, fast.root.right).lo.x == 1e308


class _Opaque:
    """A sphere seen only through ``bounds()``: a tree of these packs its
    bounds one primitive at a time, as every build did before spheres
    were packed from their center and radius columns."""

    def __init__(self, sphere: Sphere):
        self.sphere = sphere
        self.prim_id = sphere.prim_id

    def bounds(self) -> AABB:
        return self.sphere.bounds()


def _bits(column):
    return [tuple(v.hex() for v in row) for row in column.tolist()]


def assert_same_bounds(packed, per_prim):
    assert_same_build(packed, per_prim)
    assert packed.soa().prim_id_list == per_prim.soa().prim_id_list
    for name in ("prim_lo", "prim_hi"):
        assert _bits(getattr(packed.soa(), name)) == \
            _bits(getattr(per_prim.soa(), name))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", ["median", "sah"])
def test_sphere_columns_match_per_primitive_bounds(method):
    """Sphere trees packed from ``center ± radius`` columns equal trees
    packed from each primitive's ``bounds()``, node for node and column
    for column, and stay equal through inserts, updates, deletes,
    refits and a fork."""
    rng = random.Random(f"bvh-sphere-columns-{method}")
    for n in _sizes(rng, 24):
        spheres = _prims("sphere", n, rng)
        leaf = rng.randint(1, 4)
        packed = BVH(spheres, max_leaf_size=leaf, method=method)
        per_prim = BVH([_Opaque(s) for s in spheres], max_leaf_size=leaf,
                       method=method)
        assert packed.soa().prim_kind == "sphere"
        assert per_prim.soa().prim_kind is None
        assert_same_bounds(packed, per_prim)
        for step in range(rng.randint(1, 12)):
            roll = rng.random()
            if roll < 0.4:
                sphere = Sphere(_point(rng, "uniform"),
                                rng.uniform(0.01, 1.0), prim_id=n + step)
                packed.insert(sphere)
                per_prim.insert(_Opaque(sphere))
            elif roll < 0.6:
                prim_id = rng.choice(packed.live_prim_ids())
                sphere = Sphere(_point(rng, "grid"), 0.5, prim_id=prim_id)
                packed.update(prim_id, sphere)
                per_prim.update(prim_id, _Opaque(sphere))
            elif roll < 0.75 and len(packed.live_prim_ids()) > 1:
                prim_id = rng.choice(packed.live_prim_ids())
                packed.remove(prim_id)
                per_prim.remove(prim_id)
            elif roll < 0.9:
                packed.refit()
                per_prim.refit()
            else:
                packed, per_prim = packed.fork({}), per_prim.fork({})
            assert_same_bounds(packed, per_prim)
