"""Unit and property tests for the BVH and two-level BVH."""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.geometry import Ray, Sphere, Triangle, Vec3
from repro.geometry.sphere import ray_sphere_intersect
from repro.geometry.triangle import ray_triangle_intersect
from repro.memsys.memory_image import AddressSpace
from repro.trees import BVH, Instance, TwoLevelBVH
from tests.bvh_reference import ReferenceBVH


def random_triangles(n, seed=0, span=10.0):
    rng = random.Random(seed)

    def v():
        return Vec3(rng.uniform(-span, span), rng.uniform(-span, span),
                    rng.uniform(-span, span))

    tris = []
    for i in range(n):
        base = v()
        tris.append(Triangle(base, base + Vec3(rng.uniform(0.1, 1), 0, 0),
                             base + Vec3(0, rng.uniform(0.1, 1), 0), prim_id=i))
    return tris


def random_rays(n, seed=1, span=12.0):
    rng = random.Random(seed)
    rays = []
    for _ in range(n):
        origin = Vec3(rng.uniform(-span, span), rng.uniform(-span, span),
                      rng.uniform(-span, span))
        direction = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1),
                         rng.uniform(-1, 1))
        if direction.length_squared() < 1e-6:
            direction = Vec3(1, 0, 0)
        rays.append(Ray(origin, direction.normalized()))
    return rays


def brute_force_closest(ray, tris):
    best_t, best_id = math.inf, None
    for tri in tris:
        hit = ray_triangle_intersect(ray, tri)
        if hit is not None and hit.t < best_t:
            best_t, best_id = hit.t, tri.prim_id
    return best_t, best_id


class TestBVHBuild:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            BVH([])

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            BVH(random_triangles(4), method="bogus")

    @pytest.mark.parametrize("method", ["median", "sah"])
    def test_all_prims_reachable(self, method):
        tris = random_triangles(64)
        bvh = BVH(tris, method=method)
        found = set()

        def collect(node):
            if node.is_leaf:
                found.update(p.prim_id for p in bvh.leaf_prims(node))
            else:
                collect(node.left)
                collect(node.right)

        collect(bvh.root)
        assert found == set(range(64))

    @pytest.mark.parametrize("method", ["median", "sah"])
    def test_child_bounds_contained_in_parent(self, method):
        bvh = BVH(random_triangles(100, seed=3), method=method)

        def check(node):
            if not node.is_leaf:
                assert node.bounds.contains_box(node.left.bounds)
                assert node.bounds.contains_box(node.right.bounds)
                check(node.left)
                check(node.right)
            else:
                for prim in bvh.leaf_prims(node):
                    assert node.bounds.contains_box(prim.bounds())

        check(bvh.root)

    def test_leaf_size_respected(self):
        bvh = BVH(random_triangles(200, seed=4), max_leaf_size=4)
        for node in bvh.nodes():
            if node.is_leaf:
                assert node.prim_count <= 4

    def test_node_count_matches_nodes_list(self):
        bvh = BVH(random_triangles(77, seed=5))
        assert bvh.node_count == len(bvh.nodes())

    def test_single_primitive(self):
        bvh = BVH(random_triangles(1))
        assert bvh.root.is_leaf
        assert bvh.node_count == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sphere_centre_rejected(self, bad):
        spheres = [Sphere(Vec3(0, 0, 0), 1.0, prim_id=0),
                   Sphere(Vec3(bad, 0, 0), 1.0, prim_id=1)]
        with pytest.raises(ConfigurationError, match="finite"):
            BVH(spheres, method="sah")

    def test_inf_triangle_vertex_rejected(self):
        tris = random_triangles(3)
        tris.append(Triangle(Vec3(0, 0, 0), Vec3(1, 0, 0),
                             Vec3(0, math.inf, 0), prim_id=3))
        with pytest.raises(ConfigurationError, match="finite"):
            BVH(tris)

    def test_sah_no_worse_node_count_blowup(self):
        tris = random_triangles(256, seed=6)
        sah = BVH(tris, method="sah")
        med = BVH(tris, method="median")
        assert sah.node_count <= med.node_count * 2


class TestBVHTraversal:
    def test_closest_matches_brute_force(self):
        tris = random_triangles(128, seed=7)
        bvh = BVH(tris)
        for ray in random_rays(60, seed=8):
            result = bvh.traverse(ray, ray_triangle_intersect)
            bf_t, bf_id = brute_force_closest(ray, tris)
            assert result.closest_prim == bf_id
            if bf_id is not None:
                assert result.closest_t == pytest.approx(bf_t)

    def test_any_mode_stops_after_first_hit_leaf(self):
        tris = random_triangles(128, seed=9)
        bvh = BVH(tris)
        for ray in random_rays(40, seed=10):
            result = bvh.traverse(ray, ray_triangle_intersect, mode="any")
            bf_t, bf_id = brute_force_closest(ray, tris)
            assert (len(result.all_hits) > 0) == (bf_id is not None)

    def test_all_mode_superset_of_closest(self):
        tris = random_triangles(64, seed=11)
        bvh = BVH(tris)
        for ray in random_rays(30, seed=12):
            every = bvh.traverse(ray, ray_triangle_intersect, mode="all")
            bf_t, bf_id = brute_force_closest(ray, tris)
            if bf_id is not None:
                assert bf_id in every.all_hits

    def test_visit_trace_contains_root(self):
        bvh = BVH(random_triangles(32, seed=13))
        ray = random_rays(1, seed=14)[0]
        result = bvh.traverse(ray, ray_triangle_intersect)
        assert result.visits[0].node is bvh.root

    def test_bad_mode_rejected(self):
        bvh = BVH(random_triangles(4))
        with pytest.raises(ConfigurationError):
            bvh.traverse(random_rays(1)[0], ray_triangle_intersect, mode="x")

    def test_miss_everything(self):
        tris = random_triangles(16, seed=15, span=1.0)
        bvh = BVH(tris)
        ray = Ray(Vec3(100, 100, 100), Vec3(1, 0, 0))
        result = bvh.traverse(ray, ray_triangle_intersect)
        assert result.closest_prim is None
        assert math.isinf(result.closest_t)
        # Root test fails, traversal does no more work.
        assert len(result.visits) == 1


class TestTwoLevel:
    def build(self):
        spheres = [Sphere(Vec3(x, 0, 0), 0.4, prim_id=x) for x in range(4)]
        blas = BVH(spheres, max_leaf_size=1)
        instances = [
            Instance(blas, translation=Vec3(0, 0, 0), instance_id=0),
            Instance(blas, translation=Vec3(0, 10, 0), instance_id=1),
            Instance(blas, translation=Vec3(0, 0, 10), scale=2.0, instance_id=2),
        ]
        return TwoLevelBVH(instances)

    def test_hits_correct_instance(self):
        tl = self.build()
        ray = Ray(Vec3(2, 10, -5), Vec3(0, 0, 1))
        result = tl.trace(ray, ray_sphere_intersect)
        assert result.hit is not None
        assert result.hit.instance_id == 1
        assert result.hit.prim_id == 2

    def test_scaled_instance_hit_distance_in_world_units(self):
        tl = self.build()
        # Instance 2 is scaled 2x: sphere prim 0 has world radius 0.8 at z=10.
        ray = Ray(Vec3(0, 0, 5), Vec3(0, 0, 1))
        result = tl.trace(ray, ray_sphere_intersect)
        assert result.hit is not None
        assert result.hit.instance_id == 2
        assert result.hit.t == pytest.approx(5 - 0.8)

    def test_xform_count_positive_on_hit(self):
        tl = self.build()
        ray = Ray(Vec3(2, 10, -5), Vec3(0, 0, 1))
        result = tl.trace(ray, ray_sphere_intersect)
        assert result.xforms >= 1

    def test_miss_returns_none(self):
        tl = self.build()
        ray = Ray(Vec3(100, 100, 100), Vec3(0, 1, 0))
        assert tl.trace(ray, ray_sphere_intersect).hit is None

    def test_empty_instances_rejected(self):
        with pytest.raises(ConfigurationError):
            TwoLevelBVH([])

    def test_instance_bad_scale_rejected(self):
        blas = BVH(random_triangles(2))
        with pytest.raises(ConfigurationError):
            Instance(blas, scale=0.0)


@given(st.integers(min_value=1, max_value=100),
       st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_property_bvh_closest_equals_brute_force(n, seed):
    tris = random_triangles(n, seed=seed)
    bvh = BVH(tris)
    for ray in random_rays(5, seed=seed + 1):
        result = bvh.traverse(ray, ray_triangle_intersect)
        bf_t, bf_id = brute_force_closest(ray, tris)
        assert result.closest_prim == bf_id


# -- array builder vs the scalar reference -------------------------------------
def _node_records(bvh):
    """Per node in DFS order: bound bits (signed zeros included) and slice."""
    records = []
    for node in bvh.nodes():
        b = node.bounds
        records.append((struct.pack("<6d", b.lo.x, b.lo.y, b.lo.z,
                                    b.hi.x, b.hi.y, b.hi.z),
                        node.is_leaf, node.first_prim, node.prim_count))
    return records


def _image_bytes(bvh):
    """The tree as ``place_tree`` lays it out: addresses, bounds, links."""
    image = AddressSpace().place_tree(bvh.nodes())
    out = bytearray()
    for node in image.nodes:
        b = node.bounds
        links = ((node.first_prim, node.prim_count) if node.is_leaf
                 else (node.left.address, node.right.address))
        out += struct.pack("<q6d2q", node.address, b.lo.x, b.lo.y, b.lo.z,
                           b.hi.x, b.hi.y, b.hi.z, *links)
    return bytes(out)


def assert_same_tree(fast, ref):
    assert fast.node_count == ref.node_count
    assert _node_records(fast) == _node_records(ref)
    assert fast._prim_order == ref._prim_order
    assert all(type(i) is int for i in fast._prim_order)
    assert _image_bytes(fast) == _image_bytes(ref)


def _spheres(points, radius=0.5):
    return [Sphere(p, radius, prim_id=i) for i, p in enumerate(points)]


def _grid_points(n, rng):
    # Coarse coordinates make many centroid ties (stability matters).
    return [Vec3(rng.randint(-4, 4) * 0.5, rng.randint(-4, 4) * 0.5,
                 rng.randint(-4, 4) * 0.5) for _ in range(n)]


def _uniform_points(n, rng):
    return [Vec3(rng.uniform(-10, 10), rng.uniform(-3, 3),
                 rng.uniform(-1, 1)) for _ in range(n)]


def _duplicate_points(n, rng):
    pool = _uniform_points(max(1, n // 7), rng)
    return [rng.choice(pool) for _ in range(n)]


def _flat_points(n, rng):
    return [Vec3(rng.uniform(-5, 5), rng.uniform(-5, 5), 0.0)
            for _ in range(n)]


def _collinear_points(n, rng):
    return [Vec3(rng.uniform(-5, 5), 0.0, 0.0) for _ in range(n)]


def _sub_epsilon_points(n, rng):
    # Centroid extents under the 1e-12 SAH cut-off on every axis.
    return [Vec3(1.0 + rng.random() * 1e-13, 2.0, -3.0 + rng.random() * 1e-13)
            for _ in range(n)]


def _signed_zero_triangles(n, rng):
    coords = (0.0, -0.0, 0.0, -0.0, 0.5, -0.5, 1.0, -2.0)

    def v():
        return Vec3(rng.choice(coords), rng.choice(coords), rng.choice(coords))

    return [Triangle(v(), v(), v(), prim_id=i) for i in range(n)]


_SIZES = list(range(1, 14)) + [17, 24, 31, 64, 100, 173, 300]


class TestArrayBuilderMatchesReference:
    """The array builder reproduces the scalar builder node for node."""

    @pytest.mark.parametrize("leaf", [1, 2, 4])
    @pytest.mark.parametrize("method", ["median", "sah"])
    @pytest.mark.parametrize("points", [
        _grid_points, _uniform_points, _duplicate_points, _flat_points,
        _collinear_points, _sub_epsilon_points])
    def test_point_sets(self, points, method, leaf):
        # Spheres around the points, and point or sliver triangles whose
        # boxes keep the set's degeneracy (zero or sub-1e-12 extents).
        rng = random.Random(f"{points.__name__}-{method}-{leaf}")
        for n in _SIZES:
            pts = points(n + 2, rng)
            spheres = _spheres(pts[:n], radius=rng.choice([0.25, 1.0]))
            slivers = [Triangle(pts[i], pts[i + rng.randint(0, 2)],
                                pts[i + rng.randint(0, 2)], prim_id=i)
                       for i in range(n)]
            for prims in (spheres, slivers):
                assert_same_tree(
                    BVH(prims, max_leaf_size=leaf, method=method),
                    ReferenceBVH(prims, max_leaf_size=leaf, method=method))

    @pytest.mark.parametrize("leaf", [1, 2, 4])
    @pytest.mark.parametrize("method", ["median", "sah"])
    def test_random_triangles(self, method, leaf):
        for n in _SIZES:
            tris = random_triangles(n, seed=n * 7 + leaf)
            assert_same_tree(BVH(tris, max_leaf_size=leaf, method=method),
                             ReferenceBVH(tris, max_leaf_size=leaf,
                                          method=method))

    @pytest.mark.parametrize("leaf", [1, 2, 4])
    @pytest.mark.parametrize("method", ["median", "sah"])
    def test_signed_zero_triangles(self, method, leaf):
        # A node whose extreme is both 0.0 and -0.0 keeps the zero seen
        # first in primitive order, as the scalar min/max fold does.
        rng = random.Random(f"zeros-{method}-{leaf}")
        for trial in range(60):
            tris = _signed_zero_triangles(rng.randint(1, 40), rng)
            assert_same_tree(BVH(tris, max_leaf_size=leaf, method=method),
                             ReferenceBVH(tris, max_leaf_size=leaf,
                                          method=method))

    def test_two_level_tlas(self):
        rng = random.Random("tlas")
        blases = [BVH(random_triangles(rng.randint(1, 20), seed=s),
                      method="sah") for s in range(4)]
        for n in (1, 2, 3, 5, 12, 13, 40, 97):
            instances = [
                Instance(rng.choice(blases),
                         translation=Vec3(rng.choice([0.0, -0.0, 3.0]),
                                          rng.randint(-6, 6) * 2.0,
                                          rng.uniform(-20, 20)),
                         scale=rng.choice([0.5, 1.0, 2.0]), instance_id=i)
                for i in range(n)]
            assert_same_tree(TwoLevelBVH(instances).tlas,
                             ReferenceBVH(instances, max_leaf_size=1))
