"""Tests for the workload generators and their golden references."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.geometry.sphere import ray_sphere_intersect
from repro.geometry.triangle import ray_triangle_intersect
from repro.workloads import (
    LUMIBENCH_SUITE,
    make_btree_workload,
    make_lumibench_workload,
    make_nbody_workload,
    make_rtnn_workload,
    make_wknd_workload,
    synth_lidar_cloud,
)
from repro.workloads.lumibench import spec_named
from repro.workloads.scenes import (
    Camera,
    make_cornell_scene,
    make_shell_scene,
    make_soup_scene,
    make_thin_strips_scene,
)
from repro.geometry.vec import Vec3


class TestBTreeWorkload:
    def test_golden_matches_membership(self):
        wl = make_btree_workload("btree", n_keys=1000, n_queries=500, seed=1)
        present = set(wl.tree.keys_in_order())
        assert wl.golden == [q in present for q in wl.queries]

    def test_hit_fraction_respected(self):
        wl = make_btree_workload("btree", n_keys=2000, n_queries=2000,
                                 seed=2, hit_fraction=0.75)
        hits = sum(wl.golden)
        assert 0.65 < hits / 2000 < 0.85

    def test_bad_variant(self):
        with pytest.raises(ConfigurationError):
            make_btree_workload("rtree")

    def test_buffers_do_not_overlap_tree(self):
        wl = make_btree_workload("bplus", n_keys=500, n_queries=100)
        assert wl.query_buf >= wl.image.end
        assert wl.result_buf >= wl.query_buf + 4 * 100


class TestNBodyWorkload:
    def test_bodies_are_morton_sorted_for_coherence(self):
        wl = make_nbody_workload(n_bodies=256, dims=2, seed=3)
        # Adjacent bodies should be spatially close on average: compare
        # mean adjacent distance against mean random-pair distance.
        bodies = wl.tree.bodies
        adjacent = [
            (bodies[i].position - bodies[i + 1].position).length()
            for i in range(len(bodies) - 1)
        ]
        import random
        rng = random.Random(0)
        random_pairs = [
            (bodies[rng.randrange(256)].position
             - bodies[rng.randrange(256)].position).length()
            for _ in range(255)
        ]
        assert (sum(adjacent) / len(adjacent)
                < 0.5 * sum(random_pairs) / len(random_pairs))

    def test_golden_sample_matches_direct(self):
        wl = make_nbody_workload(n_bodies=128, dims=3, seed=4)
        sample = wl.golden_sample(4)
        for body, expected in zip(wl.tree.bodies[:4], sample):
            assert (wl.tree.direct_force_on(body) - expected).length() == 0

    def test_bad_dims(self):
        with pytest.raises(ConfigurationError):
            make_nbody_workload(n_bodies=8, dims=1)

    def test_accelerated_launches_skip_union_walks(self):
        wl = make_nbody_workload(n_bodies=64, dims=3, seed=4)
        args = wl.kernel_args(*wl.jobs("tta"))
        assert args.warp_traces == []
        assert wl._warp_traces is None
        assert len(wl.kernel_args().warp_traces) == 2


class TestPointCloud:
    def test_size_and_determinism(self):
        a = synth_lidar_cloud(1024, seed=5)
        b = synth_lidar_cloud(1024, seed=5)
        c = synth_lidar_cloud(1024, seed=6)
        assert len(a) == 1024
        assert a == b
        assert a != c

    def test_structure_ground_heavy(self):
        cloud = synth_lidar_cloud(4096, seed=7)
        near_ground = sum(1 for p in cloud if abs(p.z) < 0.3)
        assert near_ground > 0.4 * len(cloud)

    def test_range_bounded(self):
        cloud = synth_lidar_cloud(1024, seed=8, max_range=30.0)
        for p in cloud:
            assert math.hypot(p.x, p.y) <= 30.0 * 1.01

    def test_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            synth_lidar_cloud(4)


class TestRTNNWorkload:
    def test_trace_hits_equal_golden(self):
        wl = make_rtnn_workload(n_points=1024, n_queries=64, radius=1.2,
                                seed=9)
        for q in wl.queries[:16]:
            assert wl.trace(q).hits == wl.golden(q)

    def test_queries_are_cloud_points(self):
        wl = make_rtnn_workload(n_points=256, n_queries=32, seed=10)
        point_set = {(p.x, p.y, p.z) for p in wl.points}
        for q in wl.queries:
            assert (q.x, q.y, q.z) in point_set

    def test_every_query_finds_itself(self):
        wl = make_rtnn_workload(n_points=512, n_queries=32, radius=0.5,
                                seed=11)
        for q in wl.queries[:8]:
            assert len(wl.golden(q)) >= 1  # at least the point itself


class TestScenes:
    @pytest.mark.parametrize("builder", [
        make_cornell_scene, make_soup_scene, make_shell_scene,
        make_thin_strips_scene,
    ])
    def test_scene_builders_produce_unique_ids(self, builder):
        tris = builder()
        assert len(tris) > 50
        ids = [t.prim_id for t in tris]
        assert ids == list(range(len(tris)))

    def test_camera_ray_count_and_normalization(self):
        cam = Camera(Vec3(0, 0, -10), Vec3(0, 0, 0))
        rays = cam.rays(8, 6)
        assert len(rays) == 48
        for ray in rays:
            assert ray.direction.length() == pytest.approx(1.0)

    def test_camera_bad_resolution(self):
        cam = Camera(Vec3(0, 0, -10), Vec3(0, 0, 0))
        with pytest.raises(ConfigurationError):
            cam.rays(0, 5)


class TestLumiBench:
    def test_suite_has_representative_kinds(self):
        kinds = {spec.kind for spec in LUMIBENCH_SUITE}
        assert kinds == {"pt", "ao", "sh", "refl", "alpha"}

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            spec_named("TEAPOT")

    def test_workload_traces_nonempty(self):
        wl = make_lumibench_workload("CORNELL_PT", width=4, height=4)
        assert wl.n_rays == 16
        assert wl.total_visits() > 16
        # Path tracing: threads that hit generate bounce traces.
        assert any(len(traces) > 1 for traces in wl.visits_per_thread)

    def test_ship_has_sato_variant_others_do_not(self):
        ship = make_lumibench_workload("SHIP_SH", width=4, height=4)
        assert ship.sato_visits_per_thread is not None
        cornell = make_lumibench_workload("CORNELL_PT", width=4, height=4)
        with pytest.raises(ConfigurationError):
            cornell.kernel_args(flavor="ttaplus", sato=True)

    def test_shadow_workload_has_two_traces_on_hits(self):
        wl = make_lumibench_workload("BUNNY_SH", width=6, height=6)
        for tid, traces in enumerate(wl.visits_per_thread):
            assert len(traces) in (1, 2)

    def test_sato_traces_functionally_consistent(self):
        """SATO reorders traversal; occlusion answers must not change."""
        wl = make_lumibench_workload("SHIP_SH", width=6, height=6)
        for normal, sato in zip(wl.visits_per_thread,
                                wl.sato_visits_per_thread):
            assert len(normal) == len(sato)  # same #rays per thread
            if len(normal) == 2:
                hit_normal = any(v.hit for v in normal[1]
                                 if v.kind == "leaf")
                hit_sato = any(v.hit for v in sato[1] if v.kind == "leaf")
                assert hit_normal == hit_sato


class TestWKND:
    def test_scene_has_ground_sphere(self):
        from repro.workloads.wknd import make_wknd_scene
        spheres = make_wknd_scene(50)
        assert spheres[0].radius == 1000.0
        assert len(spheres) == 50

    def test_primary_rays_mostly_hit(self):
        wl = make_wknd_workload(width=8, height=8, n_spheres=100, bounces=1)
        # Camera aims at the field above the ground sphere: everything
        # below the horizon hits at least the ground.
        hit_threads = sum(1 for traces in wl.visits_per_thread
                          if any(v.hit for v in traces[0]))
        assert hit_threads > wl.n_rays * 0.5

    def test_bounce_traces_bounded_by_depth(self):
        wl = make_wknd_workload(width=6, height=6, n_spheres=60, bounces=2)
        for traces in wl.visits_per_thread:
            assert 1 <= len(traces) <= 3


@given(st.integers(min_value=64, max_value=512),
       st.integers(min_value=0, max_value=100))
@settings(max_examples=10, deadline=None)
def test_property_rtnn_radius_search_correct(n_points, seed):
    wl = make_rtnn_workload(n_points=n_points, n_queries=4, radius=1.0,
                            seed=seed)
    for q in wl.queries:
        assert wl.trace(q).hits == wl.golden(q)
