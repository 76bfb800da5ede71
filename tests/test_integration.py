"""End-to-end integration tests: every workload on every platform.

These runs are small but complete — workload generation, job lowering,
kernel launch, accelerator timing, functional verification against the
golden references (done inside the runners), and the paper's headline
*shapes* at smoke scale.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.geometry.vec import Vec3
from repro.harness.runner import (
    run_btree,
    run_lumibench,
    run_nbody,
    run_rtnn,
    run_wknd,
    scaled_config_for,
)
from repro.gpu.config import GPUConfig
from repro.workloads import (
    make_btree_workload,
    make_lumibench_workload,
    make_nbody_workload,
    make_rtnn_workload,
    make_wknd_workload,
)

RT_CFG = GPUConfig().with_overrides(l1_size=512, l2_size=4096, l2_assoc=8)


@pytest.fixture(scope="module")
def btree_wl():
    return make_btree_workload("btree", n_keys=2048, n_queries=2048, seed=1)


@pytest.fixture(scope="module")
def nbody_wl():
    return make_nbody_workload(n_bodies=256, dims=3, seed=2, theta=0.7)


@pytest.fixture(scope="module")
def rtnn_wl():
    return make_rtnn_workload(n_points=1024, n_queries=256, radius=1.0,
                              seed=3)


@pytest.fixture(scope="module")
def wknd_wl():
    return make_wknd_workload(width=8, height=8, n_spheres=120, bounces=1)


class TestBTreeEndToEnd:
    def test_all_platforms_verify_and_tta_wins(self, btree_wl):
        cfg = scaled_config_for(btree_wl.image.size_bytes)
        base = run_btree(btree_wl, "gpu", config=cfg)
        tta = run_btree(btree_wl, "tta", config=cfg)
        tp = run_btree(btree_wl, "ttaplus", config=cfg)
        assert tta.speedup_over(base) > 1.2
        assert tp.speedup_over(base) > 1.0
        # TTA+ trades a little performance for programmability.
        assert tp.cycles >= tta.cycles * 0.95

    def test_dram_utilization_roughly_doubles(self, btree_wl):
        cfg = scaled_config_for(btree_wl.image.size_bytes)
        base = run_btree(btree_wl, "gpu", config=cfg)
        tta = run_btree(btree_wl, "tta", config=cfg)
        assert tta.dram_utilization > 1.4 * base.dram_utilization

    def test_instruction_reduction_matches_fig20(self, btree_wl):
        cfg = scaled_config_for(btree_wl.image.size_bytes)
        base = run_btree(btree_wl, "gpu", config=cfg)
        tta = run_btree(btree_wl, "tta", config=cfg)
        reduction = 1 - (tta.stats.total_warp_instructions
                         / base.stats.total_warp_instructions)
        assert reduction > 0.85  # paper: ~91%
        tta_share = (tta.stats.warp_instructions.get("tta")
                     / tta.stats.total_warp_instructions)
        assert tta_share < 0.10  # paper: ~2%

    def test_bad_platform(self, btree_wl):
        with pytest.raises(ConfigurationError):
            run_btree(btree_wl, "rta")

    @pytest.mark.parametrize("variant", ["bstar", "bplus"])
    def test_variants_run_end_to_end(self, variant):
        wl = make_btree_workload(variant, n_keys=1024, n_queries=512, seed=4)
        base = run_btree(wl, "gpu")
        tta = run_btree(wl, "tta")
        assert tta.speedup_over(base) > 1.0


class TestNBodyEndToEnd:
    def test_platforms_and_speedup_band(self, nbody_wl):
        cfg = scaled_config_for(nbody_wl.image.size_bytes)
        base = run_nbody(nbody_wl, "gpu", config=cfg)
        tta = run_nbody(nbody_wl, "tta", config=cfg)
        tp = run_nbody(nbody_wl, "ttaplus", config=cfg)
        assert base.simt_efficiency > 0.9  # warp-voting keeps warps converged
        assert 0.9 < tta.speedup_over(base) < 6.0
        assert 0.8 < tp.speedup_over(base) < 6.0

    def test_fusion_improves_ttaplus(self, nbody_wl):
        cfg = scaled_config_for(nbody_wl.image.size_bytes)
        fused = run_nbody(nbody_wl, "ttaplus", config=cfg,
                          fused_post_insts=100)
        unfused = run_nbody(nbody_wl, "ttaplus", config=cfg)
        base_f = run_nbody(nbody_wl, "gpu", config=cfg,
                           fused_post_insts=100)
        # With post-processing in the picture, the accelerated version
        # overlaps it with traversal and gains more.
        gain_with_post = base_f.cycles / fused.cycles
        assert gain_with_post > 0.8

    @pytest.mark.parametrize("platform", ["gpu", "tta", "ttaplus"])
    def test_golden_check_catches_one_ulp_force_error(self, platform):
        wl = make_nbody_workload(n_bodies=64, dims=3, seed=5)
        walk = wl.tree.body_walk()
        accelerations = list(walk.accelerations)
        a = accelerations[0]  # body 0 is always sampled
        accelerations[0] = Vec3(math.nextafter(a.x, math.inf), a.y, a.z)
        wl.tree._memo["walk"] = walk._replace(
            accelerations=tuple(accelerations))
        with pytest.raises(AssertionError, match="body 0: force mismatch"):
            run_nbody(wl, platform)


class TestRTNNEndToEnd:
    def test_all_five_platforms(self, rtnn_wl):
        cfg = scaled_config_for(rtnn_wl.image.size_bytes, pressure=20.0)
        runs = {p: run_rtnn(rtnn_wl, p, config=cfg)
                for p in ("gpu", "rta", "tta", "ttaplus", "ttaplus_opt")}
        # RTNN's ordering story: RTA beats CUDA; TTA beats RTA; the naive
        # TTA+ port slows down; *RTNN recovers.
        assert runs["rta"].cycles < runs["gpu"].cycles
        assert runs["tta"].cycles < runs["rta"].cycles
        assert runs["ttaplus"].cycles > runs["tta"].cycles
        assert runs["ttaplus_opt"].cycles < runs["ttaplus"].cycles


class TestRayTracingEndToEnd:
    def test_wknd_naive_slower_opt_recovers(self, wknd_wl):
        rta = run_wknd(wknd_wl, "rta", config=RT_CFG)
        naive = run_wknd(wknd_wl, "ttaplus", config=RT_CFG)
        opt = run_wknd(wknd_wl, "ttaplus_opt", config=RT_CFG)
        assert naive.cycles > rta.cycles          # naive port: slowdown
        assert opt.cycles < naive.cycles          # *WKND_PT improves

    def test_wknd_limit_study_orders(self, wknd_wl):
        normal = run_wknd(wknd_wl, "ttaplus_opt", config=RT_CFG)
        perf_rt = run_wknd(wknd_wl, "ttaplus_opt", config=RT_CFG,
                           perfect_node_fetch=True)
        perf_mem = run_wknd(wknd_wl, "ttaplus_opt", config=RT_CFG,
                            perfect_mem=True)
        assert perf_rt.cycles < normal.cycles
        assert perf_mem.cycles < normal.cycles

    def test_lumibench_ttaplus_modest_slowdown(self):
        wl = make_lumibench_workload("CORNELL_PT", width=8, height=8)
        rta = run_lumibench(wl, "rta", config=RT_CFG)
        tp = run_lumibench(wl, "ttaplus", config=RT_CFG)
        ratio = rta.cycles / tp.cycles
        assert 0.6 < ratio < 1.05  # paper: ~0.92 on average

    def test_lumibench_gpu_software_is_slowest(self):
        wl = make_lumibench_workload("BUNNY_SH", width=8, height=8)
        sw = run_lumibench(wl, "gpu", config=RT_CFG)
        rta = run_lumibench(wl, "rta", config=RT_CFG)
        assert rta.cycles < sw.cycles

    def test_bad_platform(self, wknd_wl):
        with pytest.raises(ConfigurationError):
            run_wknd(wknd_wl, "gpu")
