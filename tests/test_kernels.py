"""Tests for the software kernels and job builders."""

from dataclasses import dataclass, field

import pytest

from repro.errors import ConfigurationError
from repro.gpu import GPU, GPUConfig
from repro.gpu.isa import Compute
from repro.kernels import common
from repro.kernels.btree_search import build_btree_jobs, btree_baseline_kernel
from repro.kernels.nbody_walk import (
    _DIST_TEST_ALU,
    _FORCE_ALU,
    _FORCE_SFU,
    _OPEN_CONTROL,
    build_nbody_jobs,
    build_union_walk,
    nbody_baseline_kernel,
)
from repro.kernels.radius_search import build_radius_jobs, radius_query
from repro.kernels.ray_trace import build_rt_jobs
from repro.trees.layout import NODE_STRIDE
from repro.workloads import (
    make_btree_workload,
    make_nbody_workload,
    make_rtnn_workload,
)

from tests.octree_reference import warp_walk

CFG = GPUConfig(n_sms=2)


@dataclass
class _RefNBodyArgs:
    tree: object
    body_buf: int
    accel_buf: int
    fused_post_insts: int
    warp_size: int = 32
    results: dict = field(default_factory=dict)


def _reference_nbody_kernel(tid, args):
    """The baseline kernel as a per-visit generator over the scalar
    warp walk and the scalar force walk."""
    tree, ws = args.tree, args.warp_size
    first = tid - tid % ws
    visits = warp_walk(tree, tree.bodies[first:first + ws])
    yield from common.prologue(args.body_buf + tid * 16, setup_alu=6)
    for event in visits:
        yield from common.visit_header(event.node.address, NODE_STRIDE)
        if event.kind == "inner":
            yield Compute(_DIST_TEST_ALU, common.TAG_INNER, kind="alu")
            yield Compute(_OPEN_CONTROL, common.TAG_INNER_NEXT,
                          kind="control")
            if not event.opened:
                yield Compute(_FORCE_ALU, common.TAG_INNER_NEXT, kind="alu")
                yield Compute(_FORCE_SFU, common.TAG_INNER_NEXT, kind="sfu")
        else:
            yield Compute(_FORCE_ALU, common.TAG_LEAF, kind="alu")
            yield Compute(_FORCE_SFU, common.TAG_LEAF, kind="sfu")
    if args.fused_post_insts:
        yield Compute(args.fused_post_insts, common.TAG_EPILOGUE - 1,
                      kind="alu")
    yield from common.epilogue(args.accel_buf + tid * 12)
    args.results[tid] = tree.force_on(tree.bodies[tid]).acceleration


class TestBTreeKernel:
    def test_baseline_kernel_produces_correct_results(self):
        wl = make_btree_workload("btree", n_keys=512, n_queries=128, seed=5)
        args = wl.kernel_args()
        GPU(CFG).launch(btree_baseline_kernel, wl.n_queries, args=args)
        assert [args.results[i] for i in range(128)] == wl.golden

    def test_jobs_follow_search_paths(self):
        wl = make_btree_workload("btree", n_keys=512, n_queries=32, seed=6)
        jobs = build_btree_jobs(wl.tree, wl.queries, flavor="tta")
        for qid, job in enumerate(jobs):
            trace = wl.tree.search(wl.queries[qid])
            assert len(job.steps) == len(trace.path)
            assert job.result == trace.found
            for step, node in zip(job.steps, trace.path):
                assert step.address == node.address
                assert step.op == "query_key"

    def test_ttaplus_jobs_distinguish_leaf(self):
        wl = make_btree_workload("bplus", n_keys=512, n_queries=16, seed=7)
        jobs = build_btree_jobs(wl.tree, wl.queries, flavor="ttaplus")
        for job in jobs:
            assert job.steps[-1].op == "uop:btree_leaf"
            for step in job.steps[:-1]:
                assert step.op == "uop:btree_inner"

    def test_rta_flavor_rejected(self):
        wl = make_btree_workload("btree", n_keys=64, n_queries=4)
        with pytest.raises(ConfigurationError):
            build_btree_jobs(wl.tree, wl.queries, flavor="rta")


class TestNBodyKernel:
    def test_warp_traces_are_union_walks(self):
        wl = make_nbody_workload(n_bodies=128, dims=2, seed=8)
        walk = build_union_walk(wl.tree, warp_size=32)
        assert len(walk.offsets) == 4 + 1
        # The union walk must visit at least as many nodes as any lane:
        # a warp's node fetches cover every lane's own visits.
        for w, (lo, hi) in enumerate(zip(walk.offsets, walk.offsets[1:])):
            union_addrs = {walk.address[visit // 3]
                           for visit in walk.visits[lo:hi].tolist()}
            for body in wl.tree.bodies[w * 32:(w + 1) * 32]:
                lane_addrs = {e.node.address
                              for e in wl.tree.force_on(body).visits}
                assert lane_addrs <= union_addrs

    @pytest.mark.parametrize("fused", [0, 120])
    def test_baseline_kernel_matches_per_visit_reference(self, fused):
        wl = make_nbody_workload(n_bodies=80, dims=3, seed=8)
        args = wl.kernel_args(fused_post_insts=fused)
        stats = GPU(CFG).launch(nbody_baseline_kernel, wl.n_bodies,
                                args=args)
        ref_args = _RefNBodyArgs(wl.tree, wl.body_buf, wl.accel_buf, fused)
        ref = GPU(CFG).launch(_reference_nbody_kernel, wl.n_bodies,
                              args=ref_args)
        assert stats.cycles == ref.cycles
        assert stats.warp_instructions.as_dict() == \
            ref.warp_instructions.as_dict()
        assert stats.metrics.as_dict() == ref.metrics.as_dict()
        assert args.results == ref_args.results

    def test_tta_jobs_report_interactions(self):
        wl = make_nbody_workload(n_bodies=64, dims=3, seed=9)
        jobs, interactions = build_nbody_jobs(wl.tree, flavor="tta")
        assert len(jobs) == len(interactions) == 64
        for job, n in zip(jobs, interactions):
            assert n > 0
            assert all(s.op in ("point_dist",) for s in job.steps)

    def test_ttaplus_jobs_use_uops(self):
        wl = make_nbody_workload(n_bodies=64, dims=3, seed=9)
        jobs, interactions = build_nbody_jobs(wl.tree, flavor="ttaplus")
        assert interactions == []
        ops = {s.op for job in jobs for s in job.steps}
        assert ops == {"uop:nbody_inner", "uop:nbody_leaf"}

    def test_bad_flavor_rejected(self):
        wl = make_nbody_workload(n_bodies=16, dims=2)
        with pytest.raises(ConfigurationError):
            build_nbody_jobs(wl.tree, flavor="rta")


class TestRadiusKernel:
    def test_radius_query_matches_brute_force(self):
        wl = make_rtnn_workload(n_points=512, n_queries=32, radius=1.5,
                                seed=10)
        for q in wl.queries[:16]:
            trace = radius_query(wl.bvh, q, wl.radius)
            assert trace.hits == wl.golden(q)

    def test_flavors_differ_only_in_ops(self):
        wl = make_rtnn_workload(n_points=256, n_queries=8, seed=11)
        by_flavor = {f: build_radius_jobs(wl.bvh, wl.queries, wl.radius,
                                          flavor=f)
                     for f in ("rta", "tta", "ttaplus", "ttaplus_opt")}
        for qid in range(8):
            lengths = {len(by_flavor[f][qid].steps) for f in by_flavor}
            assert len(lengths) == 1, "same traversal, same step count"
            assert by_flavor["rta"][qid].result == \
                by_flavor["ttaplus_opt"][qid].result
        assert any(s.op == "shader" for s in by_flavor["rta"][0].steps)
        assert any(s.op == "point_dist" for s in by_flavor["tta"][0].steps)
        assert any(s.op == "uop:rtnn_leaf"
                   for s in by_flavor["ttaplus_opt"][0].steps)

    def test_unknown_flavor(self):
        wl = make_rtnn_workload(n_points=64, n_queries=2)
        with pytest.raises(ConfigurationError):
            build_radius_jobs(wl.bvh, wl.queries, wl.radius, flavor="x")


class TestRayTraceJobs:
    def visits(self):
        from repro.workloads import make_wknd_workload
        wl = make_wknd_workload(width=4, height=4, n_spheres=40, bounces=1)
        for traces in wl.visits_per_thread:
            if any(v.kind == "leaf" for v in traces[0]):
                return traces[0]
        raise AssertionError("no ray reached a leaf")

    def test_sphere_geometry_shader_on_rta(self):
        job = build_rt_jobs(self.visits(), True, 0, flavor="rta",
                            leaf_geometry="sphere")
        leaf_ops = {s.op for s in job.steps if s.op != "box"}
        assert leaf_ops <= {"shader"}

    def test_sphere_geometry_uop_on_opt(self):
        job = build_rt_jobs(self.visits(), True, 0, flavor="ttaplus_opt",
                            leaf_geometry="sphere")
        assert any(s.op == "uop:raysphere" for s in job.steps)
        assert not any(s.op == "shader" for s in job.steps)

    def test_xforms_prepended(self):
        job = build_rt_jobs(self.visits(), True, 0, flavor="ttaplus",
                            leaf_geometry="sphere", xforms=2)
        assert [s.op for s in job.steps[:2]] == ["uop:xform", "uop:xform"]

    def test_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            build_rt_jobs([], True, 0, flavor="warp9")
        with pytest.raises(ConfigurationError):
            build_rt_jobs([], True, 0, leaf_geometry="torus")
