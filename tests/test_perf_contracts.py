"""Performance contracts of the vectorized/batched hot paths.

Contract families:

* **Model fingerprints** — geometry/rta source edits must flip both the
  exec-cache scheduler fingerprint and the build fingerprint, so stale
  cached results can never be served across vectorized-path changes.
* **Allocation-free driver** — a warm RTA core resubmitted a 4096-job
  batch must not allocate per-job Python objects: the SoA job table
  recycles its slots.
* **Build cost** — constructing the RTNN BVH allocates ``O(node_count)``
  vector/box objects: the builder works on packed arrays, not by
  folding ``AABB.union`` over every candidate split.  It also makes a
  bounded number of Python calls per tree level, not per node.
* **Accelerators where warps run** — a 3-query serve launch builds and
  snapshots one accelerator, not one per SM.
* **Launch-level replay** — repeat launches of a marked kernel over an
  identical workload return byte-identical stats, and replay stays off
  under every environment where a launch is not a pure function of its
  arguments (legacy engine, armed faults, guard overrides).
* **Stream-cache contents** — a baseline run caches whole-warp traces
  and launch records only, never per-thread op recordings.
* **Bytes per query** — a launch of many times the resident warp
  capacity never holds more live thread generators than the resident
  warps' lanes (warps create their generators when an SM slot starts
  them), and a B-Tree baseline warp trace holds one object per distinct
  Compute step.
* **Static op sequences** — B-Tree and N-Body ``gpu`` launches (and a
  serve point launch, which has no stream cache) resume no kernel
  generator at all: their warp traces are built from the search paths
  and union walks.  A TTA+ launch constructs OP units only for the
  unit types its programs use.
* **Tracing overhead** — with tracing off a launch makes no
  ``Tracer.emit`` call at all, and sampled tracing at rate N keeps at
  most one emitted event in N plus the launch markers.
* **Write maintenance** — a churned smoke BVH packs its SoA view once
  per tree (writes and refits derive the next view from the last), and
  BVH and R-Tree refits and quality scores make no ``AABB.union`` call.
* **Batch geometry** — each batch kernel runs a fixed number of Python
  lines whatever the primitive count: the per-primitive work is numpy's.
* **Index forks** — a deep copy of the four primed smoke indexes is a
  fork: it shares the lowered steps, points and boxes and stays within a
  few MB of allocation, where a generic deep copy peaked near 30 MB.

The fast-driver contracts pin the fast engine and drop any guard
override, so they hold on every CI leg.
"""

import collections
import copy
import gc
import math
import pathlib
import random
import shutil
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.geometry import batch
from repro.geometry.aabb import AABB
from repro.geometry.vec import Vec3
from repro.core.ttaplus import program_named
from repro.gpu import GPU, GPUConfig
from repro.gpu.device import KernelStats
from repro.gpu.isa import Compute, Load
from repro.gpu.replay import launch_replay_enabled
from repro.gpu.sm import SM
from repro.gpu.warp import Warp
from repro.harness.runner import (
    run_btree,
    run_nbody,
    run_rtnn,
    scaled_config_for,
)
from repro.kernels.radius_search import radius_query, radius_query_scalar
from repro.memsys.hierarchy import MemoryHierarchy
from repro.mutation import MutableResidentIndex, RebuildPolicy
from repro.mutation.stream import WriteEvent
from repro.obs.tracer import Tracer
from repro.rta import Step, TraversalJob
from repro.rta.rta import RTACore, make_rta_factory
from repro.serve import SERVE_SCALES, build_resident_index
from repro.serve.backends import LaunchBackend
from repro.sim import _model_source_hash, make_simulator, scheduler_fingerprint
from repro.sim.resources import PipelinedUnit
from repro.trees import bvh as bvh_module
from repro.trees.bvh import BVH, BVHArrays
from repro.workloads import (
    make_btree_workload,
    make_nbody_workload,
    make_rtnn_workload,
)

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Packages whose sources feed the model fingerprint.
_FINGERPRINT_PACKAGES = ("sim", "geometry", "rta")


def _pin_fast_engine(monkeypatch):
    """Fast engine, no guard override: the contract under test is the
    fast driver's, whatever engine and guard the environment selects."""
    monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
    monkeypatch.delenv("REPRO_GUARD", raising=False)


def _copy_model_tree(tmp_path) -> pathlib.Path:
    root = tmp_path / "repro"
    for package in _FINGERPRINT_PACKAGES:
        shutil.copytree(_SRC / package, root / package,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


class TestModelFingerprint:
    def test_copy_matches_repo_hashes(self, tmp_path):
        root = _copy_model_tree(tmp_path)
        assert _model_source_hash(root) == _model_source_hash()

    def test_geometry_edit_flips_scheduler_hash(self, tmp_path):
        root = _copy_model_tree(tmp_path)
        before = _model_source_hash(root)
        target = root / "geometry" / "batch.py"
        target.write_text(target.read_text() + "\n# perturbed\n")
        assert _model_source_hash(root) != before

    def test_rta_edit_flips_scheduler_hash(self, tmp_path):
        root = _copy_model_tree(tmp_path)
        before = _model_source_hash(root)
        target = root / "rta" / "rta.py"
        target.write_text(target.read_text() + "\n# perturbed\n")
        assert _model_source_hash(root) != before

    def test_scheduler_fingerprint_folds_model_hash(self):
        assert scheduler_fingerprint().startswith(_model_source_hash())


# -- allocation-free batched driver -------------------------------------------
_CFG = GPUConfig(n_sms=1, max_warps_per_sm=4)
_N_JOBS = 4096


def _make_core():
    sim = make_simulator()
    hierarchy = MemoryHierarchy(sim, _CFG)
    sm = SM(sim, 0, _CFG, hierarchy, KernelStats(), make_rta_factory(tta=True))
    return sim, sm.accelerator


def _single_step_jobs(result):
    return [TraversalJob(qid, [Step(0x10000 + qid * 64, 64, "box")], result)
            for qid in range(_N_JOBS)]


class TestAllocationFreeDriver:
    def test_warm_resubmission_allocates_no_per_job_objects(self,
                                                            monkeypatch):
        _pin_fast_engine(monkeypatch)
        sim, core = _make_core()
        core.submit(sim.now, _single_step_jobs("warm"))
        sim.run()
        assert core.jobs_completed == _N_JOBS
        capacity = core._jobs.capacity

        second = _single_step_jobs("again")  # built outside the window
        # A full collection empties the interpreter's free lists (floats,
        # tuples, ...).  Blocks parked there stay "allocated" to
        # tracemalloc under the line that first allocated them, so
        # without this the counts below depend on the free-list history
        # left by earlier tests.  Collecting on both sides of the window
        # fixes the starting state and leaves only live objects counted.
        gc.collect()
        tracemalloc.start()
        core.submit(sim.now, second)
        sim.run()
        _, peak = tracemalloc.get_traced_memory()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()

        assert core.jobs_completed == 2 * _N_JOBS
        # Slot recycling: the table must not have grown a single slot.
        assert core._jobs.capacity == capacity
        assert len(core._jobs.free) == capacity
        # O(1) allocation *count* from the driver: a per-job state
        # object would leave ~N_JOBS blocks attributed to rta.py; the
        # table driver leaves a handful (the jobs-list copy, the batch,
        # the results list, one pending-set rebuild).
        rta_blocks = sum(
            stat.count for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename.endswith("rta.py"))
        assert rta_blocks < 64, f"{rta_blocks} live blocks from rta.py"
        # Peak envelope: the fixed costs above are ~130 B/job at this
        # batch size; per-job driver objects add 100+ B/job on top, so
        # 160 B/job separates the two regimes with margin for noise.
        assert peak < 160 * _N_JOBS, \
            f"peak {peak}B for {_N_JOBS} jobs (> 160B/job)"


# -- BVH build cost -------------------------------------------------------------
class TestBVHBuildCost:
    def test_rtnn_build_allocations_scale_with_node_count(self, monkeypatch):
        counts = {"vec3": 0, "union": 0}
        vec3_init, aabb_union = Vec3.__init__, AABB.union

        def counting_init(self, *args, **kwargs):
            counts["vec3"] += 1
            vec3_init(self, *args, **kwargs)

        def counting_union(self, other):
            counts["union"] += 1
            return aabb_union(self, other)

        monkeypatch.setattr(Vec3, "__init__", counting_init)
        monkeypatch.setattr(AABB, "union", counting_union)
        wl = make_rtnn_workload(n_points=2048, n_queries=64, seed=0)
        nodes = wl.bvh.node_count
        # Per point: the point, its sphere's bounds (three vectors); per
        # node: its bounds (two).  A scalar fold over candidate splits
        # makes ~250k unions and ~600k vectors here.
        assert counts["union"] <= nodes
        assert counts["vec3"] <= 4 * (nodes + len(wl.points)), counts

    def test_sah_build_makes_a_bounded_number_of_calls_per_level(self):
        wl = make_rtnn_workload(n_points=2048, n_queries=64, seed=0)
        spheres = wl.bvh.primitives
        calls = [0]

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_filename == bvh_module.__file__ \
                    and code.co_name != "__init__":
                calls[0] += 1

        sys.setprofile(profile)
        try:
            bvh = BVH(spheres, max_leaf_size=wl.bvh.max_leaf_size,
                      method="sah")
        finally:
            sys.setprofile(None)
        assert bvh.node_count > 1000 and len(spheres) == 2048
        # At least one call per level (the profile hook sees the
        # module); a builder that recurses per node makes ~16k here.
        assert bvh.depth() <= calls[0] <= 10 * bvh.depth(), \
            (calls[0], bvh.depth())


# -- accelerators only where warps run ------------------------------------------
class TestAcceleratorsWhereWarpsRun:
    @pytest.mark.parametrize("platform", ["tta", "ttaplus"])
    def test_three_query_serve_launch_builds_one_accelerator(
            self, monkeypatch, platform):
        index = build_resident_index(
            "point", dict(SERVE_SCALES["smoke"]["point"], seed=0))
        counts = collections.Counter()
        core_init, core_snapshot = RTACore.__init__, RTACore.snapshot

        def counting_init(self, *args, **kwargs):
            counts["factory"] += 1
            core_init(self, *args, **kwargs)

        def counting_snapshot(self, end):
            counts["snapshot"] += 1
            return core_snapshot(self, end)

        monkeypatch.setattr(RTACore, "__init__", counting_init)
        monkeypatch.setattr(RTACore, "snapshot", counting_snapshot)
        launch = LaunchBackend(platform).launch(index, [0, 1, 2])
        assert not launch.failed and launch.stats.cycles > 0
        # One warp runs, on SM 0: one core, one snapshot (not 8 each).
        assert counts == {"factory": 1, "snapshot": 1}, counts


# -- write maintenance cost ------------------------------------------------------
class TestWriteMaintenanceCost:
    @pytest.mark.parametrize("query_class", ["radius", "range"])
    def test_churn_derives_views_and_refits_without_unions(
            self, monkeypatch, query_class):
        """A seeded 30-write churn on a smoke index, refit every 3
        writes (quality scored at each maintenance point), the read
        path taking the BVH view after every write."""
        index = build_resident_index(
            query_class, dict(SERVE_SCALES["smoke"][query_class], seed=0))
        mut = MutableResidentIndex(
            index, policy=RebuildPolicy(mode="writes", write_threshold=12),
            refit_threshold=3)
        counts = {"packs": 0, "union": 0}
        phase = [False]
        arrays_init, aabb_union = BVHArrays.__init__, AABB.union

        def counting_init(self, *args):
            counts["packs"] += 1
            arrays_init(self, *args)

        def counting_union(self, other):
            counts["union"] += phase[0]
            return aabb_union(self, other)

        def in_phase(func):
            def wrapper(*args, **kwargs):
                phase[0] = True
                try:
                    return func(*args, **kwargs)
                finally:
                    phase[0] = False
            return wrapper

        monkeypatch.setattr(BVHArrays, "__init__", counting_init)
        monkeypatch.setattr(AABB, "union", counting_union)
        for name in ("refit", "quality"):
            monkeypatch.setattr(mut.mutator, name,
                                in_phase(getattr(mut.mutator, name)))
        rng = random.Random(0)
        for k in range(30):
            mut.apply(WriteEvent(0.01 * k, query_class,
                                 ("insert", "insert", "delete")[k % 3],
                                 k, True), rng)
            mut.ensure_ready(0.01 * k)
            if query_class == "radius":
                wl = index.workload
                radius_query(wl.bvh, wl.queries[k % wl.n_queries], wl.radius)
        assert mut.refits >= 5 and mut.rebuilds >= 1
        # One pack per tree: writes and refits derive the next view.
        # A scalar refit of the smoke BVH makes ~1.4k unions.
        assert counts["packs"] <= 1 + mut.rebuilds, counts
        assert counts["union"] == 0, counts


# -- index forks --------------------------------------------------------------
class TestIndexForkCost:
    def test_deep_copy_of_smoke_indexes_allocates_under_5mb(self):
        indexes = {}
        for cls, params in SERVE_SCALES["smoke"].items():
            index = build_resident_index(cls, dict(params, seed=0))
            for flavor in ("tta", "ttaplus"):
                index.batch_jobs(range(index.n_canonical), flavor)
            indexes[cls] = index
        gc.collect()
        tracemalloc.start()
        try:
            forks = copy.deepcopy(indexes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(forks) == sorted(indexes)
        assert peak < 5 * 2**20, f"fork peak {peak / 2**20:.1f} MB"


# -- N-Body walk cost -----------------------------------------------------------
class TestNBodyWalkCost:
    @pytest.mark.parametrize("platform", ["gpu", "tta", "ttaplus"])
    def test_runs_construct_one_vector_per_body(self, monkeypatch, platform):
        wl = make_nbody_workload(n_bodies=384, dims=3, seed=2)
        count = [0]
        vec3_init = Vec3.__init__

        def counting_init(self, *args, **kwargs):
            count[0] += 1
            vec3_init(self, *args, **kwargs)

        monkeypatch.setattr(Vec3, "__init__", counting_init)
        run_nbody(wl, platform, verify=False)
        # One acceleration per body.  Scalar per-body walks build
        # ~256k vectors on gpu here.
        assert count[0] <= wl.n_bodies + 64, count[0]


# -- static op sequences -------------------------------------------------------
class TestStaticOpSequenceCost:
    def test_btree_nbody_gpu_runs_no_generators(self, monkeypatch):
        primed = [0]
        prime = Warp.prime

        def counting_prime(self):
            primed[0] += 1
            prime(self)

        monkeypatch.setattr(Warp, "prime", counting_prime)
        btree = make_btree_workload("btree", n_keys=512, n_queries=100,
                                    seed=9)
        run_btree(btree, "gpu")
        nbody = make_nbody_workload(n_bodies=100, dims=3, seed=2)
        run_nbody(nbody, "gpu", fused_post_insts=4)
        # A serve point launch carries no stream cache.
        index = build_resident_index("point", SERVE_SCALES["smoke"]["point"])
        launch = LaunchBackend("gpu").launch(index, list(range(40)))
        assert not launch.failed
        # The warp builders emit every warp's trace from the search
        # paths and union walks: no lane's generator is ever resumed.
        assert primed[0] == 0
        run_btree(btree, "tta")
        assert primed[0] == math.ceil(100 / 32)  # the control

    def test_btree_ttaplus_launch_builds_only_used_op_units(self,
                                                           monkeypatch):
        wl = make_btree_workload("btree", n_keys=512, n_queries=128, seed=9)
        built = collections.Counter()
        unit_init = PipelinedUnit.__init__

        def counting_init(self, name, *args, **kwargs):
            built[name.split("[")[0]] += 1
            unit_init(self, name, *args, **kwargs)

        monkeypatch.setattr(PipelinedUnit, "__init__", counting_init)
        result = run_btree(wl, "ttaplus", verify=False)
        used = {uop.unit for name in ("btree_inner", "btree_leaf")
                for uop in program_named(name).uops}
        assert result.stats.accel_stats["uop_tests_run"] > 0
        assert set(built) == used, built
        # Whole pools, on the SMs whose warps issued (4 of 8 here).
        config = scaled_config_for(wl.image.size_bytes)
        assert len(set(built.values())) == 1, built
        count = built.popitem()[1]
        assert count % config.intersection_sets == 0
        assert count <= config.n_sms * config.intersection_sets


# -- tracing overhead ----------------------------------------------------------
_TRACE_RATE = 16


def _run_btree_platforms(tracer=None):
    """One fresh-workload launch per B-Tree platform (nothing replayed)."""
    for platform in ("gpu", "tta", "ttaplus"):
        wl = make_btree_workload("btree", n_keys=512, n_queries=256, seed=9)
        run_btree(wl, platform, verify=False, tracer=tracer)


class TestTracingOverhead:
    @pytest.fixture()
    def emit_calls(self, monkeypatch):
        calls = [0]
        emit = Tracer.emit

        def counting_emit(self, *args, **kwargs):
            calls[0] += 1
            emit(self, *args, **kwargs)

        monkeypatch.setattr(Tracer, "emit", counting_emit)
        return calls

    def test_tracing_off_makes_no_emit_calls(self, emit_calls):
        _run_btree_platforms()
        # Off, every emit point is one is-None branch: a launch that
        # attaches any tracer shows up here as thousands of calls.
        assert emit_calls[0] == 0

    def test_sampled_tracing_keeps_one_event_per_rate(self, emit_calls):
        tracer = Tracer(rate=_TRACE_RATE)
        _run_btree_platforms(tracer)
        launches = len(tracer.launches)
        assert launches == 3
        assert emit_calls[0] > 0
        assert tracer.events_kept <= \
            math.ceil(emit_calls[0] / _TRACE_RATE) + launches


# -- batch geometry ------------------------------------------------------------
def _batch_lines(kernel, *args) -> int:
    """Python ``line`` events executed inside ``geometry/batch.py``."""
    lines = [0]

    def local(frame, event, arg):
        if event == "line":
            lines[0] += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == batch.__file__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        kernel(*args)
    finally:
        sys.settrace(previous)
    return lines[0]


def _batch_kernel_args(name: str, n: int):
    rng = np.random.default_rng(5)
    origin = np.zeros(3)
    direction = np.array((0.48, 0.64, 0.6))
    cloud = rng.uniform(-10.0, 10.0, size=(n, 3))
    if name == "ray_aabb_slab_batch":
        lo = cloud - rng.uniform(0.1, 3.0, size=(n, 3))
        return (origin, 1.0 / direction, 0.0, np.inf, lo,
                lo + rng.uniform(0.1, 3.0, size=(n, 3)))
    if name == "point_distance_below_batch":
        return origin, cloud, 5.0
    if name == "ray_sphere_batch":
        return (origin, direction, 0.0, np.inf, cloud,
                rng.uniform(0.1, 3.0, size=n))
    return (origin, direction, 0.0, np.inf, cloud,
            rng.uniform(-10.0, 10.0, size=(n, 3)),
            rng.uniform(-10.0, 10.0, size=(n, 3)))


class TestBatchGeometryVectorized:
    @pytest.mark.parametrize("name", [
        "ray_aabb_slab_batch",
        "point_distance_below_batch",
        "ray_sphere_batch",
        "ray_triangle_batch",
    ])
    def test_python_lines_do_not_grow_with_primitive_count(self, name):
        kernel = getattr(batch, name)
        small = _batch_lines(kernel, *_batch_kernel_args(name, 64))
        large = _batch_lines(kernel, *_batch_kernel_args(name, 4096))
        # A per-primitive Python loop executes ~N lines per call.
        assert small > 0
        assert small == large, (small, large)


# -- launch-level replay ------------------------------------------------------
class TestLaunchReplay:
    def test_repeat_tta_launch_is_identical_and_recorded(self, monkeypatch):
        _pin_fast_engine(monkeypatch)
        wl = make_btree_workload("btree", n_keys=512, n_queries=128, seed=9)
        first = run_btree(wl, "tta")
        assert any(isinstance(key, tuple) and key and key[0] == "__launch__"
                   for key in wl._stream_cache)
        second = run_btree(wl, "tta")  # verify=True checks results again
        assert second.stats.cycles == first.stats.cycles
        assert second.stats.warp_instructions.as_dict() == \
            first.stats.warp_instructions.as_dict()
        assert second.stats.accel_stats["jobs_completed"] == \
            first.stats.accel_stats["jobs_completed"]

    def test_replayed_stats_are_fresh_objects(self):
        wl = make_rtnn_workload(n_points=256, n_queries=32, seed=4)
        first = run_rtnn(wl, "rta")
        second = run_rtnn(wl, "rta")
        assert second.stats is not first.stats
        second.stats.cycles = -1.0  # mutating a replay must not poison
        third = run_rtnn(wl, "rta")
        assert third.stats.cycles == first.stats.cycles

    def test_enabled_by_default(self, monkeypatch):
        _pin_fast_engine(monkeypatch)
        assert launch_replay_enabled()

    def test_disabled_under_legacy_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CORE", "legacy")
        assert not launch_replay_enabled()

    def test_disabled_under_armed_faults(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "stall:q3")
        assert not launch_replay_enabled()

    def test_disabled_under_guard_override(self, monkeypatch):
        # A replayed launch skips the guard, so a non-default mode
        # (CI's strict leg) simulates every launch.
        monkeypatch.setenv("REPRO_GUARD", "strict")
        assert not launch_replay_enabled()


# -- stream-cache contents -----------------------------------------------------
class TestStreamCacheContents:
    def test_baseline_runs_cache_only_warp_traces_and_launches(self):
        # A workload's stream cache holds whole-warp schedules and launch
        # records; per-thread op recordings would keep every thread's
        # op list alive for the workload's lifetime.
        btree = make_btree_workload("btree", n_keys=512, n_queries=100,
                                    seed=9)
        run_btree(btree, "gpu")
        nbody = make_nbody_workload(n_bodies=100, dims=3, seed=2)
        run_nbody(nbody, "gpu")
        caches = [btree._stream_cache, *nbody._stream_caches.values()]
        assert all(caches)
        for cache in caches:
            for key in cache:
                assert isinstance(key, tuple) and \
                    key[0] in ("__warp__", "__launch__"), key


# -- bytes per query ----------------------------------------------------------
class TestBytesPerQuery:
    def test_launch_holds_only_resident_warps_generators(self):
        config = GPUConfig(n_sms=2, max_warps_per_sm=2)
        capacity = config.n_sms * config.max_warps_per_sm * config.warp_size
        live = weakref.WeakSet()
        peak = [0]

        def lane(tid):
            yield Compute(2 + tid % 3, 1, kind="alu")
            yield Load(0x1000 + 128 * tid, 4, 2)
            yield Compute(1, 3, kind="control")

        def kernel(tid, args):
            thread = lane(tid)
            live.add(thread)
            peak[0] = max(peak[0], len(live))
            return thread

        stats = GPU(config).launch(kernel, 8 * capacity)
        assert stats.notes["n_warps"] == 8 * capacity // config.warp_size
        assert stats.warp_instructions.as_dict()["control"] == \
            stats.notes["n_warps"]
        # Generators built at launch for every warp would peak at
        # 8 * capacity here.
        assert 0 < peak[0] <= capacity, (peak[0], capacity)

    def test_btree_baseline_trace_interns_compute_steps(self):
        wl = make_btree_workload("btree", n_keys=512, n_queries=256, seed=9)
        run_btree(wl, "gpu")
        traces = [trace for key, trace in wl._stream_cache.items()
                  if key[0] == "__warp__"]
        assert len(traces) == 256 // 32
        for trace in traces:
            compute = [step for step in trace.steps if step[0] == 0]
            assert len(compute) > len(set(compute))  # repeats to share
            assert len({id(step) for step in compute}) == len(set(compute))
            loads = [step for step in trace.steps if step[0] == 1]
            assert loads and all(type(step[2]) is tuple for step in loads)


# -- vectorized radius query --------------------------------------------------
class TestRadiusQueryParity:
    def test_vectorized_matches_scalar_trace_for_trace(self):
        wl = make_rtnn_workload(n_points=512, n_queries=24, seed=11)
        for query in wl.queries:
            fast = radius_query(wl.bvh, query, wl.radius)
            slow = radius_query_scalar(wl.bvh, query, wl.radius)
            assert fast.hits == slow.hits
            assert fast.visits == slow.visits
