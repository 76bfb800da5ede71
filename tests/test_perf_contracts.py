"""Performance contracts of the vectorized/batched hot paths.

Five families:

* **Model fingerprints** — geometry/rta source edits must flip both the
  exec-cache scheduler fingerprint and the build fingerprint, so stale
  cached results can never be served across vectorized-path changes.
* **Allocation-free driver** — a warm RTA core resubmitted a 4096-job
  batch must not allocate per-job Python objects: the SoA job table
  recycles its slots.
* **Build cost** — constructing the RTNN BVH allocates ``O(node_count)``
  vector/box objects: the builder works on packed arrays, not by
  folding ``AABB.union`` over every candidate split.
* **Launch-level replay** — repeat launches of a marked kernel over an
  identical workload return byte-identical stats, and replay stays off
  under every environment where a launch is not a pure function of its
  arguments (legacy engine, armed faults, guard overrides).
* **Stream-cache contents** — a baseline run caches whole-warp traces
  and launch records only, never per-thread op recordings.

The fast-driver contracts pin the fast engine and drop any guard
override, so they hold on every CI leg.
"""

import gc
import os
import pathlib
import shutil
import tracemalloc

from repro.exec.cache import build_fingerprint
from repro.geometry.aabb import AABB
from repro.geometry.vec import Vec3
from repro.gpu import GPUConfig
from repro.gpu.device import KernelStats
from repro.gpu.replay import launch_replay_enabled
from repro.gpu.sm import SM
from repro.harness.runner import run_btree, run_nbody, run_rtnn
from repro.kernels.radius_search import radius_query, radius_query_scalar
from repro.memsys.hierarchy import MemoryHierarchy
from repro.rta import Step, TraversalJob
from repro.rta.rta import make_rta_factory
from repro.sim import _model_source_hash, make_simulator, scheduler_fingerprint
from repro.workloads import (
    make_btree_workload,
    make_nbody_workload,
    make_rtnn_workload,
)

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Packages whose sources feed either fingerprint (superset is fine:
#: the hash functions only glob what they cover).
_FINGERPRINT_PACKAGES = ("sim", "geometry", "rta", "trees", "workloads")


def _pin_fast_engine(monkeypatch):
    """Fast engine, no guard override: the contract under test is the
    fast driver's, whatever engine and guard the environment selects."""
    monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
    for key in list(os.environ):
        if key.startswith("REPRO_GUARD"):
            monkeypatch.delenv(key)


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
        assert build_fingerprint(root=root) == build_fingerprint()

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

    def test_geometry_edit_flips_build_fingerprint(self, tmp_path):
        root = _copy_model_tree(tmp_path)
        before = build_fingerprint(root=root)
        target = root / "geometry" / "intersect.py"
        target.write_text(target.read_text() + "\n# perturbed\n")
        assert build_fingerprint(root=root) != before

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
        monkeypatch.setenv("REPRO_GUARD_MAX_CYCLES", "1000")
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


# -- vectorized radius query --------------------------------------------------
class TestRadiusQueryParity:
    def test_vectorized_matches_scalar_trace_for_trace(self):
        wl = make_rtnn_workload(n_points=512, n_queries=24, seed=11)
        for query in wl.queries:
            fast = radius_query(wl.bvh, query, wl.radius)
            slow = radius_query_scalar(wl.bvh, query, wl.radius)
            assert fast.hits == slow.hits
            assert fast.visits == slow.visits
