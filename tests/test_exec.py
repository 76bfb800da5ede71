"""Tests for the execution service (repro.exec).

Covers the acceptance properties of the subsystem:

* spec keys are stable, and change with any parameter or code version;
* the disk cache round-trips results byte-identically, survives
  corruption, and invalidates on spec/version change;
* ``jobs > 1`` batches drain as campaign tables: a worker killed
  mid-point or a point that raises leaves the same manifest counts as
  a serial run, the batch degrades to in-process draining when no
  worker process can start, and nothing is left under the cache;
* ``fig12`` at smoke scale produces identical tables serially and with
  ``jobs=2``, and a repeat invocation executes zero simulations.
"""

import math
import os
import pickle
import time

import pytest

import repro.exec as exec_mod
from repro.campaign import CAMPAIGNS_SUBDIR
from repro.exec import (
    ExecutionService,
    ResultCache,
    RunSpec,
    make_spec,
)
from repro.exec.service import execute_payload


def _tiny_btree_spec(platform="gpu", n_keys=256, version=None, **kw):
    return make_spec(
        "btree",
        dict(variant="btree", n_keys=n_keys, n_queries=64, seed=1),
        platform,
        config={"policy": "scaled"},
        run_kwargs=kw or None,
        version=version,
    )


def _bad_platform_spec():
    """A point that raises: wknd only runs on rta/ttaplus(/opt)."""
    return make_spec("wknd",
                     dict(width=4, height=4, n_spheres=8, bounces=1),
                     "gpu", config={"policy": "default"})


def _kill_w1_mid_point(monkeypatch, marker):
    """Make campaign worker ``w1`` die (``os._exit``) holding the lease
    of the first point it claims; every other worker waits for that
    death before it resolves anything, so the lease is really left
    behind by a forked process that is gone."""
    from repro.campaign.worker import CampaignWorker

    resolve = CampaignWorker._resolve

    def dying(self, point, report, stolen):
        if self.worker_id == "w1":
            marker.touch()
            os._exit(1)
        deadline = time.monotonic() + 10.0
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        resolve(self, point, report, stolen)

    monkeypatch.setattr(CampaignWorker, "_resolve", dying)


# -- RunSpec ------------------------------------------------------------------------
class TestRunSpec:
    def test_key_is_stable(self):
        assert _tiny_btree_spec().key == _tiny_btree_spec().key

    def test_key_covers_every_field(self):
        base = _tiny_btree_spec()
        assert _tiny_btree_spec(n_keys=512).key != base.key
        assert _tiny_btree_spec(platform="tta").key != base.key
        assert _tiny_btree_spec(version="0.0.0+schema1").key != base.key
        assert _tiny_btree_spec(verify=False).key != base.key
        other_config = make_spec("btree", base.workload, "gpu",
                                 config={"policy": "scaled",
                                         "pressure": 5.0})
        assert other_config.key != base.key

    def test_json_round_trip(self):
        spec = _tiny_btree_spec(verify=False)
        again = RunSpec.from_json(spec.to_json())
        assert again == spec
        assert again.key == spec.key
        assert hash(again) == hash(spec)

    def test_rejects_unknown_kind_and_unserializable_params(self):
        from repro.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            make_spec("quadtree", {}, "gpu")
        with pytest.raises(ConfigurationError):
            make_spec("btree", {"fn": lambda: None}, "gpu")


# -- ResultCache ---------------------------------------------------------------------
class TestResultCache:
    def test_round_trip_is_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _tiny_btree_spec()
        result = execute_payload(spec.to_json())
        assert cache.get(spec) is None
        cache.put(spec, result)
        hit = cache.get(spec)
        assert pickle.dumps(hit, protocol=4) == \
            pickle.dumps(result, protocol=4)

    def test_miss_on_spec_or_version_change(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _tiny_btree_spec()
        cache.put(spec, "payload")
        assert cache.get(_tiny_btree_spec(n_keys=512)) is None
        assert cache.get(_tiny_btree_spec(version="9.9.9+schema1")) is None
        assert cache.get(spec) == "payload"

    def test_corrupt_entry_is_evicted_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _tiny_btree_spec()
        cache.put(spec, "payload")
        pkl, _ = cache._paths(spec.key)
        pkl.write_bytes(b"not a pickle")
        assert cache.get(spec) is None
        assert not pkl.exists()

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.stats()["entries"] == 0
        cache.put(_tiny_btree_spec(), "a")
        cache.put(_tiny_btree_spec(n_keys=512), "b")
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["bytes"] > 0
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0


# -- service -------------------------------------------------------------------------
def _assert_same_run(a, b):
    assert a.workload == b.workload and a.platform == b.platform
    assert a.cycles == b.cycles
    assert a.stats.warp_instructions.as_dict() == \
        b.stats.warp_instructions.as_dict()
    assert a.stats.memory == b.stats.memory
    assert pickle.dumps(a.energy) == pickle.dumps(b.energy)


class TestExecutionService:
    def test_memoizes_within_process(self, tmp_path):
        service = ExecutionService(cache=ResultCache(tmp_path))
        spec = _tiny_btree_spec()
        first = service.run(spec)
        assert service.run(spec) is first
        assert service.manifest.executed == 1
        assert service.manifest.total == 1

    def test_disk_cache_resumes_across_services(self, tmp_path):
        spec = _tiny_btree_spec()
        writer = ExecutionService(cache=ResultCache(tmp_path))
        fresh = writer.run(spec)
        reader = ExecutionService(cache=ResultCache(tmp_path))
        cached = reader.run(spec)
        assert reader.manifest.executed == 0
        assert reader.manifest.cached == 1
        _assert_same_run(fresh, cached)

    def test_run_many_parallel_matches_serial(self, tmp_path):
        specs = [_tiny_btree_spec(platform=p, n_keys=n)
                 for p in ("gpu", "tta") for n in (256, 512)]
        serial = ExecutionService(jobs=1, cache=None)
        serial.run_many(specs)
        parallel = ExecutionService(jobs=2, cache=ResultCache(tmp_path))
        parallel.run_many(specs)
        assert parallel.manifest.executed == len(specs)
        assert parallel.manifest.failed == 0
        assert parallel.manifest.mode in ("parallel", "serial-fallback")
        for spec in specs:
            _assert_same_run(serial.run(spec), parallel.run(spec))

    def test_serial_fallback_when_pool_unavailable(self, tmp_path,
                                                   monkeypatch):
        def broken(*a, **kw):
            raise OSError("no multiprocessing in this sandbox")

        monkeypatch.setattr("repro.campaign.orchestrator._start_workers",
                            broken)
        service = ExecutionService(jobs=4, cache=ResultCache(tmp_path))
        specs = [_tiny_btree_spec(), _tiny_btree_spec(platform="tta")]
        service.run_many(specs)
        assert service.manifest.mode == "serial-fallback"
        assert service.manifest.executed == 2
        for spec in specs:
            assert service.run(spec).cycles > 0

    def test_one_job_runs_in_process(self, tmp_path, monkeypatch):
        # jobs=1 (--jobs 1, --workers 1) is the serial path: no worker
        # process, and no campaign table (no lease or record files).
        def no_workers(*a, **kw):
            raise AssertionError("jobs=1 started a worker process")

        monkeypatch.setattr("repro.campaign.orchestrator._start_workers",
                            no_workers)
        service = ExecutionService(jobs=1, cache=ResultCache(tmp_path))
        specs = [_tiny_btree_spec(), _tiny_btree_spec(platform="tta")]
        service.run_many(specs)
        assert service.manifest.mode == "serial"
        assert service.manifest.executed == 2
        assert not (tmp_path / CAMPAIGNS_SUBDIR).exists()

    def test_failed_point_is_recorded_then_raised_on_demand(self, tmp_path):
        # n_queries=64 but an invalid variant never reaches a worker-side
        # assert — use a platform the runner rejects instead.
        spec = _bad_platform_spec()
        service = ExecutionService(jobs=2, cache=ResultCache(tmp_path))
        service.run_many([spec, _tiny_btree_spec()])
        assert service.manifest.failed == 1
        assert service.manifest.executed == 1
        with pytest.raises(Exception):
            service.run(spec)


# -- batches under --jobs 2 ------------------------------------------------------------
def _counts(service):
    manifest = service.manifest
    return (manifest.total, manifest.executed, manifest.cached,
            manifest.failed)


class TestDrainFaults:
    """Fault injection under ``jobs=2``: each batch finishes with the
    manifest counts of ``jobs=1``."""

    def test_killed_worker_point_is_stolen(self, tmp_path, monkeypatch):
        specs = [_tiny_btree_spec(platform=p, n_keys=n)
                 for p in ("gpu", "tta") for n in (256, 512)]
        serial = ExecutionService(jobs=1, cache=ResultCache(tmp_path / "s"))
        serial.run_many(specs)

        _kill_w1_mid_point(monkeypatch, tmp_path / "w1-died")
        started = time.monotonic()
        parallel = ExecutionService(jobs=2,
                                    cache=ResultCache(tmp_path / "p"))
        parallel.run_many(specs)
        # The default lease TTL is 300 s: the orphaned lease must be
        # stolen because its owner is reaped, not because it expired.
        assert time.monotonic() - started < 30
        assert (tmp_path / "w1-died").exists()
        assert _counts(parallel) == _counts(serial) == (4, 4, 0, 0)
        for spec in specs:
            assert parallel.run(spec).cycles == serial.run(spec).cycles

    def test_raising_point_fails_alone(self, tmp_path):
        specs = [_bad_platform_spec(), _tiny_btree_spec(),
                 _tiny_btree_spec(platform="tta")]
        counts = []
        for jobs in (1, 2):
            service = ExecutionService(
                jobs=jobs, cache=ResultCache(tmp_path / str(jobs)))
            service.run_many(specs)
            counts.append(_counts(service))
            error = service.manifest.records[specs[0].key].error
            assert error.startswith("ConfigurationError: ")
            assert "\n" not in error
        assert counts[0] == counts[1] == (3, 2, 0, 1)

    def test_drain_leaves_no_campaign_directory(self, tmp_path):
        from repro.campaign import sweep_campaigns

        specs = [_bad_platform_spec(), _tiny_btree_spec(),
                 _tiny_btree_spec(platform="tta")]
        service = ExecutionService(jobs=2, cache=ResultCache(tmp_path))
        service.run_many(specs)
        assert service.manifest.mode == "parallel"
        assert list((tmp_path / CAMPAIGNS_SUBDIR).iterdir()) == []
        assert sweep_campaigns(tmp_path / CAMPAIGNS_SUBDIR)["campaigns"] == 0
        # The failed point's record went with its table: the next batch
        # attempts it again.
        again = ExecutionService(jobs=2, cache=ResultCache(tmp_path))
        again.run_many(specs)
        assert _counts(again) == (3, 0, 2, 1)

    def test_no_cache_jobs_2_writes_nothing(self, tmp_path, monkeypatch,
                                            capsys):
        import tempfile

        from repro.__main__ import main

        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        argv = ["sweep", "btree", "--param", "n_keys=256,512",
                "--param", "n_queries=64", "--platforms", "gpu,tta",
                "--jobs", "2", "--no-cache"]
        assert main(argv) == 0
        assert "executed=4 cached=0 failed=0 mode=parallel" in \
            capsys.readouterr().out
        assert list(cache_dir.iterdir()) == []
        assert list(scratch.iterdir()) == []
        # Guard aborts keep no bundle: the temporary cache is gone, so
        # the failures name none.
        assert main(argv + ["--max-cycles", "100"]) == 1
        captured = capsys.readouterr()
        assert "failed=4 mode=parallel" in captured.out
        failures = [line for line in captured.err.splitlines()
                    if line.startswith("[exec] FAILED")]
        assert len(failures) == 4
        assert not any("bundle at" in line for line in failures)
        assert list(cache_dir.iterdir()) == []
        assert list(scratch.iterdir()) == []


# -- figure-level equivalence ---------------------------------------------------------
@pytest.fixture
def global_service(tmp_path):
    """Route the experiment helpers through a fresh, disk-backed service."""
    def install(jobs, subdir):
        return exec_mod.configure(jobs=jobs, cache_dir=tmp_path / subdir)

    yield install
    exec_mod.reset()


def _rows_equal(a, b):
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(a, b):
        for cell_a, cell_b in zip(row_a, row_b):
            if isinstance(cell_a, float) and isinstance(cell_b, float):
                if math.isnan(cell_a) and math.isnan(cell_b):
                    continue
                if cell_a != cell_b:
                    return False
            elif cell_a != cell_b:
                return False
    return True


# -- the runner's workload memo -----------------------------------------------------
class TestWorkloadMemo:
    """``runner.build_workload`` keeps one replicate per dataset shape."""

    @pytest.fixture
    def memo(self, monkeypatch):
        from repro.harness import runner

        calls = []

        def factory(**params):
            calls.append(params)
            return object()

        monkeypatch.setattr(runner, "_WORKLOAD_CACHE", {})
        monkeypatch.setattr(runner, "_workload_factories",
                            lambda: {"btree": factory, "nbody": factory})
        return runner, calls

    def test_same_key_returns_same_object(self, memo):
        runner, calls = memo
        first = runner.build_workload("btree", {"n_keys": 8, "seed": 0})
        assert runner.build_workload("btree", {"seed": 0, "n_keys": 8}) \
            is first
        assert len(calls) == 1

    def test_new_seed_replaces_its_shape(self, memo):
        runner, calls = memo
        first = runner.build_workload("btree", {"n_keys": 8, "seed": 0})
        second = runner.build_workload("btree", {"n_keys": 8, "seed": 1})
        assert second is not first
        assert len(runner._WORKLOAD_CACHE) == 1
        assert runner.build_workload("btree", {"n_keys": 8, "seed": 1}) \
            is second
        # Going back to seed 0 rebuilds it: the replicate was dropped.
        assert runner.build_workload("btree", {"n_keys": 8, "seed": 0}) \
            is not first
        assert len(calls) == 3

    def test_two_shapes_coexist(self, memo):
        runner, _ = memo
        small = runner.build_workload("btree", {"n_keys": 8, "seed": 0})
        large = runner.build_workload("btree", {"n_keys": 16, "seed": 0})
        bodies = runner.build_workload("nbody", {"n_keys": 8, "seed": 0})
        assert len(runner._WORKLOAD_CACHE) == 3
        assert runner.build_workload("btree", {"n_keys": 8, "seed": 0}) \
            is small
        assert runner.build_workload("btree", {"n_keys": 16, "seed": 0}) \
            is large
        assert runner.build_workload("nbody", {"n_keys": 8, "seed": 0}) \
            is bodies

    def test_fixed_seed_requests_build_each_dataset_once(self, memo):
        runner, calls = memo
        requests = [("btree", n) for n in (8, 16, 8, 32, 16, 8)] + \
            [("nbody", 8), ("btree", 32), ("nbody", 8)]
        for kind, n_keys in requests:
            runner.build_workload(kind, {"n_keys": n_keys, "seed": 3})
        assert sorted(c["n_keys"] for c in calls) == [8, 8, 16, 32]
        assert len(runner._WORKLOAD_CACHE) == 4


class TestFigureEquivalence:
    def test_fig12_parallel_equals_serial_and_resumes(self, global_service):
        from repro.harness import experiments

        serial_service = global_service(jobs=1, subdir="serial")
        serial = serial_service.run_figure(experiments.fig12_speedup,
                                           "smoke")
        assert serial_service.manifest.executed > 0

        parallel_service = global_service(jobs=2, subdir="parallel")
        parallel = parallel_service.run_figure(experiments.fig12_speedup,
                                               "smoke")
        assert parallel_service.manifest.failed == 0
        assert parallel_service.manifest.executed == \
            parallel_service.manifest.total
        assert serial.headers == parallel.headers
        assert _rows_equal(serial.rows, parallel.rows)

        # Second invocation from a fresh service over the same cache:
        # everything resolves from disk, zero simulations execute.
        resumed_service = global_service(jobs=2, subdir="parallel")
        resumed = resumed_service.run_figure(experiments.fig12_speedup,
                                             "smoke")
        assert resumed_service.manifest.executed == 0
        assert resumed_service.manifest.cached == \
            resumed_service.manifest.total > 0
        assert _rows_equal(serial.rows, resumed.rows)

    def test_recording_pass_collects_without_simulating(self, global_service):
        from repro.harness import experiments

        service = global_service(jobs=2, subdir="collect")
        started = time.monotonic()
        specs = service.collect(experiments.fig12_speedup, "smoke")
        assert time.monotonic() - started < 2.0, "recording ran simulations"
        assert len(specs) > 10
        assert len({s.key for s in specs}) < len(specs) + 1
        assert all(isinstance(s, RunSpec) for s in specs)
        # Nothing was executed or cached by the recording pass.
        assert service.manifest.total == 0
