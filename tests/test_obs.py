"""repro.obs: tracer transparency, metrics registry, exporters, CLI.

The load-bearing property is *transparency*: attaching the tracer must
not perturb the simulation.  Every statistic a traced run reports must
equal, stat for stat, the same run with tracing off — the tracer only
observes, it never schedules or reorders.
"""

import json
import threading

import pytest

from repro import obs
from repro.harness.experiments import EXPERIMENTS, Experiment
from repro.harness.runner import run_btree, scaled_config_for
from repro.workloads import make_btree_workload


def _small_run(platform="tta", tracer=None):
    wl = make_btree_workload("btree", n_keys=256, n_queries=128, seed=11)
    cfg = scaled_config_for(wl.image.size_bytes)
    return run_btree(wl, platform, config=cfg, tracer=tracer)


def _stat_fingerprint(run):
    stats = run.stats
    return (
        float(stats.cycles),
        stats.simt_efficiency,
        stats.warp_instructions.as_dict(),
        stats.thread_instructions.as_dict(),
        stats.memory,
        stats.l1_hit_rate,
        stats.accel_stats.get("jobs_completed"),
        stats.accel_stats.get("node_fetches"),
    )


class TestTracerCore:
    def test_emit_and_events(self):
        tracer = obs.Tracer(capacity=16)
        tracer.emit("sm", "sm0", "load", 10.0, 4.0, 32)
        tracer.emit("rta", "ray_box", "op", 12.0)
        assert len(tracer) == 2
        assert tracer.events()[0] == ("sm", "sm0", "load", 10.0, 4.0, 32)
        assert tracer.events_seen == tracer.events_kept == 2

    def test_sampling_rate(self):
        tracer = obs.Tracer(capacity=1000, rate=4)
        for i in range(100):
            tracer.emit("sm", "sm0", "x", float(i))
        assert tracer.events_seen == 100
        assert tracer.events_kept == 25

    def test_category_filter(self):
        tracer = obs.Tracer(capacity=100, categories=("memsys",))
        tracer.emit("sm", "sm0", "x", 0.0)
        tracer.emit("memsys", "dram", "fill", 1.0)
        assert [e[0] for e in tracer.events()] == ["memsys"]

    def test_ring_evicts_oldest(self):
        tracer = obs.Tracer(capacity=8)
        for i in range(20):
            tracer.emit("sm", "sm0", "x", float(i))
        assert len(tracer) == 8
        assert tracer.events_dropped == 12
        assert tracer.events()[0][3] == 12.0  # oldest 12 evicted

    def test_launch_offsets_concatenate(self):
        tracer = obs.Tracer()
        tracer.begin_launch("a")
        tracer.emit("sm", "sm0", "x", 5.0)
        tracer.end_launch(100.0)
        tracer.begin_launch("b")
        tracer.emit("sm", "sm0", "x", 5.0)
        tracer.end_launch(50.0)
        stamps = [e[3] for e in tracer.events() if e[2] == "x"]
        assert stamps == [5.0, 105.0]
        assert tracer.launches == [("a", 100.0), ("b", 50.0)]

    def test_last_active_unit_skips_scheduler(self):
        tracer = obs.Tracer()
        tracer.emit("rta", "rta3", "node_fetch", 1.0)
        tracer.emit("scheduler", "engine", "cycle", 2.0)
        assert tracer.last_active_unit() == "rta:rta3"

    def test_last_active_unit_scheduler_fallback(self):
        tracer = obs.Tracer()
        assert tracer.last_active_unit() is None
        tracer.emit("scheduler", "engine", "cycle", 2.0)
        assert tracer.last_active_unit() == "scheduler:engine"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            obs.Tracer(capacity=0)
        with pytest.raises(ValueError):
            obs.Tracer(rate=0)


class TestTransparency:
    """Tracing on must be stat-for-stat identical to tracing off."""

    @pytest.mark.parametrize("platform", ["gpu", "tta", "ttaplus"])
    def test_stats_identical_with_tracing(self, platform):
        baseline = _stat_fingerprint(_small_run(platform))
        tracer = obs.Tracer()
        traced = _stat_fingerprint(_small_run(platform, tracer))
        assert traced == baseline
        assert len(tracer) > 0  # the tracer actually recorded the run

    def test_sampled_tracing_also_transparent(self):
        baseline = _stat_fingerprint(_small_run("tta"))
        traced = _stat_fingerprint(_small_run("tta", obs.Tracer(rate=16)))
        assert traced == baseline


class TestEnvControls:
    def test_off_by_default(self):
        run = _small_run("gpu")
        # No tracer argument, no trace-derived metrics.
        assert run.metric("trace.events_seen", default=-1.0) == -1.0
        # Metrics are built regardless of tracing; only events need it.
        assert run.metrics.get("sim.cycles") == float(run.stats.cycles)


class TestTracerArgument:
    def test_concurrent_launches_trace_only_their_own(self, monkeypatch):
        """A tracer belongs to the launch it is passed to: beside a
        concurrent untraced launch its ring holds one launch marker,
        and the untraced launch makes no emit call at all."""
        emits = {}
        emit = obs.Tracer.emit

        def counting_emit(self, *args, **kwargs):
            ident = threading.get_ident()
            emits[ident] = emits.get(ident, 0) + 1
            emit(self, *args, **kwargs)

        monkeypatch.setattr(obs.Tracer, "emit", counting_emit)
        tracer = obs.Tracer()
        start = threading.Barrier(2)
        idents, errors = {}, []

        def launch(name, tracer):
            idents[name] = threading.get_ident()
            start.wait()
            try:
                _small_run("tta", tracer)
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=launch, args=("traced", tracer)),
                   threading.Thread(target=launch, args=("untraced", None))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        markers = [e for e in tracer.events() if e[2].startswith("launch:")]
        assert len(markers) == 1
        assert len(tracer.launches) == 1
        assert emits.get(idents["traced"], 0) > 0
        assert emits.get(idents["untraced"], 0) == 0

class TestMetrics:
    def test_snapshot_matches_raw_stats(self):
        run = _small_run("tta")
        stats = run.stats
        m = run.metrics
        assert m.get("sim.cycles") == float(stats.cycles)
        assert m.get("sim.simt_efficiency") == stats.simt_efficiency
        assert m.get("sim.warp_instructions") == \
            stats.total_warp_instructions
        assert m.get("memsys.dram.utilization") == \
            stats.memory["dram_utilization"]
        assert m.get("memsys.dram.bytes") == stats.memory["dram_bytes"]
        assert m.get("memsys.l2.hit_rate") == stats.memory["l2_hit_rate"]
        assert m.get("memsys.l1.hit_rate") == stats.l1_hit_rate

    def test_unit_pool_metrics_namespaced(self):
        # B-Tree traversal exercises the TTA's query-key unit.
        m = _small_run("tta").metrics
        assert m.get("rta.unit.query_key.ops") > 0
        assert m.get("rta.unit.query_key.busy_cycles") > 0
        group = m.group("rta.unit.query_key")
        assert set(group) >= {"ops", "busy_cycles", "occupancy_avg",
                              "occupancy_peak", "latency_mean"}

    def test_ttaplus_op_util_group(self):
        m = _small_run("ttaplus").metrics
        group = m.group("ttaplus.op_util")
        assert group  # TTA+ always reports its OP-unit utilizations
        for value in group.values():
            assert 0.0 <= value <= 1.0

    def test_dram_bandwidth_series_under_tracing(self):
        run = _small_run("tta", obs.Tracer())
        series = run.metrics.series("memsys.dram.bandwidth_series")
        assert series is not None
        assert series.total() == run.stats.memory["dram_bytes"]

    def test_no_series_when_tracing_off(self):
        run = _small_run("tta")
        assert run.metrics.series("memsys.dram.bandwidth_series") is None

    def test_metric_accessor_default(self):
        run = _small_run("gpu")
        assert run.metric("no.such.metric", default=-1.0) == -1.0

    def test_snapshot_round_trips_as_dict(self):
        m = _small_run("tta").metrics
        doc = json.loads(json.dumps(m.as_dict(), default=str))
        assert doc["scalars"]["sim.cycles"] == m.get("sim.cycles")


class TestExport:
    def _traced_run(self):
        tracer = obs.Tracer()
        _small_run("tta", tracer)
        return tracer

    def test_chrome_trace_has_four_track_categories(self):
        doc = obs.chrome_trace(self._traced_run())
        procs = {e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "M" and e["name"] == "process_name"}
        assert {"scheduler", "sm", "rta", "memsys"} <= procs
        cats = {e["cat"] for e in doc["traceEvents"] if "cat" in e}
        assert len(cats) >= 4

    def test_chrome_trace_event_shape(self):
        doc = obs.chrome_trace(self._traced_run())
        events = [e for e in doc["traceEvents"] if e.get("ph") in "Xi"]
        assert events
        for event in events:
            assert {"name", "cat", "pid", "tid", "ts"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] > 0

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = obs.write_chrome_trace(tmp_path / "t" / "trace.json",
                                      self._traced_run())
        doc = json.loads(path.read_text())
        assert doc["otherData"]["tool"] == "repro.obs"
        assert doc["otherData"]["launches"]

    def test_summaries_render(self):
        tracer = self._traced_run()
        text = obs.summarize_trace(tracer)
        assert "event(s) buffered" in text and "launch" in text
        run = _small_run("tta")
        mtext = obs.summarize_metrics(run.metrics)
        assert "sim.cycles" in mtext

    def test_write_metrics_json(self, tmp_path):
        run = _small_run("gpu")
        path = obs.write_metrics_json(tmp_path / "m.json",
                                      {"point": run.metrics.as_dict()})
        doc = json.loads(path.read_text())
        assert doc["point"]["scalars"]["sim.cycles"] == run.stats.cycles

    def test_dump_diagnostics_honors_obs_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.OBS_DIR_ENV, str(tmp_path / "dumps"))
        tracer = obs.Tracer()
        tracer.emit("rta", "rta0", "node_fetch", 1.0)
        path = obs.dump_diagnostics({"reason": "test"}, tracer)
        assert path is not None
        assert json.loads(open(path).read())["reason"] == "test"
        traces = list((tmp_path / "dumps").glob("trace-test-*.json"))
        assert len(traces) == 1

    def test_dump_diagnostics_noop_without_env(self, monkeypatch):
        monkeypatch.delenv(obs.OBS_DIR_ENV, raising=False)
        assert obs.dump_diagnostics({"reason": "test"}) is None


class TestCacheSidecar:
    def _spec_and_result(self):
        from repro.exec import make_spec
        from repro.harness.runner import execute_spec
        spec = make_spec("btree", {"n_keys": 256, "n_queries": 64}, "tta")
        return spec, execute_spec(spec)

    def test_put_writes_metrics_sidecar(self, tmp_path):
        from repro.exec import ResultCache
        spec, result = self._spec_and_result()
        cache = ResultCache(tmp_path)
        cache.put(spec, result, seconds=0.1)
        doc = json.loads(cache.metrics_path(spec.key).read_text())
        assert doc["label"] == spec.label
        assert doc["metrics"]["scalars"]["memsys.dram.utilization"] == \
            result.metrics.get("memsys.dram.utilization")

    def test_quarantine_sweeps_sidecar(self, tmp_path):
        from repro.exec import ResultCache
        spec, result = self._spec_and_result()
        cache = ResultCache(tmp_path)
        cache.put(spec, result)
        cache.quarantine(spec.key)
        assert not cache.metrics_path(spec.key).exists()

    def test_metricless_result_writes_no_sidecar(self, tmp_path):
        from repro.exec import ResultCache
        spec, _ = self._spec_and_result()
        cache = ResultCache(tmp_path)
        cache.put(spec, {"no": "stats"})
        assert not cache.metrics_path(spec.key).exists()


class TestGuardIntegration:
    def _abort(self, max_cycles=300, tracer=None):
        from repro.errors import SimulationStallError
        from repro.gpu import GPU
        from repro.guard import Guard, GuardConfig
        from repro.kernels.btree_search import btree_accel_kernel
        from repro.rta.rta import make_rta_factory

        wl = make_btree_workload("btree", n_keys=2048, n_queries=256,
                                 seed=3)
        cfg = scaled_config_for(wl.image.size_bytes)
        gpu = GPU(cfg, accelerator_factory=make_rta_factory(tta=True))
        with pytest.raises(SimulationStallError) as err:
            gpu.launch(btree_accel_kernel, wl.n_queries,
                       args=wl.kernel_args(),
                       guard=Guard(GuardConfig(mode="on",
                                               max_cycles=max_cycles)),
                       tracer=tracer)
        return err.value

    def test_bundle_embeds_flight_recorder_tail(self):
        exc = self._abort(tracer=obs.Tracer())
        bundle = exc.diagnostics
        assert bundle["last_active_unit"]
        tail = bundle["trace_tail"]
        assert 0 < len(tail) <= 64
        assert all(len(event) == 6 for event in tail)
        assert "last active unit:" in str(exc)

    def test_bundle_without_tracer_has_no_tail(self):
        exc = self._abort()
        assert "trace_tail" not in exc.diagnostics
        assert "last active unit" not in str(exc)

    def test_abort_dumps_to_obs_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(obs.OBS_DIR_ENV, str(tmp_path))
        exc = self._abort(tracer=obs.Tracer())
        assert exc.diagnostics["dumped_to"]
        bundles = list(tmp_path.glob("guard-cycle-budget-*.json"))
        traces = list(tmp_path.glob("trace-cycle-budget-*.json"))
        assert len(bundles) == 1 and len(traces) == 1
        doc = json.loads(bundles[0].read_text())
        assert doc["reason"] == "cycle-budget"
        assert doc["trace_tail"]


def _tiny_experiment(scale):
    # Routed through the exec service like the real figures, so the
    # manifest (and therefore metrics_report) sees the point.
    from repro.exec import get_service, make_spec
    from repro.harness.results import Table
    spec = make_spec("btree", {"n_keys": 256, "n_queries": 128}, "tta")
    run = get_service().run(spec)
    table = Table("tiny", ["workload", "cycles"])
    table.add_row("btree", run.cycles)
    return table


_TINY = Experiment(_tiny_experiment, "tiny", ())


class TestCLI:
    @pytest.fixture(autouse=True)
    def _hermetic_exec(self, tmp_path, monkeypatch):
        import repro.exec as exec_mod
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        exec_mod.reset()
        yield
        exec_mod.reset()

    def test_trace_command_writes_perfetto_trace(self, tmp_path,
                                                 monkeypatch, capsys):
        from repro import __main__ as cli
        monkeypatch.setitem(EXPERIMENTS, "tiny", _TINY)
        out = tmp_path / "trace.json"
        assert cli.main(["trace", "tiny", "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        cats = {e["cat"] for e in doc["traceEvents"] if "cat" in e}
        assert {"scheduler", "sm", "rta", "memsys"} <= cats
        printed = capsys.readouterr().out
        assert "perfetto" in printed and "event(s) buffered" in printed

    def test_trace_command_sampling_options(self, tmp_path, monkeypatch,
                                            capsys):
        from repro import __main__ as cli
        monkeypatch.setitem(EXPERIMENTS, "tiny", _TINY)
        out = tmp_path / "trace.json"
        assert cli.main(["trace", "tiny", "-o", str(out), "--rate", "16",
                         "--categories", "memsys"]) == 0
        doc = json.loads(out.read_text())
        cats = {e["cat"] for e in doc["traceEvents"] if "cat" in e}
        # Launch markers land on the scheduler track regardless of the
        # category filter; the model categories must be filtered out.
        assert cats <= {"memsys", "scheduler"}
        assert "sm" not in cats and "rta" not in cats
        assert doc["otherData"]["sampling_rate"] == 16

    @pytest.mark.parametrize("flag,value", [("--rate", "0"),
                                            ("--events", "-3")])
    def test_trace_rejects_bad_counts(self, flag, value, capsys):
        from repro import __main__ as cli
        assert cli.main(["trace", "fig12", flag, value]) == 2
        assert f"{flag} must be >= 1, got {value}" in \
            capsys.readouterr().err

    def test_trace_guard_abort_is_one_line(self, tmp_path, monkeypatch,
                                           capsys):
        from repro import __main__ as cli
        monkeypatch.setitem(EXPERIMENTS, "tiny", _TINY)
        assert cli.main(["trace", "tiny", "-o", str(tmp_path / "t.json"),
                         "--max-cycles", "10"]) == 1
        err = capsys.readouterr().err
        failed = [line for line in err.splitlines()
                  if line.startswith("[exec] FAILED")]
        assert len(failed) == 1
        assert failed[0].startswith("[exec] FAILED btree[")
        assert failed[0].endswith("[cycle-budget]")
        assert "Traceback" not in err

    def test_trace_unknown_experiment(self, capsys):
        from repro import __main__ as cli
        assert cli.main(["trace", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_trace_flag(self, tmp_path, monkeypatch, capsys):
        from repro import __main__ as cli
        monkeypatch.setitem(EXPERIMENTS, "tiny", _TINY)
        out = tmp_path / "run-trace.json"
        assert cli.main(["run", "tiny", "--scale", "smoke",
                         "--trace", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["otherData"]["events_kept"] > 0
        assert "--trace forces --jobs 1 --no-cache" in \
            capsys.readouterr().err

    def test_run_metrics_out(self, tmp_path, monkeypatch):
        from repro import __main__ as cli
        monkeypatch.setitem(EXPERIMENTS, "tiny", _TINY)
        out = tmp_path / "metrics.json"
        assert cli.main(["run", "tiny", "--scale", "smoke", "--no-cache",
                         "--metrics-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc  # one entry per executed point
        snapshot = next(iter(doc.values()))
        assert "sim.cycles" in snapshot["scalars"]

    def test_run_profile_out(self, tmp_path, monkeypatch, capsys):
        import pstats
        from repro import __main__ as cli
        monkeypatch.setitem(EXPERIMENTS, "tiny", _TINY)
        assert cli.main(["run", "tiny", "--scale", "smoke", "--no-cache",
                         "--json-dir", str(tmp_path),
                         "--profile-out", "prof.pstats"]) == 0
        dump = tmp_path / "prof.pstats"
        assert dump.exists()
        pstats.Stats(str(dump))  # loadable
        out = capsys.readouterr().out
        assert "pstats dump written" in out
        assert "cumulative" not in out  # top-25 print suppressed
