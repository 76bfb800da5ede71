"""repro.guard: watchdog, invariants, fault injection, exec quarantine.

The fault-detection tests are the guard's reason to exist: each fault
class from :mod:`repro.guard.faults` is injected into a real TTA run
and must be caught with a diagnostic bundle naming the stuck unit and
job.  The exec-layer tests then check the failure path end to end — a
poisoned spec writes its diagnostic bundle and fails on its own,
without killing (or hanging) the rest of the sweep, and without any
library code writing the process environment.
"""

import ast
import collections.abc
import json
import os
import pathlib
import pickle
import re

import pytest

from repro.errors import (
    ConfigurationError,
    FaultInjectionError,
    GuardError,
    InvariantViolation,
    SimulationStallError,
)
from repro.gpu import GPU, AccelCall, GPUConfig
from repro.guard import Guard, GuardConfig, guard_mode
from repro.guard.faults import (
    FaultPlan,
    corrupt_cache_entry,
    faulty_factory,
    parse_plans,
)
from repro.harness.runner import scaled_config_for
from repro.kernels.btree_search import btree_accel_kernel
from repro.rta.rta import make_rta_factory
from repro.rta.traversal import Step, TraversalJob
from repro.sim.resources import Timeline
from repro.workloads import make_btree_workload


# -- configuration -----------------------------------------------------------------
class TestGuardConfig:
    def test_default_mode_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_GUARD", raising=False)
        assert guard_mode() == "on"

    def test_invalid_mode_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "paranoid")
        with pytest.raises(ConfigurationError):
            guard_mode()

    def test_from_env_thresholds(self, monkeypatch):
        # The environment picks the mode only: thresholds are
        # GuardConfig arguments, and the retired threshold variables
        # have no effect.
        monkeypatch.setenv("REPRO_GUARD", "strict")
        monkeypatch.setenv("REPRO_GUARD_STALL_EVENTS", "5000")
        monkeypatch.setenv("REPRO_GUARD_MAX_CYCLES", "123456")
        config = GuardConfig.from_env()
        assert config.strict and config.checks_invariants
        assert config == GuardConfig(mode="strict")
        assert config.max_cycles is None

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            GuardConfig(check_events=-5)

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            GuardConfig(mode="bogus")
        with pytest.raises(ConfigurationError):
            GuardConfig(stall_events=0)
        with pytest.raises(ConfigurationError):
            GuardConfig(max_cycles=-1)

    def test_resolve_off_is_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "off")
        assert Guard.resolve(None) is None
        assert Guard.resolve(GuardConfig(mode="off")) is None

    def test_resolve_passthrough_and_config(self, monkeypatch):
        monkeypatch.delenv("REPRO_GUARD", raising=False)
        guard = Guard()
        assert Guard.resolve(guard) is guard
        built = Guard.resolve(GuardConfig(mode="watch"))
        assert isinstance(built, Guard) and built.config.mode == "watch"

    def test_fault_plan_parsing(self):
        plans = parse_plans("stall:query=7:sm=0; lost_response:sm=all")
        assert plans[0] == FaultPlan("stall", query_id=7, sm=0)
        assert plans[1].applies_to_sm(3)
        with pytest.raises(FaultInjectionError):
            parse_plans("meltdown")


# -- error plumbing ----------------------------------------------------------------
class TestGuardErrors:
    def test_diagnostics_survive_pickling(self):
        err = SimulationStallError(
            "stuck", {"reason": "no-progress", "cycle": 42})
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, SimulationStallError)
        assert isinstance(clone, GuardError)
        assert clone.diagnostics == {"reason": "no-progress", "cycle": 42}
        assert "no-progress" in str(clone)

    def test_diagnostics_default_empty(self):
        assert InvariantViolation("broken").diagnostics == {}


# -- timeline order checking -------------------------------------------------------
class _OrderSpy:
    def __init__(self):
        self.violations = []

    def order_violation(self, name, now, last):
        self.violations.append((name, now, last))


class TestTimelineOrderCheck:
    def test_monotone_acquisitions_pass(self):
        spy = _OrderSpy()
        timeline = Timeline("t")
        timeline.enable_order_check(spy)
        for now in (0.0, 1.0, 1.5, 1.2, 2.0):  # within 1-cycle jitter
            timeline.acquire(now, 1.0)
        assert spy.violations == []

    def test_out_of_order_acquisition_flagged(self):
        spy = _OrderSpy()
        timeline = Timeline("t")
        timeline.enable_order_check(spy)
        timeline.acquire(10.0, 1.0)
        timeline.acquire(5.0, 1.0)  # 5 < 10 - tolerance
        assert spy.violations and spy.violations[0][0] == "t"

    def test_unchecked_timeline_has_no_overhead_path(self):
        timeline = Timeline("t")
        timeline.acquire(10.0, 1.0)
        timeline.acquire(5.0, 1.0)  # silently reordered, as before


# -- fault detection ---------------------------------------------------------------
def _faulted_launch(plan, config, n_queries=64, **workload_kw):
    """One-SM TTA btree run with ``plan`` armed and ``config`` guarding."""
    wl = make_btree_workload("btree", n_keys=2048, n_queries=n_queries,
                             seed=9, **workload_kw)
    cfg = scaled_config_for(wl.image.size_bytes).with_overrides(n_sms=1)
    gpu = GPU(cfg, accelerator_factory=faulty_factory(
        make_rta_factory(tta=True), plan))
    args = wl.kernel_args(jobs=wl.jobs("tta"))
    return gpu.launch(btree_accel_kernel, wl.n_queries, args=args,
                      guard=Guard(config))


class TestFaultDetection:
    CONFIG = GuardConfig(mode="on", check_events=2_000, stall_events=10_000)

    @pytest.fixture(autouse=True)
    def _fast_core(self, monkeypatch):
        # The injectors target the fast batched driver and deliberately
        # no-op on legacy cores (that is what makes the exec service's
        # legacy retry a genuine recovery path), so pin the engine: the
        # suite must also pass under REPRO_SIM_CORE=legacy.
        monkeypatch.setenv("REPRO_SIM_CORE", "fast")

    def test_stall_caught_by_watchdog(self):
        with pytest.raises(SimulationStallError) as err:
            _faulted_launch(FaultPlan("stall", query_id=3), self.CONFIG)
        bundle = err.value.diagnostics
        assert bundle["reason"] == "no-progress"
        assert 3 in bundle["cores"][0]["stuck_jobs"]
        assert bundle["cores"][0]["sm"] == 0

    def test_drop_wake_caught(self):
        with pytest.raises(SimulationStallError) as err:
            _faulted_launch(FaultPlan("drop_wake", query_id=3), self.CONFIG)
        bundle = err.value.diagnostics
        # Caught by the parked-work scan if other jobs keep the clock
        # moving, or by the quiescence check once the run goes quiet.
        assert bundle["reason"] in ("parked-work", "quiescent-with-pending")
        assert 3 in bundle["cores"][0]["stuck_jobs"]

    def test_dup_complete_caught(self):
        with pytest.raises(InvariantViolation) as err:
            _faulted_launch(FaultPlan("dup_complete", query_id=3),
                            self.CONFIG)
        assert err.value.diagnostics["reason"] == "duplicate-completion"
        assert "completed twice" in str(err.value)

    def test_lost_response_caught_by_conservation(self):
        with pytest.raises(InvariantViolation) as err:
            _faulted_launch(FaultPlan("lost_response"), self.CONFIG)
        bundle = err.value.diagnostics
        assert bundle["reason"] == "memsys-balance"
        assert bundle["memsys"]["sector_requests"] == \
            bundle["memsys"]["sector_responses"] + 1

    def test_lost_fetch_caught_by_cycle_budget(self):
        config = GuardConfig(mode="on", check_events=2_000,
                             stall_events=10_000, max_cycles=1_000_000)
        with pytest.raises(SimulationStallError) as err:
            _faulted_launch(FaultPlan("lost_fetch", after=5), config)
        assert err.value.diagnostics["reason"] == "cycle-budget"

    def test_bundle_is_json_serializable(self):
        with pytest.raises(SimulationStallError) as err:
            _faulted_launch(FaultPlan("stall", query_id=3), self.CONFIG)
        text = json.dumps(err.value.diagnostics)
        assert "no-progress" in text

    def test_clean_run_passes_strict(self):
        wl = make_btree_workload("btree", n_keys=2048, n_queries=64, seed=9)
        cfg = scaled_config_for(wl.image.size_bytes).with_overrides(n_sms=1)
        gpu = GPU(cfg, accelerator_factory=make_rta_factory(tta=True))
        args = wl.kernel_args(jobs=wl.jobs("tta"))
        stats = gpu.launch(btree_accel_kernel, wl.n_queries, args=args,
                           guard=Guard(GuardConfig(mode="strict",
                                                   check_events=2_000)))
        assert stats.accel_stats["jobs_completed"] == 64


# -- cache corruption --------------------------------------------------------------
class TestCacheQuarantine:
    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path):
        from repro.exec.cache import ResultCache
        from repro.exec.service import ExecutionService, STATUS_EXECUTED
        from repro.exec.spec import RunSpec

        cache = ResultCache(tmp_path)
        spec = RunSpec(kind="btree",
                       workload={"variant": "btree", "n_keys": 512,
                                 "n_queries": 32, "seed": 5},
                       platform="tta")
        service = ExecutionService(jobs=1, cache=cache)
        first = service.run(spec)
        damaged = corrupt_cache_entry(cache, spec)
        assert pathlib.Path(damaged).exists()

        assert cache.get(spec) is None  # miss, not an exception
        corrupt_dir = tmp_path / "corrupt"
        assert len(list(corrupt_dir.glob("*.pkl"))) == 1
        assert cache.stats()["corrupt"] == 1

        fresh = ExecutionService(jobs=1, cache=cache)
        again = fresh.run(spec)  # recomputed and re-cached
        assert fresh.manifest.records[spec.key].status == STATUS_EXECUTED
        assert again.cycles == first.cycles
        assert cache.get(spec) is not None


# -- pool restart limiting ---------------------------------------------------------
def _crash_or_echo(payload):
    if payload == "boom":
        os._exit(13)
    # Keep siblings in flight long enough that the crash reliably finds
    # them pending (the fallback re-runs them in one-shot isolation
    # workers, where the sleep repeats — kept short).
    import time
    time.sleep(0.3)
    return payload * 2


class TestPoolRestartLimit:
    def test_restart_budget_exhaustion_falls_back_to_serial(self, capsys):
        from repro.exec.pool import ParallelRunner

        try:
            runner = ParallelRunner(jobs=2, retries=0, max_restarts=0,
                                    backoff_base=0.0)
        except Exception:
            pytest.skip("no multiprocessing in this environment")
        with runner:
            outcomes = runner.map(_crash_or_echo,
                                  ["boom", "a", "b", "c"])
        by_payload = {p: outcomes[i]
                      for i, p in enumerate(["boom", "a", "b", "c"])}
        assert not by_payload["boom"].ok
        assert "restart limit" in by_payload["boom"].error
        # The isolation worker pinpoints the crasher by its exit code.
        assert "exit code 13" in by_payload["boom"].error
        for payload in ("a", "b", "c"):
            assert by_payload[payload].ok
            assert by_payload[payload].value == payload * 2
        captured = capsys.readouterr()
        assert "restart limit" in captured.err

    def test_deterministic_failures_not_retried(self):
        from repro.exec.pool import run_serial

        calls = []

        def fn(payload):
            calls.append(payload)
            raise InvariantViolation("broken", {"reason": "test"})

        outcomes = run_serial(fn, ["x"], retries=3)
        assert len(calls) == 1  # no retry: the verdict is deterministic
        assert outcomes[0].failure["type"] == "InvariantViolation"
        assert outcomes[0].failure["diagnostics"] == {"reason": "test"}


# -- exec quarantine: a guard abort fails the point ---------------------------------
#: One point of this sweep is poisoned: query 40 only exists in the
#: 64-query spec.
_SWEEP_FAULT = "stall:query=40:sm=all"

#: Tight watchdog thresholds, so an injected stall aborts within ~10k
#: host events instead of the 2M default.
_POISON_GUARD = GuardConfig(mode="on", stall_events=10_000,
                            check_events=2_000)


def _poison(monkeypatch, faults):
    monkeypatch.setenv("REPRO_FAULTS", faults)


def _btree_spec(n_queries):
    from repro.exec.spec import RunSpec

    return RunSpec(kind="btree",
                   workload={"variant": "btree", "n_keys": 512,
                             "n_queries": n_queries, "seed": 5},
                   platform="tta")


class TestExecQuarantine:
    @pytest.fixture(autouse=True)
    def _fast_core(self, monkeypatch):
        # The stall fault only arms on the fast engine; pin it so the
        # abort also happens under REPRO_SIM_CORE=legacy.
        monkeypatch.setenv("REPRO_SIM_CORE", "fast")

    def test_stalled_spec_is_quarantined_and_sweep_completes(
            self, tmp_path, monkeypatch):
        from repro.exec.cache import ResultCache
        from repro.exec.service import (
            ExecutionService,
            STATUS_EXECUTED,
            STATUS_FAILED,
        )

        _poison(monkeypatch, _SWEEP_FAULT)
        specs = [_btree_spec(16), _btree_spec(64), _btree_spec(32)]
        cache = ResultCache(tmp_path)
        service = ExecutionService(jobs=1, cache=cache, guard=_POISON_GUARD)
        service.run_many(specs)  # must not raise and must not hang

        records = {spec.key: service.manifest.records[spec.key]
                   for spec in specs}
        assert records[specs[0].key].status == STATUS_EXECUTED
        assert records[specs[2].key].status == STATUS_EXECUTED
        poisoned = records[specs[1].key]
        assert poisoned.status == STATUS_FAILED
        assert "SimulationStallError" in poisoned.error
        assert service.manifest.failed == 1

        # The diagnostic bundle is on disk, the failure names it, and
        # the bundle names the stuck job.
        bundle_path = tmp_path / "quarantine" / f"{specs[1].key}.json"
        assert bundle_path.exists()
        assert str(bundle_path) in poisoned.error
        bundle = json.loads(bundle_path.read_text())
        diag = bundle["diagnostics"]
        assert diag["reason"] == "no-progress"
        assert any(40 in core["stuck_jobs"] for core in diag["cores"])

        # Asking for the point again raises; nothing reaches the cache.
        with pytest.raises(SimulationStallError):
            service.run(specs[1])
        assert not cache.contains(specs[1])
        assert cache.contains(specs[0])

    def test_run_single_point_quarantines(self, tmp_path, monkeypatch):
        from repro.exec.cache import ResultCache
        from repro.exec.service import ExecutionService, STATUS_FAILED

        _poison(monkeypatch, "stall:query=3")
        spec = _btree_spec(32)
        cache = ResultCache(tmp_path)
        service = ExecutionService(jobs=1, cache=cache, guard=_POISON_GUARD)
        with pytest.raises(SimulationStallError):
            service.run(spec)
        record = service.manifest.records[spec.key]
        assert record.status == STATUS_FAILED
        bundle_path = tmp_path / "quarantine" / f"{spec.key}.json"
        assert bundle_path.exists()
        assert str(bundle_path) in record.error
        # No result entry and no metrics sidecar for an aborted point.
        assert not cache.contains(spec)
        assert not cache.metrics_path(spec.key).exists()

    def test_campaign_with_aborted_point_exits_1(self, tmp_path,
                                                 monkeypatch, capsys):
        from repro.__main__ import main

        _poison(monkeypatch, _SWEEP_FAULT)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        table = tmp_path / "table.json"
        table.write_text(json.dumps({
            "name": "poisoned",
            "workloads": [{"kind": "btree",
                           "params": {"n_keys": 512,
                                      "n_queries": [16, 64]}}],
            "platforms": ["tta"],
            "reps": 1,
        }))
        # The stalled job keeps re-parking, so the CLI's cycle budget
        # catches it within milliseconds, in the campaign's worker.
        assert main(["campaign", "run", str(table), "--quiet", "--json",
                     "--max-cycles", "20000"]) == 1
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["totals"]["executed"] == 1
        assert manifest["totals"]["failed"] == 1
        assert manifest["totals"]["unresolved"] == 0
        failed = [r for r in manifest["points"] if r["status"] == "failed"]
        assert len(failed) == 1
        assert "quarantine" in failed[0]["error"]


class _ReadOnlyEnviron(collections.abc.MutableMapping):
    """``os.environ`` stand-in that refuses (and logs) every write."""

    def __init__(self, env):
        self._env = env
        self.writes = []

    def __getitem__(self, key):
        return self._env[key]

    def __iter__(self):
        return iter(self._env)

    def __len__(self):
        return len(self._env)

    def copy(self):
        return dict(self._env)

    def __setitem__(self, key, value):
        self.writes.append(key)
        raise AssertionError(f"library code wrote os.environ[{key!r}]")

    def __delitem__(self, key):
        self.writes.append(key)
        raise AssertionError(f"library code deleted os.environ[{key!r}]")


class TestNoEnvironmentWrites:
    """A guard abort takes the failure path in exec and serve alike,
    and neither touches process-global state on the way."""

    def test_guard_aborts_fail_without_environment_writes(
            self, tmp_path, monkeypatch):
        from repro.exec.cache import ResultCache
        from repro.exec.service import ExecutionService, STATUS_FAILED
        from repro.serve import LaunchBackend, build_resident_index

        monkeypatch.setenv("REPRO_SIM_CORE", "fast")
        _poison(monkeypatch, _SWEEP_FAULT)
        index = build_resident_index("point",
                                     dict(n_keys=512, n_queries=64))
        specs = [_btree_spec(16), _btree_spec(64)]
        service = ExecutionService(jobs=1, cache=ResultCache(tmp_path),
                                   guard=_POISON_GUARD)
        backend = LaunchBackend("tta", guard=Guard(_POISON_GUARD))
        env = _ReadOnlyEnviron(os.environ)
        # Frozen only around the library calls: pytest itself writes
        # the environment between test phases.
        with monkeypatch.context() as frozen:
            frozen.setattr(os, "environ", env)
            # exec: the poisoned sweep point fails, the other completes.
            service.run_many(specs)
            # serve: slot 40 of a >=41-query batch trips the same stall.
            launch = backend.launch(index, list(range(48)))
        assert env.writes == []
        assert service.manifest.records[specs[1].key].status \
            == STATUS_FAILED
        assert service.manifest.executed == 1
        assert launch.failed
        assert launch.notes["failed_reason"] == "guard"


#: The environment variables the library reads, each as the default
#: when no argument says otherwise.  Every other setting is an argument.
_ENV_ALLOWLIST = {"REPRO_CACHE_DIR", "REPRO_FAULTS", "REPRO_GUARD",
                  "REPRO_OBS_DIR", "REPRO_RESILIENCE", "REPRO_SIM_CORE"}

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``os.environ`` methods that write it.
_ENVIRON_WRITERS = {"update", "setdefault", "pop", "popitem", "clear"}


def _is_environ(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "environ"
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def _environ_writes(tree):
    """Line numbers of every statement in ``tree`` that writes the
    process environment."""
    for node in ast.walk(tree):
        targets = ()
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = (node.target,)
        for target in targets:
            if isinstance(target, ast.Subscript) and \
                    _is_environ(target.value):
                yield node.lineno
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute):
            func = node.func
            if _is_environ(func.value) and func.attr in _ENVIRON_WRITERS:
                yield node.lineno
            if isinstance(func.value, ast.Name) and func.value.id == "os" \
                    and func.attr in ("putenv", "unsetenv"):
                yield node.lineno


class TestEnvironmentSurface:
    """Settings travel as arguments: the library reads a fixed set of
    variables and never writes the environment."""

    def test_env_names_are_the_allowlist(self):
        names = set()
        for path in _SRC.rglob("*.py"):
            names.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
        assert names == _ENV_ALLOWLIST

    def test_no_module_writes_the_environment(self):
        writes = []
        for path in sorted(_SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            writes += [f"{path.relative_to(_SRC)}:{line}"
                       for line in _environ_writes(tree)]
        assert writes == []

    def test_write_detector_sees_each_form(self):
        tree = ast.parse("import os\n"
                         "os.environ['A'] = '1'\n"
                         "os.environ.update(B='2')\n"
                         "os.environ.setdefault('C', '3')\n"
                         "os.putenv('D', '4')\n"
                         "del os.environ['A']\n"
                         "x = os.environ.get('E')\n")
        assert sorted(_environ_writes(tree)) == [2, 3, 4, 5, 6]


# -- guard stays out of the model --------------------------------------------------
class TestGuardTransparency:
    def test_guarded_and_unguarded_stats_identical(self):
        wl = make_btree_workload("btree", n_keys=1024, n_queries=64, seed=7)
        cfg = scaled_config_for(wl.image.size_bytes)

        def run(guard):
            gpu = GPU(cfg, accelerator_factory=make_rta_factory(tta=True))
            args = wl.kernel_args(jobs=wl.jobs("tta"))
            stats = gpu.launch(btree_accel_kernel, wl.n_queries, args=args,
                               guard=guard)
            return stats, dict(args.results)

        off, off_results = run(GuardConfig(mode="off"))
        strict, strict_results = run(Guard(GuardConfig(mode="strict",
                                                       check_events=1_000)))
        assert off_results == strict_results
        assert float(off.cycles) == float(strict.cycles)
        assert off.total_warp_instructions == strict.total_warp_instructions
        assert off.accel_stats["jobs_completed"] == \
            strict.accel_stats["jobs_completed"]
