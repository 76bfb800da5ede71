"""The experiment execution service.

:class:`ExecutionService` owns three layers:

1. an **in-memory memo** (spec key → RunResult) replacing the old
   ad-hoc dict in ``harness.experiments`` — repeated points inside one
   process are free;
2. the **content-addressed disk cache** (:mod:`repro.exec.cache`) —
   repeated points across processes only unpickle;
3. the **worker pool** (:mod:`repro.exec.pool`) — missing points fan
   out over a ``ProcessPoolExecutor``, degrading gracefully to serial
   in-process execution when multiprocessing is unavailable.

Figures parallelize via **record/replay**: the figure function runs
once in *recording* mode, where every :meth:`ExecutionService.run` call
logs its spec and returns a numeric stub (figure bodies only ever do
arithmetic on results, never branch on which runs exist); the deduped
spec list then executes through the pool into the caches; finally the
figure function runs again for real, with every point a cache hit.
Serial and parallel runs therefore assemble tables from *identical*
RunResult objects — the acceptance property ``fig12 --jobs 4 ==
serial`` holds by construction, and ``tests/test_exec.py`` checks it
anyway.

Every batch also fills a :class:`RunManifest` — structured counters
(executed / cached / failed, attempts, wall time) that the CLI prints
and resume tooling can assert on ("second invocation executed 0
simulations").

**Guard aborts** (``repro.guard`` integration): a spec whose run
aborts with a guard error — the watchdog detected a stall, or a
conservation invariant failed — writes its diagnostic bundle to
``<cache>/quarantine/<key>.json`` and is recorded as *failed*, with
the error naming the bundle.  Nothing reaches the result cache.
:meth:`ExecutionService.run` re-raises the guard error;
:meth:`ExecutionService.run_many` records the failure and finishes the
rest of the sweep, so one poisoned config can no longer hang or kill a
whole figure.
"""

import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, GuardError
from repro.exec.cache import ResultCache
from repro.exec.pool import (
    Outcome,
    ParallelRunner,
    run_serial,
)
from repro.exec.spec import RunSpec

#: Exception type names classified as guard verdicts (matched by name
#: because pool failures cross a pickling boundary).
GUARD_FAILURE_TYPES = ("SimulationStallError", "InvariantViolation")

#: Set to a truthy value to force in-process execution regardless of
#: ``jobs`` (useful under debuggers and in constrained sandboxes).
SERIAL_ENV = "REPRO_EXEC_SERIAL"


# -- worker entry point -----------------------------------------------------------
def execute_payload(payload: str):
    """Top-level worker function: JSON spec in, RunResult out.

    Imports happen inside so that forked/spawned workers pay the import
    cost once per process, and so that importing :mod:`repro.exec.pool`
    never drags the whole simulator in.
    """
    from repro.harness.runner import execute_spec

    return execute_spec(RunSpec.from_json(payload))


# -- manifest ----------------------------------------------------------------------
STATUS_EXECUTED = "executed"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"


@dataclass
class RunRecord:
    """How one unique spec was satisfied."""

    key: str
    label: str
    status: str
    attempts: int = 1
    seconds: float = 0.0
    error: Optional[str] = None


@dataclass
class RunManifest:
    """Structured account of one batch of runs."""

    mode: str = "serial"
    jobs: int = 1
    wall_seconds: float = 0.0
    records: Dict[str, RunRecord] = field(default_factory=dict)

    def add(self, record: RunRecord) -> None:
        # First resolution wins (replay hits must not double-count),
        # except that a later successful retry overrides a failure.
        existing = self.records.get(record.key)
        if existing is None or existing.status == STATUS_FAILED:
            self.records[record.key] = record

    def _count(self, status: str) -> int:
        return sum(1 for r in self.records.values() if r.status == status)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def executed(self) -> int:
        return self._count(STATUS_EXECUTED)

    @property
    def cached(self) -> int:
        return self._count(STATUS_CACHED)

    @property
    def failed(self) -> int:
        return self._count(STATUS_FAILED)

    def summary(self) -> str:
        return (f"[exec] total={self.total} executed={self.executed} "
                f"cached={self.cached} failed={self.failed} "
                f"mode={self.mode} jobs={self.jobs} "
                f"wall={self.wall_seconds:.1f}s")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "total": self.total,
            "executed": self.executed,
            "cached": self.cached,
            "failed": self.failed,
            "runs": [vars(r) for r in self.records.values()],
        }


# -- recording stubs ----------------------------------------------------------------
class _StubMapping(dict):
    """Mapping whose every lookup is 1.0 (keeps figure arithmetic alive)."""

    def __getitem__(self, key):  # noqa: D105
        return 1.0

    def get(self, key, default=None):
        return 1.0


class _StubMetrics:
    """Metrics snapshot stand-in: scalar reads are 1.0, groups empty.

    ``group()`` returning ``{}`` matters the same way the empty
    ``accel_stats`` dict does: figures *iterate* metric groups
    (Fig. 18) and must see no spurious entries during recording.
    """

    def get(self, name, default=0.0):
        return 1.0

    def group(self, prefix):
        return {}

    def series(self, name):
        return None

    def histogram(self, name):
        return None

    def names(self):
        return ()

    def as_dict(self):
        return {}


class _StubStats:
    cycles = 1.0
    simt_efficiency = 1.0
    total_warp_instructions = 1.0
    dram_utilization = 1.0
    l1_hit_rate = 0.0
    mem_sectors = 0

    def __init__(self) -> None:
        self.warp_instructions = _StubMapping()
        self.thread_instructions = _StubMapping()
        self.memory = _StubMapping()
        # Plain dict: figures *iterate* accel stats (Figs. 15/18) and
        # must see no spurious entries during recording.
        self.accel_stats: Dict[str, float] = {}
        self.notes: Dict[str, Any] = {}
        self.metrics = _StubMetrics()


class _StubEnergy:
    compute_core_mj = warp_buffer_mj = intersection_mj = total_mj = 1.0

    def normalized_to(self, baseline) -> Dict[str, float]:
        return _StubMapping()


class StubResult:
    """Placeholder RunResult returned while recording a figure."""

    cycles = 1.0
    simt_efficiency = 1.0
    dram_utilization = 1.0

    def __init__(self, spec: RunSpec) -> None:
        self.workload = spec.label
        self.platform = spec.platform
        self.stats = _StubStats()
        self.energy = _StubEnergy()
        self.notes: Dict[str, Any] = {}

    @property
    def metrics(self):
        return self.stats.metrics

    def metric(self, name: str, default: float = 0.0) -> float:
        return 1.0

    def speedup_over(self, baseline) -> float:
        return 1.0


# -- progress reporting ---------------------------------------------------------------
class _ProgressPrinter:
    """Rate-limited ``[exec] i/n`` lines with a crude ETA on stderr."""

    def __init__(self, total: int, stream=None, min_interval: float = 0.5):
        self.total = total
        self.done = 0
        self.executed = 0
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self.started = time.monotonic()
        self._last = 0.0

    def cached(self, n: int = 1) -> None:
        self.done += n
        self._emit()

    def __call__(self, outcome: Outcome) -> None:
        self.done += 1
        self.executed += 1
        self._emit(force=self.done == self.total)

    def _emit(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last < self.min_interval:
            return
        self._last = now
        elapsed = now - self.started
        remaining = self.total - self.done
        if self.executed and remaining > 0:
            eta = f", eta {elapsed / max(1, self.done) * remaining:.0f}s"
        else:
            eta = ""
        print(f"[exec] {self.done}/{self.total} points "
              f"({self.executed} simulated), {elapsed:.1f}s elapsed{eta}",
              file=self.stream)


# -- the service -----------------------------------------------------------------------
class ExecutionService:
    """Runs :class:`RunSpec` points through memo, cache and pool."""

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 timeout: Optional[float] = None,
                 retries: int = 1,
                 progress: bool = False) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        self.jobs = jobs
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.manifest = RunManifest(jobs=jobs)
        self._memory: Dict[str, Any] = {}
        self._recording: Optional[List[RunSpec]] = None

    # -- bookkeeping -------------------------------------------------------------
    def reset_manifest(self) -> None:
        self.manifest = RunManifest(jobs=self.jobs)

    def clear_memory(self) -> None:
        self._memory.clear()

    def _record(self, spec: RunSpec, status: str, **kw) -> None:
        self.manifest.add(RunRecord(spec.key, spec.label, status, **kw))

    @property
    def _serial_forced(self) -> bool:
        return bool(os.environ.get(SERIAL_ENV))

    # -- guard quarantine ---------------------------------------------------------
    def _write_quarantine(self, spec: RunSpec, error: str,
                          diagnostics: Optional[dict]) -> Optional[str]:
        """Persist a guard diagnostic bundle for post-mortem; returns
        its path, or None when there is no cache directory to hold it
        (or the write itself fails — quarantine must never raise)."""
        if self.cache is None:
            return None
        qdir = self.cache.base / "quarantine"
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            path = qdir / f"{spec.key}.json"
            bundle = {
                "spec": spec.canonical(),
                "label": spec.label,
                "error": error,
                "diagnostics": diagnostics,
                "created": time.time(),
            }
            with open(path, "w") as fh:
                json.dump(bundle, fh, indent=1, default=str)
            return str(path)
        except OSError:
            return None

    def _quarantine(self, spec: RunSpec, error: str,
                    diagnostics: Optional[dict],
                    attempts: int, seconds: float) -> None:
        """The guard aborted ``spec``: write its diagnostic bundle and
        record the point as failed, naming the bundle."""
        bundle_path = self._write_quarantine(spec, error, diagnostics)
        where = f"; bundle at {bundle_path}" if bundle_path else ""
        print(f"[exec] guard aborted {spec.label}: {error}{where}",
              file=sys.stderr)
        self._record(spec, STATUS_FAILED, attempts=attempts,
                     seconds=seconds, error=f"guard abort: {error}{where}")

    # -- single point ------------------------------------------------------------
    def run(self, spec: RunSpec):
        """Resolve one spec: memo → disk cache → execute in-process."""
        if self._recording is not None:
            self._recording.append(spec)
            return StubResult(spec)
        key = spec.key
        if key in self._memory:
            return self._memory[key]
        if self.cache is not None:
            result = self.cache.get(spec)
            if result is not None:
                self._record(spec, STATUS_CACHED)
                self._memory[key] = result
                return result
        started = time.monotonic()
        try:
            result = execute_payload(spec.to_json())
        except GuardError as exc:
            self._quarantine(spec, f"{type(exc).__name__}: {exc}",
                             exc.diagnostics, attempts=1,
                             seconds=time.monotonic() - started)
            raise
        except Exception:
            self._record(spec, STATUS_FAILED,
                         seconds=time.monotonic() - started,
                         error="in-process execution raised")
            raise
        seconds = time.monotonic() - started
        self._record(spec, STATUS_EXECUTED, seconds=seconds)
        if self.cache is not None:
            self.cache.put(spec, result, seconds=seconds)
        self._memory[key] = result
        return result

    # -- batches -------------------------------------------------------------------
    def run_many(self, specs: Sequence[RunSpec]) -> None:
        """Resolve a batch, fanning misses out over the worker pool.

        Results land in the memo/cache; failures are recorded in the
        manifest and re-raised lazily when (if) the failing point is
        actually requested via :meth:`run`.
        """
        started = time.monotonic()
        unique: Dict[str, RunSpec] = {}
        for spec in specs:
            unique.setdefault(spec.key, spec)
        missing: List[RunSpec] = []
        cached_hits = 0
        for key, spec in unique.items():
            if key in self._memory:
                continue
            result = self.cache.get(spec) if self.cache is not None else None
            if result is not None:
                self._memory[key] = result
                self._record(spec, STATUS_CACHED)
                cached_hits += 1
            else:
                missing.append(spec)

        reporter = None
        if self.progress and unique:
            reporter = _ProgressPrinter(len(unique))
            if cached_hits:
                reporter.cached(cached_hits)

        if missing:
            outcomes, mode = self._dispatch(missing, reporter)
            self.manifest.mode = mode
            for outcome in outcomes:
                spec = missing[outcome.index]
                if outcome.ok:
                    self._memory[spec.key] = outcome.value
                    self._record(spec, STATUS_EXECUTED,
                                 attempts=outcome.attempts,
                                 seconds=outcome.seconds)
                    if self.cache is not None:
                        self.cache.put(spec, outcome.value,
                                       seconds=outcome.seconds)
                else:
                    failure = outcome.failure or {}
                    if failure.get("type") in GUARD_FAILURE_TYPES:
                        self._quarantine(
                            spec, failure["type"],
                            failure.get("diagnostics"),
                            attempts=outcome.attempts,
                            seconds=outcome.seconds)
                    else:
                        self._record(spec, STATUS_FAILED,
                                     attempts=outcome.attempts,
                                     seconds=outcome.seconds,
                                     error=outcome.error)
        self.manifest.jobs = self.jobs
        self.manifest.wall_seconds += time.monotonic() - started

    def _dispatch(self, missing, reporter):
        """Run the missing specs; returns (outcomes, mode string)."""
        payloads = [spec.to_json() for spec in missing]
        if self.jobs > 1 and len(missing) > 1 and not self._serial_forced:
            try:
                runner = ParallelRunner(self.jobs, timeout=self.timeout,
                                        retries=self.retries)
            except Exception as exc:  # no multiprocessing here
                print(f"[exec] worker pool unavailable "
                      f"({type(exc).__name__}: {exc}); running serially",
                      file=sys.stderr)
                return (run_serial(execute_payload, payloads,
                                   retries=self.retries, progress=reporter),
                        "serial-fallback")
            with runner:
                return (runner.map(execute_payload, payloads,
                                   progress=reporter),
                        "parallel")
        return (run_serial(execute_payload, payloads, retries=self.retries,
                           progress=reporter),
                "serial")

    # -- figures ---------------------------------------------------------------------
    def collect(self, fn: Callable, *args) -> List[RunSpec]:
        """Record-mode pass: which specs would ``fn(*args)`` run?"""
        if self._recording is not None:
            raise ConfigurationError("collect() cannot nest")
        self._recording = []
        try:
            fn(*args)
        finally:
            specs, self._recording = self._recording, None
        return specs

    def run_figure(self, fn: Callable, scale: str):
        """Run ``fn(scale)``, parallelizing its points if jobs>1."""
        self.reset_manifest()
        started = time.monotonic()
        if self.jobs > 1:
            self.run_many(self.collect(fn, scale))
        table = fn(scale)
        self.manifest.wall_seconds = time.monotonic() - started
        return table

    # -- metrics ----------------------------------------------------------------
    def metrics_report(self) -> Dict[str, Any]:
        """Flat metrics for every point this batch touched.

        Maps each manifest record's label to its result's
        ``repro.obs`` snapshot (``as_dict()`` form: scalars, series,
        histograms).  Points resolved from a pre-obs cache entry carry
        an empty snapshot and report ``{}``.
        """
        report: Dict[str, Any] = {}
        for record in self.manifest.records.values():
            result = self._memory.get(record.key)
            snapshot = getattr(getattr(result, "stats", None), "metrics",
                               None)
            if snapshot is None:
                continue
            report[record.label] = snapshot.as_dict()
        return report
