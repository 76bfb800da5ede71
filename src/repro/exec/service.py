"""The experiment execution service.

:class:`ExecutionService` resolves each point through three layers:

1. an **in-memory memo** (spec key → RunResult) — repeated points
   inside one process are free;
2. the **content-addressed disk cache** (:mod:`repro.exec.cache`) —
   repeated points across processes only unpickle;
3. **execution** — in this process, or, for a batch with ``jobs > 1``,
   as a one-off campaign table that ``jobs`` local workers drain
   (:func:`repro.campaign.drain`, the fan-out ``repro campaign run``
   uses too) into the disk cache.

Figures parallelize via **record/replay**: the figure function runs
once in *recording* mode, where every :meth:`ExecutionService.run` call
logs its spec and returns a numeric stub (figure bodies only ever do
arithmetic on results, never branch on which runs exist); the deduped
spec list then drains as a campaign table into the caches; finally the
figure function runs again for real, with every point a cache hit.
Serial and parallel runs therefore assemble tables from *identical*
RunResult objects — the acceptance property ``fig12 --jobs 4 ==
serial`` holds by construction, and ``tests/test_exec.py`` checks it
anyway.

Every batch also fills a :class:`RunManifest` — structured counters
(executed / cached / failed, wall time) that the CLI prints and resume
tooling can assert on ("second invocation executed 0 simulations").

**Guard aborts** (``repro.guard`` integration): a spec whose run
aborts with a guard error — the watchdog detected a stall, or a
conservation invariant failed — writes its diagnostic bundle to
``<cache>/quarantine/<key>.json`` and is recorded as *failed*, with
the error naming the bundle.  Nothing reaches the result cache.
:meth:`ExecutionService.run` re-raises the guard error;
:meth:`ExecutionService.run_many` records the failure and finishes the
rest of the sweep, so one poisoned config can no longer hang or kill a
whole figure.  The service's ``guard`` (a
:class:`~repro.guard.GuardConfig`, or None for the ``$REPRO_GUARD``
default) rides along to every launch, in this process and in campaign
workers alike.  The result cache does not key on the guard, so a
service with an explicit guard reads no cached result (the guard never
checked it) but still writes the results it runs.

**Tracing**: a service built with a ``tracer`` (a
:class:`~repro.obs.Tracer`) passes it to every launch it runs.  Only
launches in this process can record into it, so such a service runs
serially and uses no result cache: it reads no cached result (that
launch would not be traced) and writes none (a traced result also
carries trace-only metrics).  The tracer never reaches a worker.
"""

import contextlib
import json
import pathlib
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro import errors
from repro.errors import ConfigurationError, GuardError, SimulationError
from repro.exec.cache import ResultCache
from repro.exec.spec import RunSpec


# -- execution entry point --------------------------------------------------------
def execute_payload(payload: str, guard=None, tracer=None):
    """Execute one point: JSON spec in, RunResult out.

    ``guard`` (a :class:`~repro.guard.GuardConfig` or None) and
    ``tracer`` (in-process only) are passed to every launch of the
    run.  The runner is imported here so that importing
    :mod:`repro.exec` never drags the whole simulator in.
    """
    from repro.harness.runner import execute_spec

    return execute_spec(RunSpec.from_json(payload), guard=guard,
                        tracer=tracer)


# -- manifest ----------------------------------------------------------------------
STATUS_EXECUTED = "executed"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"
#: How a guard abort's record error starts.
_GUARD_ABORT = "guard abort: "


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


def _recorded_failure(spec: RunSpec, error: str) -> Exception:
    """The exception a failed record stands for: a guard abort as its
    own :class:`GuardError` class (named at the start of the error),
    anything else as a :class:`SimulationError` naming the point."""
    if not error.startswith(_GUARD_ABORT):
        return SimulationError(f"{spec.label}: {error}")
    name = error[len(_GUARD_ABORT):].split(":", 1)[0]
    cls = getattr(errors, name, GuardError)
    if not (isinstance(cls, type) and issubclass(cls, GuardError)):
        cls = GuardError
    return cls(error)


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
        self.notes = _StubMapping()

    @property
    def metrics(self):
        return self.stats.metrics

    def metric(self, name: str, default: float = 0.0) -> float:
        return 1.0

    def speedup_over(self, baseline) -> float:
        return 1.0


# -- the service -----------------------------------------------------------------------
class ExecutionService:
    """Runs :class:`RunSpec` points through memo, cache and workers."""

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 progress: bool = False,
                 guard=None, tracer=None) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if tracer is not None:
            jobs, cache = 1, None
        self.jobs = jobs
        self.cache = cache
        #: Whether batch workers print their ``[campaign]`` lines.
        self.progress = progress
        self.guard = guard
        self.tracer = tracer
        self.manifest = RunManifest(jobs=jobs)
        self._memory: Dict[str, Any] = {}
        self._recording: Optional[List[RunSpec]] = None

    # -- bookkeeping -------------------------------------------------------------
    @property
    def _reads_cache(self) -> bool:
        """Cached results are served only when no explicit guard asks
        for launches it checks."""
        return self.cache is not None and self.guard is None

    def reset_manifest(self) -> None:
        self.manifest = RunManifest(jobs=self.jobs)

    def clear_memory(self) -> None:
        self._memory.clear()

    def _record(self, spec: RunSpec, status: str, **kw) -> None:
        self.manifest.add(RunRecord(spec.key, spec.label, status, **kw))

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
                     seconds=seconds, error=f"{_GUARD_ABORT}{error}{where}")

    # -- single point ------------------------------------------------------------
    def run(self, spec: RunSpec):
        """Resolve one spec: memo → disk cache → execute in-process."""
        if self._recording is not None:
            self._recording.append(spec)
            return StubResult(spec)
        key = spec.key
        if key in self._memory:
            return self._memory[key]
        failed = self.manifest.records.get(key)
        if failed is not None and failed.status == STATUS_FAILED:
            # run_many already ran this point in this batch and it
            # failed: raise that failure instead of simulating again.
            raise _recorded_failure(spec, failed.error or "failed")
        if self._reads_cache:
            result = self.cache.get(spec)
            if result is not None:
                self._record(spec, STATUS_CACHED)
                self._memory[key] = result
                return result
        started = time.monotonic()
        try:
            result = execute_payload(spec.to_json(), guard=self.guard,
                                     tracer=self.tracer)
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

    def settle(self, spec: RunSpec) -> Optional[str]:
        """:meth:`run` that records a failure instead of raising it;
        returns the failure's one-line error, or None."""
        started = time.monotonic()
        try:
            self.run(spec)
        except GuardError:
            # run() recorded the abort, naming the diagnostic bundle.
            return self.manifest.records[spec.key].error
        except Exception as exc:  # noqa: BLE001 — one point, not the batch
            error = f"{type(exc).__name__}: {exc}"
            self._record(spec, STATUS_FAILED,
                         seconds=time.monotonic() - started, error=error)
            return error
        return None

    # -- batches -------------------------------------------------------------------
    def run_many(self, specs: Sequence[RunSpec]) -> None:
        """Resolve a batch; with ``jobs > 1`` the misses drain as a
        campaign table over ``jobs`` local workers.

        Results land in the memo/cache; failures are recorded in the
        manifest and raised when (if) the failing point is requested
        via :meth:`run`, which does not simulate it again.
        """
        started = time.monotonic()
        unique: Dict[str, RunSpec] = {}
        for spec in specs:
            unique.setdefault(spec.key, spec)
        missing: List[RunSpec] = []
        for key, spec in unique.items():
            if key in self._memory:
                continue
            result = self.cache.get(spec) if self._reads_cache else None
            if result is not None:
                self._memory[key] = result
                self._record(spec, STATUS_CACHED)
            else:
                missing.append(spec)

        if self.jobs > 1 and len(missing) > 1:
            self.manifest.mode = self._drain(missing)
        elif missing:
            self.manifest.mode = "serial"
            for spec in missing:
                self.settle(spec)
        self.manifest.jobs = self.jobs
        self.manifest.wall_seconds += time.monotonic() - started

    def _drain(self, missing: List[RunSpec]) -> str:
        """Drain ``missing`` as a one-off campaign table; returns the
        manifest mode.

        The table lives in a fresh directory under the cache's
        ``campaigns/`` and goes when the batch is done, so a failed
        point is attempted again by the next batch.  A service without
        a cache drains into a temporary one that goes with it.
        """
        from repro.campaign import (
            CAMPAIGNS_SUBDIR,
            DRAIN_PREFIX,
            CampaignPoint,
            drain,
            load_records,
        )

        with contextlib.ExitStack() as stack:
            cache = self.cache
            if cache is None:
                cache = ResultCache(stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-drain-")))
            root = cache.base / CAMPAIGNS_SUBDIR
            root.mkdir(parents=True, exist_ok=True)
            directory = pathlib.Path(stack.enter_context(
                tempfile.TemporaryDirectory(prefix=DRAIN_PREFIX, dir=root)))
            points = [CampaignPoint.of(spec) for spec in missing]
            forked = drain(directory, points, workers=self.jobs,
                           cache=cache, guard=self.guard,
                           quiet=not self.progress)
            # drain() returns once every point has a record.
            records = {r["key"]: r for r in load_records(directory)}
            for spec in missing:
                self._fold_record(spec, records[spec.key], cache)
        return "parallel" if forked else "serial-fallback"

    def _fold_record(self, spec: RunSpec, record: Dict[str, Any],
                     cache: ResultCache) -> None:
        """Fold one drained point's record (and result) into the
        manifest and the memo."""
        seconds = record["wall_s"]
        if record["status"] == STATUS_FAILED:
            error = record["error"]
            if self.cache is None:
                # The temporary cache goes with the batch, and so does
                # any diagnostic bundle a worker wrote into it.
                error = error.split("; bundle at ")[0]
            self._record(spec, STATUS_FAILED, seconds=seconds, error=error)
            return
        result = cache.get(spec)
        if result is None:
            # The entry went bad after its worker wrote it (get()
            # quarantined it).
            self._record(spec, STATUS_FAILED, seconds=seconds,
                         error="result cache miss")
            return
        self._memory[spec.key] = result
        self._record(spec, record["status"], seconds=seconds)

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
