"""The campaign worker: drain the shared run table until it is empty.

A worker is a plain process (spawned locally by the orchestrator, or
joined from another host with ``repro campaign worker --join <dir>``)
that expands the campaign document *itself*, walks the table in its own
id-derived order, and for each unresolved point either

* observes a **record** (someone finished it — skip),
* observes a **cache hit** (a previous campaign or a sibling already
  produced the result — write a ``cached`` record, no simulation),
* **acquires the lease** and runs the point through a serial
  :class:`~repro.exec.service.ExecutionService` (which brings the memo,
  the content-addressed cache write, the metrics sidecar, and the guard
  bundle of an aborted point along for free), or
* finds the lease held by someone else and moves on.

When a full pass over the table resolves nothing and unresolved points
remain, the worker sleeps briefly and retries: either a sibling will
finish the leased points, or their leases will expire and this worker
steals them.  A crashed worker therefore costs at most one lease TTL of
latency, never lost work — its completed points are already in the
cache, and its in-flight point is re-run from scratch (deterministic,
so the result is identical).

Every resolution writes an atomic per-point **record** under
``<campaign_dir>/records/`` carrying the run's resource metrics: wall
seconds, peak RSS, cache hit/miss, and the error of a failed point (a
guard abort names its diagnostic bundle) and the worker's explicit
guard, or None.  Records are the resumability ledger and the raw
material :func:`repro.campaign.orchestrator.finalize` folds into the
campaign manifest: a point with a record is never re-attempted, except
by a worker with an explicit guard, which re-runs every point whose
record names a different guard.
"""

import dataclasses
import json
import os
import pathlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import GuardError
from repro.exec.cache import ResultCache
from repro.exec.service import (
    STATUS_CACHED,
    STATUS_EXECUTED,
    STATUS_FAILED,
    ExecutionService,
)
from repro.campaign.leases import LEASES_DIR, LeaseBoard
from repro.campaign.spec import CampaignPoint, CampaignSpec, worker_order

#: File names inside a campaign directory.
CAMPAIGN_FILE = "campaign.json"
RECORDS_DIR = "records"
WORKERS_DIR = "workers"
MANIFEST_FILE = "manifest.json"

#: How long an idle pass sleeps before rescanning leased points.
_POLL_S = 0.05


def peak_rss_kb() -> float:
    """This process's lifetime peak resident set, in KiB.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalized here
    so records compare across hosts.  0.0 where ``resource`` is
    unavailable (non-POSIX) — the field is observability, never load-
    bearing.
    """
    try:
        import resource
    except ImportError:
        return 0.0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 1024.0 if sys.platform == "darwin" else float(rss)


def _atomic_write_json(path: pathlib.Path, doc: Dict[str, Any]) -> None:
    tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True,
                              default=str) + "\n")
    os.replace(tmp, path)


@dataclass
class WorkerReport:
    """One worker's account of its share of the campaign."""

    worker_id: str
    executed: int = 0
    cached: int = 0
    failed: int = 0
    stolen: int = 0
    skipped: int = 0
    wall_seconds: float = 0.0
    peak_rss_kb: float = 0.0
    #: True when the worker stopped early (``max_points`` reached or
    #: the wait budget expired), leaving unresolved points behind.
    partial: bool = False
    errors: List[str] = field(default_factory=list)

    @property
    def resolved(self) -> int:
        return self.executed + self.cached + self.failed

    def to_dict(self) -> Dict[str, Any]:
        doc = {k: getattr(self, k) for k in
               ("worker_id", "executed", "cached", "failed", "stolen",
                "skipped", "wall_seconds", "peak_rss_kb", "partial",
                "errors")}
        doc["finished_unix"] = time.time()
        return doc


class CampaignWorker:
    """Work-stealing executor of one campaign's run table."""

    def __init__(self, campaign_dir, worker_id: Optional[str] = None,
                 cache: Optional[ResultCache] = None,
                 max_points: Optional[int] = None,
                 max_wait_s: Optional[float] = None,
                 quiet: bool = False, guard=None) -> None:
        self.dir = pathlib.Path(campaign_dir)
        self.spec = CampaignSpec.from_file(self.dir / CAMPAIGN_FILE)
        self.worker_id = worker_id or f"w{os.getpid()}"
        self.cache = cache if cache is not None else ResultCache()
        self.max_points = max_points
        self.max_wait_s = max_wait_s
        self.quiet = quiet
        self.records_dir = self.dir / RECORDS_DIR
        self.records_dir.mkdir(parents=True, exist_ok=True)
        (self.dir / WORKERS_DIR).mkdir(parents=True, exist_ok=True)
        self.board = LeaseBoard(self.dir / LEASES_DIR, self.worker_id,
                                ttl_s=self.spec.lease_ttl_s)
        # jobs=1: the *campaign* is the parallelism layer; each worker
        # simulates one point at a time in-process.
        self.service = ExecutionService(jobs=1, cache=self.cache,
                                        guard=guard)
        self.guard_doc = (dataclasses.asdict(guard) if guard is not None
                          else None)

    # -- records ---------------------------------------------------------------
    def _record_path(self, key: str) -> pathlib.Path:
        return self.records_dir / f"{key}.json"

    def has_record(self, key: str) -> bool:
        """Whether ``key`` is settled: it has a record and, under an
        explicit guard, that record was made under the same guard."""
        path = self._record_path(key)
        if self.guard_doc is None:
            return path.exists()
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return False
        return doc.get("guard") == self.guard_doc

    def _write_record(self, point: CampaignPoint, status: str,
                      wall_s: float, error: Optional[str] = None,
                      stolen: bool = False) -> None:
        self._write_record_doc(point, {
            "key": point.key,
            "label": point.label,
            "axes": point.axes,
            "status": status,
            "wall_s": wall_s,
            "peak_rss_kb": peak_rss_kb(),
            "cache_hit": status == STATUS_CACHED,
            "stolen_lease": stolen,
            "worker": self.worker_id,
            "guard": self.guard_doc,
            "error": error,
            "finished_unix": time.time(),
        })

    def _write_record_doc(self, point: CampaignPoint,
                          doc: Dict[str, Any]) -> None:
        _atomic_write_json(self._record_path(point.key), doc)

    # -- one point -------------------------------------------------------------
    def _resolve(self, point: CampaignPoint, report: WorkerReport,
                 stolen: bool) -> None:
        """Run (or cache-hit) one claimed point and write its record."""
        started = time.monotonic()
        error: Optional[str] = None
        try:
            self.service.run(point.spec)
        except GuardError:
            # The manifest's error names the diagnostic bundle.
            error = self.service.manifest.records[point.key].error
        except Exception as exc:  # noqa: BLE001 — one cell, not the sweep
            error = f"{type(exc).__name__}: {exc}"
        wall = time.monotonic() - started
        record = self.service.manifest.records.get(point.key)
        if error is not None:
            status = STATUS_FAILED
            report.failed += 1
            report.errors.append(f"{point.label}: {error}")
        else:
            status = record.status if record is not None else STATUS_EXECUTED
            if status == STATUS_CACHED:
                report.cached += 1
            else:
                report.executed += 1
        self._write_record(point, status, wall, error=error, stolen=stolen)
        if stolen:
            report.stolen += 1
        if not self.quiet:
            print(f"[campaign] {self.worker_id} {status} {point.label} "
                  f"({wall:.2f}s{', stolen' if stolen else ''})",
                  file=sys.stderr)

    # -- the loop --------------------------------------------------------------
    def run(self) -> WorkerReport:
        report = WorkerReport(self.worker_id)
        started = time.monotonic()
        points = worker_order(self.spec.expand(), self.worker_id)
        resolved_keys = set()
        try:
            while True:
                progress = False
                leased_elsewhere: List[CampaignPoint] = []
                for point in points:
                    if point.key in resolved_keys:
                        continue
                    if self.has_record(point.key):
                        resolved_keys.add(point.key)
                        report.skipped += 1
                        continue
                    if report.resolved >= (self.max_points
                                           if self.max_points is not None
                                           else float("inf")):
                        report.partial = True
                        return report
                    stole_before = self.board.stolen
                    if not self.board.acquire(point.key):
                        leased_elsewhere.append(point)
                        continue
                    stolen = self.board.stolen > stole_before
                    try:
                        if self.has_record(point.key):
                            # Raced a sibling that finished between our
                            # record check and the (stolen) acquire.
                            report.skipped += 1
                        else:
                            self._resolve(point, report, stolen)
                    finally:
                        self.board.release(point.key)
                    resolved_keys.add(point.key)
                    progress = True
                if not leased_elsewhere:
                    return report
                if not progress:
                    if self.max_wait_s is not None and \
                            time.monotonic() - started > self.max_wait_s:
                        report.partial = True
                        return report
                    time.sleep(_POLL_S)
        finally:
            report.wall_seconds = time.monotonic() - started
            report.peak_rss_kb = peak_rss_kb()
            _atomic_write_json(
                self.dir / WORKERS_DIR / f"{self.worker_id}.json",
                report.to_dict())


def run_worker(campaign_dir, worker_id: Optional[str] = None,
               cache: Optional[ResultCache] = None,
               max_points: Optional[int] = None,
               max_wait_s: Optional[float] = None,
               quiet: bool = False, guard=None) -> WorkerReport:
    """Convenience wrapper: build a :class:`CampaignWorker` and run it."""
    return CampaignWorker(campaign_dir, worker_id=worker_id, cache=cache,
                          max_points=max_points, max_wait_s=max_wait_s,
                          quiet=quiet, guard=guard).run()
