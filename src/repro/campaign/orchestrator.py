"""Campaign orchestration: init, local worker fan-out, manifest.

``run_campaign`` is deliberately thin: it materializes the campaign
directory (the *only* shared state), hands the expanded table to
:func:`drain`, and finalizes the manifest once the table is drained.
:func:`drain` is the one local fan-out path: ``repro campaign run
--workers N`` and ``ExecutionService.run_many`` (``repro run``/``sweep
--jobs N``) both use it.  Workers on other hosts join the very same
directory with ``repro campaign worker --join`` — the orchestrator
neither knows nor cares, because completion is defined by records +
cache entries, not by which processes it spawned.

The **manifest** is the campaign's durable output: per-point axes,
status, error, wall time, peak RSS, cache hit/miss and lease-steal
flags, campaign-level totals, per-worker reports, and a
``repro.obs``-style metrics snapshot (``campaign.*`` namespace) built
through the same :class:`~repro.obs.metrics.MetricsRegistry` the
simulator uses — so campaign dashboards read the exact format run
metrics already use.  A point the guard aborted is a plain failure:
its record's error names the diagnostic bundle, it counts under
``failed`` in the totals, and ``repro campaign run`` exits 1.

``result_fingerprint`` hashes each point's *result checksum* (the
SHA-256 the exec cache recorded at put time) in key order.  Two
campaigns — interrupted-and-resumed vs. uninterrupted, 1 worker vs. 8,
one host vs. three — agree on this fingerprint iff every per-point
result is bit-identical.
"""

import hashlib
import json
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.exec.cache import ResultCache
from repro.exec.service import STATUS_FAILED
from repro.campaign.leases import LEASES_DIR
from repro.campaign.spec import CampaignPoint, CampaignSpec
from repro.campaign.worker import (
    CAMPAIGN_FILE,
    MANIFEST_FILE,
    RECORDS_DIR,
    WORKERS_DIR,
    _atomic_write_json,
    run_worker,
)

#: Subdirectory of the cache root where campaign directories live by
#: default — rides the same shared filesystem the cache already uses,
#: which is what makes multi-host joins work with zero extra setup.
CAMPAIGNS_SUBDIR = "campaigns"


def campaign_dir_for(spec: CampaignSpec,
                     cache: Optional[ResultCache] = None) -> pathlib.Path:
    cache = cache if cache is not None else ResultCache()
    return cache.base / CAMPAIGNS_SUBDIR / spec.slug


def init_campaign(spec: CampaignSpec,
                  directory: Optional[pathlib.Path] = None,
                  cache: Optional[ResultCache] = None) -> pathlib.Path:
    """Create (or re-open) the campaign directory; idempotent.

    Re-opening with a *different* run table under the same path is a
    configuration error — the directory's records would silently stop
    matching the expansion.
    """
    directory = pathlib.Path(directory) if directory is not None \
        else campaign_dir_for(spec, cache)
    directory.mkdir(parents=True, exist_ok=True)
    doc_path = directory / CAMPAIGN_FILE
    if doc_path.exists():
        existing = CampaignSpec.from_file(doc_path)
        if existing.canonical() != spec.canonical():
            raise ConfigurationError(
                f"{directory} already holds a different campaign "
                f"({existing.slug}); pick another --dir or name")
    else:
        spec.write(doc_path)
    for sub in (RECORDS_DIR, LEASES_DIR, WORKERS_DIR):
        (directory / sub).mkdir(exist_ok=True)
    return directory


# -- local fan-out --------------------------------------------------------------
def _worker_entry(directory: str, worker_id: str, cache_root: str,
                  quiet: bool, guard, points: List[CampaignPoint]) -> None:
    """Top-level target for forked local worker processes."""
    report = run_worker(directory, worker_id=worker_id,
                        cache=ResultCache(pathlib.Path(cache_root)),
                        quiet=quiet, guard=guard, points=points)
    # Worker processes communicate through the filesystem like remote
    # joiners do; the exit code only says "I did not crash".
    sys.exit(1 if report.errors and not report.resolved else 0)


def _start_workers(directory: pathlib.Path, points: List[CampaignPoint],
                   n: int, cache: ResultCache, guard,
                   quiet: bool) -> List[Any]:
    """Start workers ``w1`` … ``wn`` as local processes."""
    import multiprocessing

    ctx = multiprocessing.get_context(
        "fork" if sys.platform != "win32" else None)
    procs = []
    for i in range(n):
        proc = ctx.Process(
            target=_worker_entry,
            args=(str(directory), f"w{i + 1}", str(cache.base), quiet,
                  guard, points))
        proc.start()
        procs.append(proc)
    return procs


def drain(directory: pathlib.Path, points: List[CampaignPoint],
          workers: int, cache: ResultCache, guard=None,
          quiet: bool = False) -> int:
    """Resolve every point with ``workers`` local workers; returns how
    many worker processes were started.

    Workers ``w1`` … are forked processes; the caller is worker ``w0``
    and drains in-process rather than just waiting, so ``workers=N``
    really is N simulating processes.  ``workers=1`` (or a sandbox
    without multiprocessing) starts none and ``w0`` drains the table
    alone.  ``w0`` waits for every point to be recorded, which doubles
    as crash recovery: a point whose forked worker died mid-run is
    stolen at once (its reaped pid is provably dead).  Results land in
    ``cache`` and each point's record under ``directory``.  ``guard``
    (a :class:`~repro.guard.GuardConfig`, or None for the
    ``$REPRO_GUARD`` default) is handed to every worker.
    """
    procs: List[Any] = []
    if workers > 1:
        try:
            procs = _start_workers(directory, points, workers - 1, cache,
                                   guard, quiet)
        except Exception as exc:  # constrained sandboxes
            print(f"[campaign] worker processes unavailable "
                  f"({type(exc).__name__}: {exc}); draining in-process",
                  file=sys.stderr)
    run_worker(directory, worker_id="w0", cache=cache, quiet=quiet,
               guard=guard, points=points)
    for proc in procs:
        proc.join()
    return len(procs)


def run_campaign(spec: CampaignSpec, workers: int = 1,
                 directory: Optional[pathlib.Path] = None,
                 cache: Optional[ResultCache] = None,
                 quiet: bool = False, guard=None) -> Dict[str, Any]:
    """Drain the whole run table with ``workers`` local processes.

    Returns the finalized manifest; :func:`drain` says how the workers
    share the table, and ``guard`` rides along to each of them.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    cache = cache if cache is not None else ResultCache()
    directory = init_campaign(spec, directory, cache)
    started = time.monotonic()
    started_unix = time.time()
    drain(directory, spec.expand(), workers=workers, cache=cache,
          guard=guard, quiet=quiet)
    manifest = finalize(directory, cache=cache,
                        wall_seconds=time.monotonic() - started,
                        workers=workers)
    # Totals above are campaign-cumulative (folded from the durable
    # records); the invocation block answers "what did THIS command
    # do" — a resumed or re-run campaign shows executed=0 here while
    # the totals still say who originally produced each point.
    manifest["invocation"] = _invocation_summary(directory, started_unix)
    _atomic_write_json(directory / MANIFEST_FILE, manifest)
    return manifest


def _invocation_summary(directory: pathlib.Path,
                        started_unix: float) -> Dict[str, Any]:
    """Fold the worker reports written during this invocation."""
    summary = {"workers": 0, "executed": 0, "cached": 0, "failed": 0,
               "stolen": 0, "skipped": 0}
    for path in sorted((directory / WORKERS_DIR).glob("*.json")):
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if float(report.get("finished_unix", 0.0)) < started_unix:
            continue  # stale report from an earlier invocation
        summary["workers"] += 1
        for key in ("executed", "cached", "failed", "stolen", "skipped"):
            summary[key] += int(report.get(key, 0))
    return summary


# -- manifest -------------------------------------------------------------------
def load_records(directory: pathlib.Path) -> List[Dict[str, Any]]:
    records = []
    for path in sorted((directory / RECORDS_DIR).glob("*.json")):
        try:
            records.append(json.loads(path.read_text()))
        except (OSError, ValueError):
            continue  # mid-write record; the next finalize sees it
    return records


def result_fingerprint(points: List[CampaignPoint],
                       cache: ResultCache) -> str:
    """Order-independent digest of every point's result bytes.

    Folds ``(spec key, cached payload SHA-256)`` pairs in key order.
    Points with no cache entry (failed, guard-aborted included) fold
    in a miss marker, so two manifests agree iff they resolved the same
    points to the same bytes.
    """
    digest = hashlib.sha256()
    for point in sorted(points, key=lambda p: p.key):
        digest.update(point.key.encode())
        digest.update((cache.result_sha(point.key) or "miss").encode())
    return digest.hexdigest()


def finalize(directory: pathlib.Path,
             cache: Optional[ResultCache] = None,
             wall_seconds: Optional[float] = None,
             workers: Optional[int] = None) -> Dict[str, Any]:
    """Fold records + worker reports into ``manifest.json``."""
    from repro.obs.metrics import MetricsRegistry

    directory = pathlib.Path(directory)
    cache = cache if cache is not None else ResultCache()
    spec = CampaignSpec.from_file(directory / CAMPAIGN_FILE)
    points = spec.expand()
    by_key = {p.key: p for p in points}
    records = [r for r in load_records(directory) if r.get("key") in by_key]
    recorded = {r["key"] for r in records}

    reg = MetricsRegistry()
    totals = {"points": len(points), "executed": 0, "cached": 0,
              "failed": 0, "stolen_leases": 0,
              "unresolved": len(points) - len(recorded)}
    wall_hist = reg.histogram("campaign.point_wall_s")
    rss_hist = reg.histogram("campaign.point_rss_kb")
    for record in records:
        status = record.get("status", STATUS_FAILED)
        if status in totals:
            totals[status] += 1
        if record.get("stolen_lease"):
            totals["stolen_leases"] += 1
        wall_hist.observe(float(record.get("wall_s", 0.0)))
        rss_hist.observe(float(record.get("peak_rss_kb", 0.0)))
    for name, value in totals.items():
        reg.set(f"campaign.{name}", value)
    if wall_seconds is not None:
        reg.set("campaign.wall_seconds", wall_seconds)
    if workers is not None:
        reg.set("campaign.workers", workers)

    worker_reports = []
    for path in sorted((directory / WORKERS_DIR).glob("*.json")):
        try:
            worker_reports.append(json.loads(path.read_text()))
        except (OSError, ValueError):
            continue

    manifest = {
        "campaign": spec.name,
        "campaign_id": spec.campaign_id,
        "slug": spec.slug,
        "directory": str(directory),
        "points": sorted(
            (dict(r) for r in records), key=lambda r: r["key"]),
        "totals": totals,
        "workers": worker_reports,
        "n_workers": workers,
        "wall_seconds": wall_seconds,
        "result_fingerprint": result_fingerprint(points, cache),
        "metrics": reg.snapshot().as_dict(),
        "finished_unix": time.time(),
    }
    _atomic_write_json(directory / MANIFEST_FILE, manifest)
    return manifest


def status(directory: pathlib.Path,
           cache: Optional[ResultCache] = None) -> Dict[str, Any]:
    """Cheap progress probe for ``repro campaign status`` (no writes)."""
    from repro.campaign.leases import LeaseBoard

    directory = pathlib.Path(directory)
    spec = CampaignSpec.from_file(directory / CAMPAIGN_FILE)
    points = spec.expand()
    records = load_records(directory)
    statuses: Dict[str, int] = {}
    for record in records:
        key = record.get("status", "unknown")
        statuses[key] = statuses.get(key, 0) + 1
    board = LeaseBoard(directory / LEASES_DIR, "status-probe",
                       ttl_s=spec.lease_ttl_s)
    return {
        "campaign": spec.name,
        "slug": spec.slug,
        "points": len(points),
        "resolved": len(records),
        "unresolved": len(points) - len(records),
        "statuses": statuses,
        "leases": board.sweep(),
        "manifest_written": (directory / MANIFEST_FILE).exists(),
    }
