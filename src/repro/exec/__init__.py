"""repro.exec — parallel experiment execution with a persistent cache.

Public surface:

* :class:`~repro.exec.spec.RunSpec` / :func:`~repro.exec.spec.make_spec`
  — declarative, content-addressable description of one simulation run;
* :class:`~repro.exec.cache.ResultCache` — on-disk memo of completed
  runs, keyed by spec SHA-256 (run results only: nothing else is
  persisted here);
* :class:`~repro.exec.service.ExecutionService` — memo + cache + worker
  pool; executes figure point sets with ``--jobs N`` parallelism and a
  structured :class:`~repro.exec.service.RunManifest`;
* :func:`get_service` / :func:`configure` — the process-global service
  instance the harness routes every figure point through.

The default (unconfigured) service is serial and memory-only, so
figure functions called from tests and library code simulate in
process; the CLI calls :func:`configure` to switch on the disk cache
and the worker pool.
"""

from typing import Optional

from repro.exec.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    default_cache_dir,
)
from repro.exec.pool import Outcome, ParallelRunner, run_serial
from repro.exec.service import (
    ExecutionService,
    RunManifest,
    RunRecord,
    StubResult,
)
from repro.exec.spec import KINDS, RunSpec, code_fingerprint, make_spec

__all__ = [
    "CACHE_DIR_ENV",
    "ExecutionService",
    "KINDS",
    "Outcome",
    "ParallelRunner",
    "ResultCache",
    "RunManifest",
    "RunRecord",
    "RunSpec",
    "StubResult",
    "code_fingerprint",
    "configure",
    "default_cache_dir",
    "get_service",
    "make_spec",
    "reset",
    "run_serial",
]

_service: Optional[ExecutionService] = None


def get_service() -> ExecutionService:
    """The process-global execution service (serial/memory-only default)."""
    global _service
    if _service is None:
        _service = ExecutionService()
    return _service


def configure(jobs: int = 1, cache_enabled: bool = True,
              cache_dir=None, timeout: Optional[float] = None,
              retries: int = 1, progress: bool = False,
              guard=None, tracer=None) -> ExecutionService:
    """Install a freshly configured global service and return it."""
    global _service
    cache = ResultCache(cache_dir) if cache_enabled else None
    _service = ExecutionService(jobs=jobs, cache=cache, timeout=timeout,
                                retries=retries, progress=progress,
                                guard=guard, tracer=tracer)
    return _service


def reset() -> None:
    """Drop the global service (next :func:`get_service` builds a default)."""
    global _service
    _service = None
