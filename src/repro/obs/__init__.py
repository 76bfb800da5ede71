"""repro.obs — cycle-domain tracing, metrics registry, exporters.

The observability subsystem has three parts:

* :mod:`repro.obs.tracer` — a zero-cost-when-off structured event
  tracer.  ``GPU.launch(..., tracer=t)`` attaches ``t`` to
  ``sim.tracer``; the engine, SMs, RTA cores/unit pools, and the memory
  hierarchy emit ring-buffered ``(category, unit, name, ts, dur, arg)``
  records behind one is-None branch each.
* :mod:`repro.obs.metrics` — the metrics registry.  After every launch
  :func:`build_metrics` folds model counters into a namespaced
  :class:`MetricsSnapshot` on ``KernelStats.metrics``; Figs. 13/15/18
  read it instead of parsing accelerator snapshot keys.
* :mod:`repro.obs.export` — Chrome/Perfetto ``trace.json``, flat
  metrics JSON, terminal summaries, and ``$REPRO_OBS_DIR`` guard
  diagnostic dumps.

Overhead contract (checked by ``tests/test_perf_contracts.py``): with
tracing off a launch makes no ``Tracer.emit`` call at all; sampled at
rate N the tracer keeps at most one in N emitted events, plus one
marker per launch.
"""

from repro.obs.export import (
    OBS_DIR_ENV,
    chrome_trace,
    dump_diagnostics,
    summarize_metrics,
    summarize_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.metrics import (
    DEFAULT_MAX_BUCKETS,
    EMPTY_METRICS,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    TimeSeries,
    build_metrics,
)
from repro.obs.tracer import (
    CATEGORIES,
    DEFAULT_CAPACITY,
    Tracer,
)

__all__ = [
    "CATEGORIES",
    "DEFAULT_CAPACITY",
    "DEFAULT_MAX_BUCKETS",
    "EMPTY_METRICS",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "OBS_DIR_ENV",
    "TimeSeries",
    "Tracer",
    "build_metrics",
    "chrome_trace",
    "dump_diagnostics",
    "summarize_metrics",
    "summarize_trace",
    "write_chrome_trace",
    "write_metrics_json",
]
