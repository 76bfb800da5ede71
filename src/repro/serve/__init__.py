"""repro.serve — resident-index query serving over the simulator.

The serving layer answers the question the one-shot harness cannot:
*what do the accelerators buy at serving time?*  It keeps the four tree
indexes warm (:mod:`repro.serve.index`), coalesces individually
arriving queries into accelerator launches timeout-or-size
(:mod:`repro.serve.batcher`), launches them through per-platform
backends that reuse the harness's kernels and scaled configs verbatim
(:mod:`repro.serve.backends`), and maps simulated cycles onto a
virtual timeline (:mod:`repro.serve.clock`).  One event loop
(:mod:`repro.serve.loadtest`) serves both the open-loop loadtest
(:mod:`repro.serve.loadgen`'s arrivals; latency percentiles and
QPS-vs-latency curves) and ``repro serve``'s JSON-lines queries, so
both apply the same admission, batching and dispatch.  Failure
semantics — deadlines, load shedding, circuit breaking, hedged
re-dispatch, result integrity — live in :mod:`repro.serve.resilience`
(``$REPRO_RESILIENCE``).

Entry points: ``repro serve`` / ``repro loadtest``; MODEL.md §10 (the
serving model) and §12 (resilience) have the semantics.
"""

from repro.serve.backends import BatchLaunch, LaunchBackend
from repro.serve.batcher import (
    Batch,
    BatchPolicy,
    MicroBatcher,
    QueryRequest,
)
from repro.serve.clock import (
    DEFAULT_CLOCK,
    DEFAULT_CORE_MHZ,
    DEFAULT_LAUNCH_OVERHEAD_S,
    ServiceClock,
)
from repro.serve.index import (
    QUERY_CLASSES,
    SERVE_PLATFORMS,
    SERVE_SCALES,
    QueryClassSpec,
    ResidentIndex,
    build_resident_index,
    query_class_spec,
)
from repro.serve.loadgen import (
    ARRIVAL_PROCESSES,
    DEFAULT_MIX,
    Arrival,
    LoadProfile,
    generate_arrivals,
    parse_mix,
    stream_signature,
)
from repro.serve.loadtest import (
    ClassReport,
    LoadtestReport,
    percentile,
    replay_queries,
    run_loadtest,
    run_qps_sweep,
    serve_arrivals,
)
from repro.serve.resilience import (
    DEFAULT_PRIORITIES,
    MODES as RESILIENCE_MODES,
    RESILIENCE_ENV,
    CircuitBreaker,
    EwmaEstimator,
    ResilienceConfig,
    check_batch_integrity,
    resilience_mode,
    slo_summary,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "Arrival",
    "Batch",
    "BatchLaunch",
    "BatchPolicy",
    "CircuitBreaker",
    "ClassReport",
    "DEFAULT_CLOCK",
    "DEFAULT_CORE_MHZ",
    "DEFAULT_LAUNCH_OVERHEAD_S",
    "DEFAULT_MIX",
    "DEFAULT_PRIORITIES",
    "EwmaEstimator",
    "LaunchBackend",
    "LoadProfile",
    "LoadtestReport",
    "MicroBatcher",
    "QUERY_CLASSES",
    "QueryClassSpec",
    "QueryRequest",
    "RESILIENCE_ENV",
    "RESILIENCE_MODES",
    "ResidentIndex",
    "ResilienceConfig",
    "SERVE_PLATFORMS",
    "SERVE_SCALES",
    "ServiceClock",
    "build_resident_index",
    "check_batch_integrity",
    "generate_arrivals",
    "parse_mix",
    "percentile",
    "query_class_spec",
    "replay_queries",
    "resilience_mode",
    "run_loadtest",
    "run_qps_sweep",
    "serve_arrivals",
    "slo_summary",
    "stream_signature",
]
