"""Deterministic virtual-time serving: one event loop, two front ends.

:func:`serve_arrivals` is the serving core.  It takes a time-ordered
list of query arrivals (and, under ``--write-mix``, of writes) and
serves them against resident indexes on one platform entirely in
*virtual time*.  No real sleeps, no real clocks: arrivals, batch
deadlines, device occupancy, and completions all live on one simulated
timeline, so the same input always produces the same report, byte for
byte.  Two front ends feed it:

* :func:`run_loadtest` replays a seeded open-loop arrival schedule
  (:mod:`repro.serve.loadgen`) and reports latency percentiles;
* :func:`replay_queries` (``repro serve``) lands every query of a
  JSON-lines file at t=0 in file order and hands each query's outcome
  to a caller sink.

The event loop is a plain heap of ``(t, seq)``-ordered events:

* **arrival** — admission check (:mod:`repro.serve.resilience`), then
  offer to the :class:`~repro.serve.batcher.MicroBatcher`; a batch
  that closes on size dispatches immediately,
* **write** — mutate one resident tree and charge its cycles on the
  devices,
* **deadline** — generation-checked timeout closure of an open batch.

Dispatch shards a closed batch across ``n_shards`` simulated devices:
each shard runs as one kernel launch through the platform's
:class:`~repro.serve.backends.LaunchBackend` (real simulated cycles),
lands on the earliest-free device, and occupies it for
``clock.launch_seconds(cycles)``.  A query's latency is
``completion - arrival`` where completion is the max over its batch's
shard finish times — queueing delay, batching wait, and simulated
kernel time all included, which is exactly what an open-loop load test
is supposed to surface (MODEL.md §10).
"""

import heapq
import random
from dataclasses import dataclass, field, replace
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, MetricsSnapshot
from repro.serve.backends import LaunchBackend
from repro.serve.batcher import Batch, BatchPolicy, MicroBatcher, QueryRequest
from repro.serve.clock import DEFAULT_CLOCK, ServiceClock
from repro.serve.index import ResidentIndex
from repro.serve.loadgen import Arrival, LoadProfile, generate_arrivals
from repro.serve.resilience import (HEDGE_TIMEOUT_S, EwmaEstimator,
                                    ResilienceConfig, slo_summary)

if TYPE_CHECKING:
    from repro.mutation import MutationConfig
    from repro.mutation.stream import WriteEvent

#: Percentiles every report carries.
REPORT_PERCENTILES = (50.0, 95.0, 99.0)

#: Time buckets in the ``--write-mix`` churn curve.
CHURN_CURVE_BUCKETS = 12

#: Per-query outcome callback of :func:`serve_arrivals`.
Sink = Callable[[Arrival, Dict[str, Any]], None]


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile over a *sorted* sample list."""
    if not samples:
        return 0.0
    if not 0.0 < pct <= 100.0:
        raise ConfigurationError(f"percentile out of range: {pct}")
    rank = max(1, -(-len(samples) * pct // 100.0))  # ceil
    return samples[int(rank) - 1]


@dataclass
class ClassReport:
    """Latency summary for one query class."""

    query_class: str
    served: int = 0
    latencies_ms: List[float] = field(default_factory=list)

    def summary(self) -> Dict[str, Any]:
        ordered = sorted(self.latencies_ms)
        out: Dict[str, Any] = {"served": self.served}
        for pct in REPORT_PERCENTILES:
            out[f"p{pct:g}_ms"] = percentile(ordered, pct)
        if ordered:
            out["mean_ms"] = sum(ordered) / len(ordered)
            out["max_ms"] = ordered[-1]
        return out


@dataclass
class LoadtestReport:
    """One platform × profile loadtest result."""

    platform: str
    profile: LoadProfile
    n_shards: int
    policy: BatchPolicy
    classes: Dict[str, ClassReport] = field(default_factory=dict)
    offered: int = 0              # measured-window arrivals
    served: int = 0               # measured-window completions
    rejected: int = 0             # always 0: admission sheds instead
    batches: int = 0
    #: Failed batch launches, under the report format's key name.
    degraded_batches: int = 0
    batch_sizes: List[int] = field(default_factory=list)
    sim_cycles: float = 0.0       # total simulated kernel cycles
    t_end: float = 0.0            # virtual time of the last completion
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    # -- resilience accounting (measured-window queries only).  The SLO
    # invariant is offered == served + failed + shed: every measured
    # query lands in exactly one bucket.
    resilience_mode: str = "off"
    shed: int = 0                 # refused at admission / expired unbatched
    shed_reasons: Dict[str, int] = field(default_factory=dict)
    failed: int = 0               # admitted but never completed
    deadline_misses: int = 0      # served, but past their deadline
    hedges: int = 0               # launches re-dispatched off dead shards
    retries: int = 0              # backend launch retries
    breaker_opens: int = 0        # circuit-breaker open transitions
    corrupt_results: int = 0      # integrity violations detected
    #: Failed batch launches by reason (guard | launch_failure |
    #: breaker_open | corrupt_result).
    degraded_reasons: Dict[str, int] = field(default_factory=dict)
    # -- mutation accounting; None unless a write stream ran, in which
    # case to_dict() grows a "mutation" block (a read-only loadtest's
    # report has none).
    mutation_summary: Optional[Dict[str, Any]] = None

    @property
    def offered_qps(self) -> float:
        return self.offered / self.profile.duration_s

    @property
    def achieved_qps(self) -> float:
        return self.served / self.profile.duration_s

    @property
    def mean_batch_size(self) -> float:
        return (sum(self.batch_sizes) / len(self.batch_sizes)
                if self.batch_sizes else 0.0)

    def all_latencies_ms(self) -> List[float]:
        out: List[float] = []
        for report in self.classes.values():
            out.extend(report.latencies_ms)
        out.sort()
        return out

    def slo(self) -> Dict[str, Any]:
        """The SLO block: goodput, shed fraction, error budget, p99 of
        admitted traffic (:func:`repro.serve.resilience.slo_summary`)."""
        ordered = self.all_latencies_ms()
        return slo_summary(self.offered, self.served, self.shed,
                           self.failed, self.deadline_misses,
                           self.profile.duration_s,
                           percentile(ordered, 99.0))

    def to_dict(self) -> Dict[str, Any]:
        ordered = self.all_latencies_ms()
        overall: Dict[str, Any] = {}
        for pct in REPORT_PERCENTILES:
            overall[f"p{pct:g}_ms"] = percentile(ordered, pct)
        out = {
            "platform": self.platform,
            "qps": self.profile.qps,
            "arrival": self.profile.arrival,
            "duration_s": self.profile.duration_s,
            "warmup_s": self.profile.warmup_s,
            "seed": self.profile.seed,
            "n_shards": self.n_shards,
            "policy": {"max_batch": self.policy.max_batch,
                       "max_wait_s": self.policy.max_wait_s},
            "offered": self.offered,
            "served": self.served,
            "rejected": self.rejected,
            "offered_qps": self.offered_qps,
            "achieved_qps": self.achieved_qps,
            "batches": self.batches,
            "degraded_batches": self.degraded_batches,
            "mean_batch_size": self.mean_batch_size,
            "sim_cycles": self.sim_cycles,
            "latency_ms": overall,
            "classes": {cls: report.summary()
                        for cls, report in sorted(self.classes.items())},
            "resilience": {
                "mode": self.resilience_mode,
                "shed": self.shed,
                "shed_reasons": dict(sorted(self.shed_reasons.items())),
                "failed": self.failed,
                "deadline_misses": self.deadline_misses,
                "hedges": self.hedges,
                "retries": self.retries,
                "breaker_opens": self.breaker_opens,
                "corrupt_results": self.corrupt_results,
                "degraded_reasons": dict(
                    sorted(self.degraded_reasons.items())),
            },
            "slo": self.slo(),
        }
        if self.mutation_summary is not None:
            out["mutation"] = self.mutation_summary
        return out


class _Devices:
    """Earliest-free assignment over ``n`` simulated devices.

    ``blackouts`` maps a device slot to the virtual time it goes dark
    (the ``shard_blackout`` fault injector): a launch that would *start*
    on a dead device is routed around it, and a launch assigned before
    the death whose finish falls after it **hangs** — the device never
    answers, and it is the caller's job to hedge the launch onto a
    healthy device or account its queries as failed.
    """

    def __init__(self, n: int, blackouts: Optional[Dict[int, float]] = None):
        self.free_at = [0.0] * n
        self.dead_at: Dict[int, float] = dict(blackouts or {})

    def any_live(self, at: float) -> bool:
        return any(self.dead_at.get(slot) is None or at < self.dead_at[slot]
                   for slot in range(len(self.free_at)))

    def assign(self, ready: float,
               duration: float) -> Tuple[Optional[int], Optional[float]]:
        """Occupy the earliest-free live device.

        Returns ``(slot, finish)``; ``finish`` is None when the device
        dies mid-launch (the launch hangs), and ``slot`` is also None
        when every device is already dark.
        """
        order = sorted(range(len(self.free_at)),
                       key=lambda s: (self.free_at[s], s))
        for slot in order:
            start = max(ready, self.free_at[slot])
            dead = self.dead_at.get(slot)
            if dead is not None and start >= dead:
                continue
            finish = start + duration
            if dead is not None and finish > dead:
                # The device dies with this launch in flight: it never
                # completes, and the device never comes back.
                self.free_at[slot] = float("inf")
                return slot, None
            self.free_at[slot] = finish
            return slot, finish
        return None, None


def _shard(queries: Sequence[QueryRequest],
           n_shards: int) -> List[List[QueryRequest]]:
    n = min(n_shards, len(queries))
    base, extra = divmod(len(queries), n)
    shards, at = [], 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        shards.append(list(queries[at:at + size]))
        at += size
    return shards


def run_loadtest(platform: str,
                 indexes: Dict[str, ResidentIndex],
                 profile: LoadProfile,
                 policy: Optional[BatchPolicy] = None,
                 clock: ServiceClock = DEFAULT_CLOCK,
                 n_shards: int = 1,
                 backend: Optional[LaunchBackend] = None,
                 guard=None,
                 tracer=None,
                 resilience: Optional[ResilienceConfig] = None,
                 mutation: Optional["MutationConfig"] = None
                 ) -> LoadtestReport:
    """Replay one open-loop profile against ``indexes`` on ``platform``.

    The loadtest front end: it draws the seeded arrival schedule
    (:func:`~repro.serve.loadgen.generate_arrivals`) and, with
    ``mutation`` set, the write stream, and hands both to
    :func:`serve_arrivals`.  ``indexes`` must cover every class in the
    profile's mix.  ``resilience`` selects the failure-semantics policy
    (:mod:`repro.serve.resilience`; default ``$REPRO_RESILIENCE``, i.e.
    ``off``, which adds no shedding, deadlines or hedging).

    ``mutation`` (a :class:`repro.mutation.MutationConfig`) interleaves
    a seeded write stream with the read load: writes mutate the
    resident trees in place, maintenance (refit / epoch-swapped
    rebuild) is charged on the serving devices in virtual time, and the
    report grows a ``mutation`` block with per-class counters, quality
    metrics, and a latency-vs-churn curve.  ``None`` (the default)
    constructs no mutation machinery at all.  Note the write stream
    mutates the caller's ``indexes``.
    """
    if resilience is None:
        resilience = backend.resilience if backend is not None \
            else ResilienceConfig.from_env()
    if backend is None:
        backend = LaunchBackend(platform, guard=guard,
                                resilience=resilience)
    capacities = {cls: idx.n_canonical for cls, idx in indexes.items()}
    writes = ()
    if mutation is not None:
        from repro.mutation import generate_write_events

        writes = generate_write_events(profile, mutation.write,
                                       profile.classes())
    report = LoadtestReport(platform, profile, n_shards,
                            policy or BatchPolicy(),
                            resilience_mode=resilience.mode)
    return serve_arrivals(report, indexes,
                          generate_arrivals(profile, capacities), backend,
                          resilience, clock=clock, tracer=tracer,
                          mutation=mutation, writes=writes)


def replay_queries(platform: str,
                   indexes: Dict[str, ResidentIndex],
                   queries: Sequence[Tuple[str, Optional[int], Any]],
                   policy: BatchPolicy,
                   resilience: ResilienceConfig,
                   guard=None
                   ) -> Tuple[LoadtestReport, List[Dict[str, Any]]]:
    """The ``repro serve`` front end: every query arrives at virtual t=0.

    ``queries`` are ``(query_class, qid, payload)`` triples in arrival
    order; a query with no ``qid`` is the raw ``payload`` (a key,
    window or point in the class's native shape).  Returns the report
    (its profile is a nominal one-second window over the served
    classes) and each query's outcome in input order, as
    :func:`serve_arrivals` hands it to its sink.  The same queries
    always give the same outcomes.
    """
    arrivals = [Arrival(0.0, cls, qid, measured=True, payload=payload)
                for cls, qid, payload in queries]
    profile = LoadProfile(qps=max(1, len(arrivals)), duration_s=1.0,
                          mix=dict.fromkeys(indexes, 1.0))
    report = LoadtestReport(platform, profile, 1, policy,
                            resilience_mode=resilience.mode)
    outcomes: Dict[int, Dict[str, Any]] = {}

    def sink(arrival: Arrival, outcome: Dict[str, Any]) -> None:
        outcomes[id(arrival)] = outcome

    serve_arrivals(report, indexes, arrivals,
                   LaunchBackend(platform, guard=guard,
                                 resilience=resilience),
                   resilience, sink=sink)
    return report, [outcomes[id(arrival)] for arrival in arrivals]


def serve_arrivals(report: LoadtestReport,
                   indexes: Dict[str, ResidentIndex],
                   arrivals: Sequence[Arrival],
                   backend: LaunchBackend,
                   resilience: ResilienceConfig,
                   clock: ServiceClock = DEFAULT_CLOCK,
                   tracer=None,
                   mutation: Optional["MutationConfig"] = None,
                   writes: Sequence["WriteEvent"] = (),
                   sink: Optional[Sink] = None) -> LoadtestReport:
    """The serving event loop (module docstring): fill ``report``.

    ``report`` names the platform, the profile (its classes, window and
    warmup), the shard count and the batch policy.  ``arrivals`` and
    ``writes`` are each sorted by time; ``writes`` (with ``mutation``)
    mutate ``indexes`` in place.  ``sink``, if given, is called once
    per arrival with its outcome: ``{"result", "batch_size", "sim_s",
    "engine"}`` when served, else ``{"error": "shed: <reason>"}`` or
    ``{"error": "failed: <reason>"}``.
    """
    platform, policy, n_shards = report.platform, report.policy, \
        report.n_shards
    profile = report.profile
    if n_shards < 1:
        raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
    for cls in profile.classes():
        if cls not in indexes:
            raise ConfigurationError(
                f"profile mixes query class {cls!r} but no resident "
                f"index was built for it")
        if policy.max_batch > indexes[cls].capacity:
            raise ConfigurationError(
                f"max_batch {policy.max_batch} exceeds the {cls!r} "
                f"index's buffer capacity {indexes[cls].capacity}")
    if backend.platform != platform:
        raise ConfigurationError(
            f"backend is for {backend.platform!r}, loadtest for "
            f"{platform!r}")

    registry = MetricsRegistry()
    batcher = MicroBatcher(policy)
    breaker = backend.breaker
    devices = _Devices(n_shards, backend.faults.blackouts(n_shards))
    estimators: Dict[str, EwmaEstimator] = {}
    # Completion time of every query still in flight, popped as virtual
    # time passes it (the queue gate's in-flight count).
    in_flight: List[float] = []
    failed_before = backend.failed_batches
    reasons_before = dict(backend.failed_reasons)
    retries_before = backend.retries
    corrupt_before = backend.corrupt_detected
    opens_before = breaker.opens

    mutables = None
    write_rng = None
    curve_buckets = None
    if mutation is not None:
        from repro.mutation import MutableResidentIndex

        mutables = {
            cls: MutableResidentIndex(
                indexes[cls], policy=mutation.policy,
                refit_threshold=mutation.refit_threshold, clock=clock,
                registry=registry, tracer=tracer, platform=platform)
            for cls in profile.classes()}
        write_rng = random.Random(mutation.write.seed + 0x5EED)
        bucket_w = profile.total_s / CHURN_CURVE_BUCKETS
        curve_buckets = [
            {"t0": i * bucket_w, "t1": (i + 1) * bucket_w, "writes": 0,
             "served": 0, "lat": [], "decay": []}
            for i in range(CHURN_CURVE_BUCKETS)]

    def bucket_at(t: float) -> Dict[str, Any]:
        i = min(CHURN_CURVE_BUCKETS - 1, int(t / bucket_w))
        return curve_buckets[i]

    events: List[tuple] = []
    seq = 0
    for arrival in arrivals:
        events.append((arrival.t, seq, "arrival", arrival))
        seq += 1
    if mutables is not None:
        for write_event in writes:
            events.append((write_event.t, seq, "write", write_event))
            seq += 1
    heapq.heapify(events)

    def note(name: str, delta: float = 1.0) -> None:
        registry.add(name, delta)

    def emit(name: str, t: float, dur_s: float = 0.0, arg=None) -> None:
        if tracer is not None:
            tracer.emit("serve", platform, name, clock.cycles(t),
                        clock.cycles(dur_s) if dur_s else 0.0, arg)

    def emit_res(name: str, t: float, arg=None) -> None:
        if tracer is not None:
            tracer.emit("resilience", platform, name, clock.cycles(t),
                        0.0, arg)

    def shed(arrival: Arrival, t: float, reason: str) -> None:
        """Refuse one query; measured sheds feed the SLO accounting."""
        if arrival.measured:
            report.shed += 1
            report.shed_reasons[reason] = \
                report.shed_reasons.get(reason, 0) + 1
        note("serve.resilience.shed")
        note(f"serve.resilience.shed.{reason}")
        emit_res("shed", t, arg={"class": arrival.query_class,
                                 "reason": reason})
        if sink is not None:
            sink(arrival, {"error": f"shed: {reason}"})

    def admission_reason(cls: str, t: float) -> Optional[str]:
        """Why this arrival must be shed right now (None = admit)."""
        if len(in_flight) + batcher.pending() >= resilience.queue_limit(cls):
            return "queue"
        if breaker.opened_at is not None \
                and t - breaker.opened_at < breaker.cooldown_s:
            # Breaker is hard-open: every admitted query is doomed, so
            # refuse it up front.
            return "breaker"
        backlog = sum(max(0.0, free - t) for free in devices.free_at
                      if free != float("inf")) / n_shards
        budget = resilience.deadline_budget_s(cls)
        estimate = estimators.get(cls)
        if budget is not None and estimate is not None \
                and estimate.value is not None \
                and backlog + estimate.value > budget:
            # Infeasible: by the time the device backlog drains and the
            # batch runs, this query's (priority-scaled) budget is gone.
            # The estimate is pure service time, so this gate re-opens
            # by itself once shedding has drained the backlog.
            return "deadline"
        if backlog > resilience.backlog_limit_s(cls):
            return "backlog"
        return None

    def fail_queries(queries, t: float, reason: str) -> None:
        """Admitted queries that will never complete: counted, never
        silently dropped."""
        for query in queries:
            if query.payload.measured:
                report.failed += 1
            note("serve.resilience.failed")
            emit_res("failed", t, arg={"class": query.query_class,
                                       "reason": reason})
            if sink is not None:
                sink(query.payload, {"error": f"failed: {reason}"})

    def launch_shard(index: ResidentIndex, shard: List[QueryRequest],
                     raw: bool, now: float):
        if not raw:
            return backend.launch(index, [q.qid for q in shard], now)
        return backend.launch_payloads(
            index, [q.payload.payload if q.qid is None
                    else index.payload(q.qid) for q in shard], now)

    def dispatch(batch: Batch) -> None:
        index = indexes[batch.query_class]
        if mutables is not None:
            # Install any finished rebuild and refresh the image so the
            # whole batch lowers against one consistent tree epoch.
            mutables[batch.query_class].ensure_ready(batch.t_close)
        queries = batch.queries
        if resilience.sheds:
            # Expire queries whose deadline already passed while they
            # waited in the open batch.
            live = []
            for query in queries:
                if query.deadline is not None \
                        and query.deadline <= batch.t_close:
                    shed(query.payload, batch.t_close, "expired")
                else:
                    live.append(query)
            queries = live
            if not queries:
                return
        report.batches += 1
        report.batch_sizes.append(len(queries))
        note("serve.batches")
        note(f"serve.batch.{batch.closed_by}")
        registry.histogram("serve.batch_size").observe(len(queries))
        emit("batch", batch.t_close, arg={
            "class": batch.query_class, "size": len(queries),
            "closed_by": batch.closed_by})
        # A batch holding any raw payload launches every shard by payload.
        raw = any(q.qid is None for q in queries)
        finishes: List[float] = []
        served: List[QueryRequest] = []
        failed_shards: List[Tuple[List[QueryRequest], str]] = []
        service_s = 0.0               # slowest shard's launch occupancy
        for shard in _shard(queries, n_shards):
            launch = launch_shard(index, shard, raw, batch.t_close)
            if launch.failed:
                failed_shards.append(
                    (shard, launch.notes["failed_reason"]))
                note("serve.resilience.failed_launches")
                emit_res("launch_failed", batch.t_close, arg={
                    "class": batch.query_class,
                    "error": launch.error})
                continue
            report.sim_cycles += launch.cycles
            duration = clock.launch_seconds(launch.cycles,
                                            launch.slow_factor) \
                + launch.backoff_s
            service_s = max(service_s, duration)
            slot, finish = devices.assign(batch.t_close, duration)
            if finish is None:
                # The device died mid-launch (or every shard is dark).
                if slot is not None and resilience.hedges:
                    retry_at = devices.dead_at[slot] + HEDGE_TIMEOUT_S
                    hedge_slot, finish = devices.assign(retry_at, duration)
                    if finish is not None:
                        report.hedges += 1
                        note("serve.resilience.hedges")
                        emit_res("hedge", retry_at, arg={
                            "class": batch.query_class,
                            "from_shard": slot, "to_shard": hedge_slot})
                if finish is None:
                    failed_shards.append((shard, "shard_dead"))
                    continue
            finishes.append(finish)
            served.extend(shard)
            note("serve.launches")
            note("serve.sim_cycles", launch.cycles)
            emit("launch", finish - duration, duration, arg={
                "class": batch.query_class, "queries": len(shard),
                "cycles": launch.cycles, "engine": launch.engine})
            if sink is not None:
                for i, query in enumerate(shard):
                    sink(query.payload, {
                        "result": launch.results.get(i),
                        "batch_size": len(queries), "sim_s": duration,
                        "engine": launch.engine})
        for shard, reason in failed_shards:
            fail_queries(shard, batch.t_close, reason)
        if not finishes:
            return
        t_done = max(finishes)
        report.t_end = max(report.t_end, t_done)
        emit("complete", t_done, arg={"class": batch.query_class,
                                      "size": len(queries)})
        if resilience.sheds:
            # Pure service time, never sojourn — the admission gate adds
            # the live backlog itself, and a sojourn estimate would wedge
            # above the deadline with no completions left to correct it.
            estimators.setdefault(
                batch.query_class, EwmaEstimator(resilience.ewma_alpha)
            ).observe(service_s)
        for query in served:
            heapq.heappush(in_flight, t_done)
            if query.payload.measured:
                report.served += 1
                note("serve.queries_served")
                latency_ms = (t_done - query.t_arrival) * 1e3
                if query.deadline is not None and t_done > query.deadline:
                    report.deadline_misses += 1
                    note("serve.resilience.deadline_misses")
                cls_report = report.classes.setdefault(
                    batch.query_class, ClassReport(batch.query_class))
                cls_report.served += 1
                cls_report.latencies_ms.append(latency_ms)
                registry.histogram("serve.latency_ms").observe(latency_ms)
                if curve_buckets is not None:
                    bucket = bucket_at(t_done)
                    bucket["served"] += 1
                    bucket["lat"].append(latency_ms)

    while events:
        t, _, kind, payload = heapq.heappop(events)
        while in_flight and in_flight[0] <= t:
            heapq.heappop(in_flight)
        if kind == "arrival":
            note("serve.queries_offered")
            if payload.measured:
                report.offered += 1
            if resilience.sheds:
                reason = admission_reason(payload.query_class, t)
                if reason is not None:
                    shed(payload, t, reason)
                    continue
            emit("enqueue", t, arg={"class": payload.query_class,
                                    "qid": payload.qid})
            deadline = None
            if resilience.sheds and resilience.deadline_s is not None:
                deadline = t + resilience.deadline_s
            request = QueryRequest(seq, payload.query_class, payload.qid,
                                   payload=payload, t_arrival=t,
                                   deadline=deadline)
            seq += 1
            had_open = batcher.generation(payload.query_class) is not None
            closed = batcher.offer(request)
            if closed is not None:
                dispatch(closed)
            elif not had_open:
                # This arrival opened a new batch: arm its timeout.
                timeout = batcher.deadline(payload.query_class)
                generation = batcher.generation(payload.query_class)
                heapq.heappush(events, (timeout, seq, "deadline",
                                        (payload.query_class, generation)))
                seq += 1
        elif kind == "write":
            # One write: mutate the tree, charge the cycle cost on the
            # serving devices — maintenance competes with launches for
            # device time, which is what bends the latency curve.
            mut = mutables[payload.query_class]
            cycles = mut.apply(payload, write_rng)
            duration = clock.seconds(cycles)
            devices.assign(t, duration)
            report.sim_cycles += cycles
            bucket = bucket_at(t)
            bucket["writes"] += 1
            if bucket["writes"] % 16 == 1:
                bucket["decay"].append(mut.decay_ratio())
            if tracer is not None:
                tracer.emit("mutation", platform, "write",
                            clock.cycles(t), cycles,
                            {"class": payload.query_class,
                             "op": payload.op})
        else:  # deadline (stale ones no-op via the generation token)
            cls, generation = payload
            closed = batcher.expire(cls, t, generation)
            if closed is not None:
                dispatch(closed)

    for batch in batcher.flush(report.t_end):   # defensive; heap drains all
        dispatch(batch)

    report.degraded_batches = backend.failed_batches - failed_before
    report.degraded_reasons = {
        reason: delta for reason, count in
        sorted(backend.failed_reasons.items())
        if (delta := count - reasons_before.get(reason, 0)) > 0}
    report.retries = backend.retries - retries_before
    report.corrupt_results = backend.corrupt_detected - corrupt_before
    report.breaker_opens = breaker.opens - opens_before
    registry.set("serve.degraded_batches", report.degraded_batches)
    registry.set("serve.offered_qps", report.offered_qps)
    registry.set("serve.achieved_qps", report.achieved_qps)
    if resilience.active or report.shed or report.failed \
            or report.retries or report.breaker_opens \
            or report.corrupt_results:
        registry.set("serve.resilience.retries", report.retries)
        registry.set("serve.resilience.breaker_opens",
                     report.breaker_opens)
        registry.set("serve.resilience.corrupt_results",
                     report.corrupt_results)
        registry.set("serve.resilience.goodput_qps",
                     report.slo()["goodput_qps"])
    if mutables is not None:
        from repro.mutation import QUALITY_KEYS

        curve = []
        for bucket in curve_buckets:
            ordered = sorted(bucket["lat"])
            decays = bucket["decay"]
            curve.append({
                "t0": round(bucket["t0"], 6),
                "t1": round(bucket["t1"], 6),
                "writes": bucket["writes"],
                "served": bucket["served"],
                "p50_ms": percentile(ordered, 50.0),
                "p99_ms": percentile(ordered, 99.0),
                "decay_ratio": (round(sum(decays) / len(decays), 6)
                                if decays else None),
            })
        per_class: Dict[str, Any] = {}
        for cls, mut in sorted(mutables.items()):
            quality = mut.quality()
            for key in QUALITY_KEYS:
                registry.set(f"mutation.{cls}.{key}", quality[key])
            registry.set(f"mutation.{cls}.decay_ratio",
                         mut.decay_ratio(quality))
            summary = mut.counters(quality)
            summary["quality"] = {key: round(quality[key], 6)
                                  for key in QUALITY_KEYS}
            summary["maintenance"] = [
                {key: (round(value, 6) if isinstance(value, float)
                       else value) for key, value in event.items()}
                for event in mut.maintenance_events]
            per_class[cls] = summary
        report.mutation_summary = {
            "write_mix": dict(sorted(mutation.write.mix.items())),
            "write_seed": mutation.write.seed,
            "wps": mutation.write.wps,
            "writes_applied": sum(m.writes for m in mutables.values()),
            "refit_threshold": mutation.refit_threshold,
            "rebuild_policy": mutation.policy.describe(),
            "per_class": per_class,
            "churn_curve": curve,
        }
    report.metrics = registry.snapshot()
    return report


def run_qps_sweep(platforms: Sequence[str],
                  qps_values: Sequence[float],
                  indexes: Dict[str, ResidentIndex],
                  profile: LoadProfile,
                  policy: Optional[BatchPolicy] = None,
                  clock: ServiceClock = DEFAULT_CLOCK,
                  n_shards: int = 1,
                  guard=None,
                  progress=None,
                  resilience: Optional[ResilienceConfig] = None,
                  mutation: Optional["MutationConfig"] = None
                  ) -> Dict[str, Any]:
    """QPS-vs-latency curves: one loadtest per (platform, qps) point.

    Resident indexes are built once and shared across every leg, and
    each platform keeps one backend so its per-index
    scaled config is derived once.  Returns the ``repro loadtest`` JSON
    shape: ``{"curves": {platform: [point, ...]}, ...}``.

    With ``mutation`` set, every (platform, qps) leg runs against a
    fork of the pristine indexes (:meth:`ResidentIndex.fork`): writes
    mutate state, and the curves are only comparable if each leg starts
    from the same tree.
    """
    if resilience is None:
        resilience = ResilienceConfig.from_env()
    curves: Dict[str, List[Dict[str, Any]]] = {}
    for platform in platforms:
        backend = LaunchBackend(platform, guard=guard,
                                resilience=resilience)
        rows: List[Dict[str, Any]] = []
        for qps in qps_values:
            if progress is not None:
                progress(platform, qps)
            leg_indexes = indexes if mutation is None else {
                cls: index.fork() for cls, index in indexes.items()}
            report = run_loadtest(
                platform, leg_indexes, replace(profile, qps=qps),
                policy=policy, clock=clock, n_shards=n_shards,
                backend=backend, guard=guard, resilience=resilience,
                mutation=mutation)
            rows.append(report.to_dict())
        curves[platform] = rows
    out = {
        "profile": {
            "arrival": profile.arrival,
            "duration_s": profile.duration_s,
            "warmup_s": profile.warmup_s,
            "mix": dict(profile.mix),
            "seed": profile.seed,
        },
        "policy": {
            "max_batch": (policy or BatchPolicy()).max_batch,
            "max_wait_s": (policy or BatchPolicy()).max_wait_s,
        },
        "clock": {"core_mhz": clock.core_mhz,
                  "launch_overhead_s": clock.launch_overhead_s},
        "n_shards": n_shards,
        "resilience_mode": resilience.mode,
        "qps_values": list(qps_values),
        "curves": curves,
    }
    if mutation is not None:
        out["mutation"] = {
            "write_mix": dict(sorted(mutation.write.mix.items())),
            "write_seed": mutation.write.seed,
            "rebuild_policy": mutation.policy.describe(),
            "refit_threshold": mutation.refit_threshold,
        }
    return out
