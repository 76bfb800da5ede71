"""Failure semantics for the serving layer: ``repro.resilience``.

The serving loop answers "how fast"; this module answers "what happens
when traffic exceeds capacity".  Overload is the common case for a
shared accelerator (RTNN-style asymmetric neighbor loads, clustering
bursts), so the serving stack needs explicit semantics for the work
it *refuses*, not just the work it serves:

* **Deadlines** — every admitted query carries an absolute deadline on
  the service timeline; a query is shed at admission when the current
  device backlog plus its class's EWMA *service* time
  (:class:`EwmaEstimator`) cannot fit the class's deadline budget
  (the budget scales with priority, so bulk classes give up their
  slack first), and a query whose deadline passes while it waits in an
  open batch is expired at dispatch.  Feeding the estimator pure
  service time — never queue wait — keeps admission self-correcting:
  shedding drains the backlog, which re-opens admission, instead of a
  congested latency estimate locking the class out for good.
* **Admission control / load shedding** — queue-depth and cycle-budget
  (device backlog) watermarks, scaled by per-class priority
  (:data:`DEFAULT_PRIORITIES`): point lookups ride out overload that
  sheds bulk range scans first.
* **Circuit breaker + bounded retry** (:class:`CircuitBreaker`) —
  transient launch failures retry with exponential backoff; repeated
  failures open the breaker so doomed batches fail immediately instead
  of burning device time, and while it is hard-open every shedding
  policy refuses new arrivals at admission.
* **Hedged re-dispatch** — a launch stranded on a dead device shard is
  re-issued on a healthy one after :data:`HEDGE_TIMEOUT_S`.
* **Result integrity** (:func:`check_batch_integrity`) — every query
  must come back with exactly one well-formed result; a corrupt batch
  is retried and counted, never silently returned.

A batch no mechanism can save (guard abort, exhausted retries, open
breaker, corrupt twice) fails, and its queries count as failed; no
policy falls back to a second engine (see ``repro.serve.backends``).

Policy selection: a :class:`ResilienceConfig` argument (the CLI's
``--resilience``/``--deadline-ms``), else ``REPRO_RESILIENCE`` =
``off`` (default; none of the mechanisms below) | ``shed``
(admission control + deadlines) | ``degrade`` (shed + hedged
re-dispatch) | ``strict`` (degrade + per-batch integrity
verification; integrity *detection* stays on in every mode, strict
escalates a repeat offender to an
:class:`~repro.errors.InvariantViolation`).

Every mechanism is provable under the ``$REPRO_FAULTS`` serve-path
injectors (``repro.guard.faults.SERVE_KINDS``); MODEL.md §12 has the
operator-facing story.
"""

import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.errors import ConfigurationError

RESILIENCE_ENV = "REPRO_RESILIENCE"

MODES = ("off", "shed", "degrade", "strict")

#: Admission priority per query class: 0 sheds last, larger sheds
#: sooner.  Point lookups are the latency-critical tier; bulk range and
#: radius scans are the first to go when watermarks trip.
DEFAULT_PRIORITIES: Mapping[str, int] = {
    "point": 0, "knn": 1, "range": 2, "radius": 2,
}

#: Fraction of each watermark available to a priority tier: tier 0
#: sheds only at 100% of the watermark, tier 2 already at 50%.
PRIORITY_SHARES = (1.0, 0.75, 0.5)

DEFAULT_MAX_QUEUE = 256
DEFAULT_DEADLINE_MS = 50.0
DEFAULT_BACKLOG_MS = 250.0

#: Hedged re-dispatch: how long after a shard goes dark the launch is
#: re-issued elsewhere, seconds.
HEDGE_TIMEOUT_S = 2e-3


def resilience_mode() -> str:
    """Default policy from ``$REPRO_RESILIENCE`` (default ``off``)."""
    mode = os.environ.get(RESILIENCE_ENV, "off").strip().lower() or "off"
    if mode not in MODES:
        raise ConfigurationError(
            f"{RESILIENCE_ENV}={mode!r} is not a resilience policy; "
            f"expected one of {MODES}")
    return mode


@dataclass(frozen=True)
class ResilienceConfig:
    """Immutable failure-semantics knobs; module docstring has the map."""

    mode: str = "off"
    #: Queue-depth watermark: in-flight + batched queries.
    max_queue: int = DEFAULT_MAX_QUEUE
    #: Per-query latency budget (admission -> completion), ms; None
    #: disables deadline semantics (queries wait forever).
    deadline_ms: Optional[float] = DEFAULT_DEADLINE_MS
    #: Cycle-budget watermark: mean per-device backlog, ms of service
    #: time already committed but not yet executed.
    backlog_ms: float = DEFAULT_BACKLOG_MS
    #: EWMA smoothing for per-class service-time estimates.
    ewma_alpha: float = 0.2
    #: Bounded retry around backend launches.
    max_retries: int = 2
    backoff_base_s: float = 1e-4
    #: Circuit breaker: consecutive failures to open, and how long an
    #: open breaker rejects before probing half-open.
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 0.05

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(
                f"resilience mode {self.mode!r} not in {MODES}")
        if self.max_queue < 1:
            raise ConfigurationError(
                f"max_queue must be >= 1, got {self.max_queue}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ConfigurationError(
                f"deadline_ms must be positive, got {self.deadline_ms}")
        for name in ("backlog_ms", "ewma_alpha", "backoff_base_s",
                     "breaker_cooldown_s"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"ResilienceConfig.{name} must be positive, "
                    f"got {getattr(self, name)!r}")
        if not 0 < self.ewma_alpha <= 1:
            raise ConfigurationError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if self.max_retries < 0 or self.breaker_threshold < 1:
            raise ConfigurationError(
                f"max_retries must be >= 0 and breaker_threshold >= 1 "
                f"(got {self.max_retries}, {self.breaker_threshold})")

    # -- capability flags --------------------------------------------------
    @property
    def active(self) -> bool:
        return self.mode != "off"

    @property
    def sheds(self) -> bool:
        """Admission control + deadline semantics are on."""
        return self.mode in ("shed", "degrade", "strict")

    @property
    def hedges(self) -> bool:
        """Launches stranded on a dead shard re-dispatch elsewhere."""
        return self.mode in ("degrade", "strict")

    @property
    def strict(self) -> bool:
        return self.mode == "strict"

    # -- per-class watermarks ----------------------------------------------
    def priority(self, query_class: str) -> int:
        return DEFAULT_PRIORITIES.get(query_class, 1)

    def _share(self, query_class: str) -> float:
        tier = min(self.priority(query_class), len(PRIORITY_SHARES) - 1)
        return PRIORITY_SHARES[tier]

    def queue_limit(self, query_class: str) -> int:
        """Queue depth at which this class starts shedding."""
        return max(1, int(self.max_queue * self._share(query_class)))

    def backlog_limit_s(self, query_class: str) -> float:
        """Mean device backlog (seconds) at which this class sheds."""
        return self.backlog_ms / 1e3 * self._share(query_class)

    @property
    def deadline_s(self) -> Optional[float]:
        return None if self.deadline_ms is None else self.deadline_ms / 1e3

    def deadline_budget_s(self, query_class: str) -> Optional[float]:
        """Admission-time latency budget for this class: the deadline
        scaled by priority share.  The *completion* deadline stays the
        full ``deadline_s`` for every class; shrinking only the
        admission budget makes bulk classes surrender queue headroom
        to the latency-critical tier before anyone misses for real."""
        if self.deadline_ms is None:
            return None
        return self.deadline_ms / 1e3 * self._share(query_class)

    def backoff_s(self, attempt: int) -> float:
        """Virtual-time backoff before retry ``attempt`` (1-based):
        exponential, deterministic (no jitter — reproducibility wins)."""
        return self.backoff_base_s * (2.0 ** (attempt - 1))

    @classmethod
    def from_env(cls) -> "ResilienceConfig":
        """Default knobs under the ``$REPRO_RESILIENCE`` policy."""
        return cls(mode=resilience_mode())


class EwmaEstimator:
    """Exponentially weighted moving average of a class's service time.

    ``value`` is None until the first observation — admission checks
    skip the deadline-feasibility test until the service has seen at
    least one completion for the class (cold starts admit optimistically
    rather than shedding blind).

    Feed this *pure service time* (launch occupancy), never end-to-end
    sojourn: a sojourn estimate saturates above the deadline under
    overload and — since a fully-shedding class never completes another
    query — can never recover, wedging admission permanently.  Service
    time stays stable under load, so feasibility tracks the *live*
    backlog and re-opens as shedding drains it.
    """

    __slots__ = ("alpha", "value", "samples")

    def __init__(self, alpha: float = 0.2):
        if not 0 < alpha <= 1:
            raise ConfigurationError(
                f"EWMA alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value: Optional[float] = None
        self.samples = 0

    def observe(self, sample: float) -> float:
        self.samples += 1
        if self.value is None:
            self.value = sample
        else:
            self.value += self.alpha * (sample - self.value)
        return self.value


#: Circuit-breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class CircuitBreaker:
    """Virtual-time circuit breaker around one backend's launches.

    Classic three-state machine: CLOSED counts consecutive failures and
    opens at ``threshold``; OPEN rejects every attempt until
    ``cooldown_s`` has passed; then HALF_OPEN admits a single probe —
    success closes the breaker, failure re-opens it for another full
    cooldown.  All times are the serving loop's virtual time, passed in
    by the caller, so the state machine itself is pure and
    deterministic.
    """

    __slots__ = ("threshold", "cooldown_s", "failures", "opened_at",
                 "opens", "_probing")

    def __init__(self, threshold: int = 3, cooldown_s: float = 0.05):
        if threshold < 1 or cooldown_s <= 0:
            raise ConfigurationError(
                f"breaker threshold must be >= 1 and cooldown positive "
                f"(got {threshold}, {cooldown_s})")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.failures = 0             # consecutive, in CLOSED
        self.opened_at: Optional[float] = None
        self.opens = 0                # lifetime open transitions
        self._probing = False

    def state(self, now: float) -> str:
        if self.opened_at is None:
            return CLOSED
        if now - self.opened_at >= self.cooldown_s:
            return HALF_OPEN
        return OPEN

    def allow(self, now: float) -> bool:
        """May a launch be attempted now?  In HALF_OPEN only the first
        caller gets through (the probe); the rest stay rejected until
        the probe reports back."""
        state = self.state(now)
        if state == CLOSED:
            return True
        if state == HALF_OPEN and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self, now: float) -> None:
        self.failures = 0
        self.opened_at = None
        self._probing = False

    def record_failure(self, now: float) -> bool:
        """Count one failure; returns True when this call *opens* the
        breaker (closed -> open, or a failed half-open probe)."""
        if self.opened_at is not None:
            # Failed probe (or failure racing the open window): re-open
            # from now.
            self.opened_at = now
            self._probing = False
            self.opens += 1
            return True
        self.failures += 1
        if self.failures >= self.threshold:
            self.opened_at = now
            self.opens += 1
            return True
        return False


def check_batch_integrity(results: Dict[int, Any],
                          n_queries: int) -> Optional[str]:
    """The serving edition of the guard's conservation invariants:
    every query slot must have exactly one well-formed result.

    Returns a human-readable violation reason, or None when the batch
    is sound.  Cheap (one pass, no golden data), so it runs on every
    launch in every mode — corruption is *detected* unconditionally;
    what happens next (retry, fail, raise) is policy.
    """
    from repro.guard.faults import is_corrupt_result

    missing = [slot for slot in range(n_queries) if slot not in results]
    if missing:
        return (f"batch result conservation: {len(missing)} of "
                f"{n_queries} slots missing (first: {missing[0]})")
    for slot in range(n_queries):
        if is_corrupt_result(results[slot]):
            return f"garbled result in slot {slot}"
    return None


def slo_summary(offered: int, served: int, shed: int, failed: int,
                deadline_misses: int, duration_s: float,
                p99_admitted_ms: float) -> Dict[str, Any]:
    """The SLO block of a loadtest report.

    Accounting invariant (asserted by the fault-matrix tests): every
    measured query lands in exactly one of served / shed / failed, so
    ``admitted = served + failed`` and ``offered = admitted + shed``.
    Goodput counts only completions that made their deadline.
    """
    admitted = served + failed
    good = served - deadline_misses
    return {
        "offered": offered,
        "admitted": admitted,
        "served": served,
        "shed": shed,
        "failed": failed,
        "deadline_misses": deadline_misses,
        "goodput_qps": good / duration_s if duration_s > 0 else 0.0,
        "shed_fraction": shed / offered if offered else 0.0,
        "error_fraction": failed / offered if offered else 0.0,
        "p99_admitted_ms": p99_admitted_ms,
        "accounted": admitted + shed == offered,
    }
