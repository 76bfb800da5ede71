"""Micro-batching: coalescing single queries into accelerator launches.

The serving layer's core trade-off is the one RTNN measures: big
batches amortize launch overhead and fill the accelerator's warp
buffers (throughput), small batches bound how long the first query of a
batch waits for the last (latency).  :class:`BatchPolicy` is the knob
set; :class:`MicroBatcher` is the mechanism — a per-class
**timeout-or-size** coalescer in *virtual time*:

* a batch **closes on size** the instant its ``max_batch``-th query
  arrives, and
* a batch **closes on timeout** ``max_wait_s`` after its *first* query
  arrived, whichever comes first.

Callers feed it arrivals stamped with the serving loop's virtual clock
(:func:`repro.serve.loadtest.serve_arrivals`) and ask for the pending
deadline.  Deadlines are generation-counted so a stale timer firing
after its batch already closed on size is a no-op — the size/timeout
race can drop or double-serve nothing (``tests/test_serve.py`` hammers
this).
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BatchPolicy:
    """Timeout-or-size micro-batching knobs."""

    max_batch: int = 32
    max_wait_s: float = 2e-3

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_s < 0:
            raise ConfigurationError(
                f"max_wait_s cannot be negative, got {self.max_wait_s}")


@dataclass(frozen=True)
class QueryRequest:
    """One enqueued query, stamped with its arrival time."""

    seq: int                    # global submission order (unique)
    query_class: str
    qid: Optional[int]          # canonical-stream index, or None
    payload: Any = None         # the caller's handle (the loop's Arrival)
    t_arrival: float = 0.0      # seconds, caller's time domain
    #: Absolute completion deadline on the caller's timeline (None =
    #: no deadline; set by resilience-aware admission, carried through
    #: the batcher so dispatch can expire queries that waited too long).
    deadline: Optional[float] = None


@dataclass
class Batch:
    """One closed batch, ready to launch."""

    query_class: str
    queries: List[QueryRequest]
    t_open: float               # first query's arrival
    t_close: float              # when the batch closed (size or timeout)
    closed_by: str              # "size" | "timeout" | "flush"

    @property
    def size(self) -> int:
        return len(self.queries)

    @property
    def qids(self) -> List[int]:
        return [q.qid for q in self.queries]


@dataclass
class _OpenBatch:
    queries: List[QueryRequest] = field(default_factory=list)
    t_open: float = 0.0
    generation: int = 0


class MicroBatcher:
    """Per-class timeout-or-size coalescer (virtual-time, reusable)."""

    def __init__(self, policy: BatchPolicy):
        self.policy = policy
        self._open: Dict[str, _OpenBatch] = {}
        self._generation = 0

    # -- feeding ------------------------------------------------------------------
    def offer(self, query: QueryRequest) -> Optional[Batch]:
        """Enqueue one query; returns the batch it closed, if any.

        A query that opens a new batch makes :meth:`deadline` non-None
        for its class — the caller must arrange for :meth:`expire` at
        that time (or later).
        """
        cls = query.query_class
        open_batch = self._open.get(cls)
        if open_batch is None or not open_batch.queries:
            self._generation += 1
            open_batch = self._open[cls] = _OpenBatch(
                t_open=query.t_arrival, generation=self._generation)
        open_batch.queries.append(query)
        if len(open_batch.queries) >= self.policy.max_batch:
            return self._close(cls, query.t_arrival, "size")
        return None

    # -- deadlines ----------------------------------------------------------------
    def deadline(self, query_class: str) -> Optional[float]:
        """When the class's open batch times out (None if none open)."""
        open_batch = self._open.get(query_class)
        if open_batch is None or not open_batch.queries:
            return None
        return open_batch.t_open + self.policy.max_wait_s

    def generation(self, query_class: str) -> Optional[int]:
        """Token identifying the currently open batch; timers compare
        it at fire time so stale deadlines are no-ops."""
        open_batch = self._open.get(query_class)
        if open_batch is None or not open_batch.queries:
            return None
        return open_batch.generation

    def expire(self, query_class: str, now: float,
               generation: Optional[int] = None) -> Optional[Batch]:
        """Close the open batch because its wait timed out.

        ``generation`` (from :meth:`generation` at scheduling time)
        guards the size/timeout race: if the batch the timer was set for
        already closed on size — and a new one may have opened since —
        the timer is stale and nothing happens.
        """
        open_batch = self._open.get(query_class)
        if open_batch is None or not open_batch.queries:
            return None
        if generation is not None and open_batch.generation != generation:
            return None
        return self._close(query_class, now, "timeout")

    def flush(self, now: float) -> List[Batch]:
        """Close every open batch (service drain / shutdown)."""
        out = []
        for cls in sorted(self._open):
            if self._open[cls].queries:
                out.append(self._close(cls, now, "flush"))
        return out

    def pending(self, query_class: Optional[str] = None) -> int:
        if query_class is not None:
            open_batch = self._open.get(query_class)
            return len(open_batch.queries) if open_batch else 0
        return sum(len(b.queries) for b in self._open.values())

    # -- internals ----------------------------------------------------------------
    def _close(self, cls: str, now: float, why: str) -> Batch:
        open_batch = self._open.pop(cls)
        return Batch(cls, open_batch.queries, open_batch.t_open, now, why)
