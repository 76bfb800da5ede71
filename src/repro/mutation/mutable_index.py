"""Mutable resident indexes: write application, maintenance, epoch swap.

:class:`MutableResidentIndex` wraps a :class:`repro.serve.index.
ResidentIndex` and gives the loadtest a single surface for the write
path:

* ``apply(event, rng)`` — run one write through the flavor's mutator,
  charge its cycle cost, and (every ``refit_threshold`` writes) make a
  maintenance decision via the :class:`~repro.mutation.scheduler.
  RebuildPolicy`: refit in place, or schedule a rebuild.
* ``ensure_ready(t)`` — called before each batch dispatch: install a
  finished rebuild (epoch swap) and refresh the memory image and
  derived caches if any write landed since the last launch.

**Epoch swap.**  A rebuild decided at virtual time ``t`` completes at
``t + rebuild_cycles/clock``; until then the old (decayed) tree keeps
serving and further writes keep applying to it — they are the write log
the swap must not lose.  At install time the new tree is bulk-built
over the live set *at that moment*, which is content-identical to
building from the decision-time snapshot and replaying the interim log
(the mutators maintain the live set exactly); the interim write count
is reported as ``log_replayed``.  In-flight batches are safe because
dispatch is atomic in virtual time: lowering happens at ``t_close``
against whichever tree ``ensure_ready`` left installed.

**Staleness contract.**  A refresh rebuilds the memory image in a fresh
address space, re-allocates the query/result buffers, and clears the
index's lowered-job memo and the workload's job/stream caches, so
nothing derived from the old layout outlives it.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.memsys.memory_image import AddressSpace
from repro.mutation.mutators import Mutator, make_mutator
from repro.mutation.scheduler import (
    RebuildPolicy,
    rebuild_cycles,
    refit_cycles,
    write_cycles,
)
from repro.mutation.stream import WriteEvent, WriteProfile
from repro.serve.clock import DEFAULT_CLOCK, ServiceClock


@dataclass(frozen=True)
class MutationConfig:
    """Everything the loadtest needs to run a write stream: the stream
    itself plus the maintenance schedule.  ``None`` in the loadtest
    means no mutation machinery is constructed at all — the serve path
    stays stat-for-stat identical to a read-only run."""

    write: WriteProfile
    policy: RebuildPolicy = field(default_factory=RebuildPolicy)
    refit_threshold: int = 64

#: query class -> (query entry bytes, result entry bytes per query).
#: Mirrors the make_*_workload buffer sizing; knn results scale by k.
_BUF_BYTES = {
    "point": (4, 4),
    "range": (16, 4),
    "knn": (12, 4),        # result side multiplied by workload.k
    "radius": (12, 4),
}


def refresh_workload_image(query_class: str, workload: Any) -> None:
    """Re-materialize the memory image after structural mutation.

    A fresh :class:`AddressSpace` re-places the (possibly re-shaped)
    tree and re-allocates the query/result buffers with the same
    per-class sizing the workload factories use, then drops every
    derived cache keyed on the old layout.
    """
    tree = workload.bvh if query_class == "radius" else workload.tree
    n = workload.n_queries
    q_bytes, r_bytes = _BUF_BYTES[query_class]
    if query_class == "knn":
        r_bytes *= workload.k
    space = AddressSpace()
    workload.space = space
    workload.image = space.place_tree(tree.nodes())
    workload.query_buf = space.alloc(q_bytes * n, align=128)
    workload.result_buf = space.alloc(r_bytes * n, align=128)
    workload._jobs_cache.clear()
    workload._stream_cache.clear()


class MutableResidentIndex:
    """The write path and maintenance state for one resident index."""

    def __init__(self, index: Any, policy: RebuildPolicy = RebuildPolicy(),
                 refit_threshold: int = 64,
                 clock: ServiceClock = DEFAULT_CLOCK,
                 registry=None, tracer=None, platform: str = ""):
        if refit_threshold < 1:
            from repro.errors import ConfigurationError
            raise ConfigurationError("refit threshold must be >= 1")
        self.index = index
        self.policy = policy
        self.refit_threshold = refit_threshold
        self.clock = clock
        self.registry = registry
        self.tracer = tracer
        self.platform = platform
        self.mutator: Mutator = make_mutator(index.query_class,
                                             index.workload)
        self.baseline_decay = max(self.mutator.quality()["decay"], 1e-12)
        # -- counters ------------------------------------------------------
        self.writes = 0
        self.writes_by_op: Dict[str, int] = {}
        self.refits = 0
        self.rebuilds = 0
        self.writes_since_refit = 0
        self.writes_since_rebuild = 0
        self.epoch = 0
        #: (t, kind, cycles, decay_ratio) per refit/rebuild decision.
        self.maintenance_events: List[Dict[str, float]] = []
        self._dirty = False
        self._rebuild_ready_at: Optional[float] = None
        self._log_since_trigger = 0

    # -- write path --------------------------------------------------------
    def apply(self, event: WriteEvent, rng) -> float:
        """Apply one write at virtual time ``event.t``; returns the
        device cycles the write (plus any maintenance it triggered)
        costs."""
        self.ensure_ready(event.t)
        op, touched = self.mutator.apply(event.op, rng)
        self.writes += 1
        self.writes_by_op[op] = self.writes_by_op.get(op, 0) + 1
        self.writes_since_refit += 1
        self.writes_since_rebuild += 1
        if self._rebuild_ready_at is not None:
            self._log_since_trigger += 1
        self._dirty = True
        cycles = write_cycles(touched)
        if self.registry is not None:
            self.registry.add("mutation.writes")
            self.registry.add(f"mutation.{op}")
        if self.writes_since_refit >= self.refit_threshold:
            cycles += self._maintain(event.t)
            self.writes_since_refit = 0
        return cycles

    def _maintain(self, t: float) -> float:
        """One maintenance point: refit, or schedule a rebuild."""
        decay_ratio = self.decay_ratio()
        rebuild = (self.policy.wants_rebuild(self.writes_since_rebuild,
                                             decay_ratio)
                   and self._rebuild_ready_at is None)
        if rebuild:
            cycles = rebuild_cycles(self.mutator.live_size)
            self._rebuild_ready_at = t + self.clock.seconds(cycles)
            self._log_since_trigger = 0
            kind = "rebuild_scheduled"
        else:
            touched = self.mutator.refit()
            cycles = refit_cycles(touched)
            self.refits += 1
            self._dirty = True
            kind = "refit"
            if self.registry is not None:
                self.registry.add("mutation.refits")
        self.maintenance_events.append({
            "t": t, "kind": kind, "cycles": cycles,
            "decay_ratio": decay_ratio,
        })
        if self.tracer is not None:
            self.tracer.emit("mutation", self.platform, kind,
                             self.clock.cycles(t), cycles,
                             {"decay_ratio": round(decay_ratio, 4)})
        return cycles

    def ensure_ready(self, t: float) -> None:
        """Install a finished rebuild and refresh derived state so the
        next launch sees a consistent (tree, image, caches) triple."""
        if self._rebuild_ready_at is not None and t >= self._rebuild_ready_at:
            self.mutator.rebuild()
            self.rebuilds += 1
            self.epoch += 1
            self.writes_since_rebuild = 0
            self.maintenance_events.append({
                "t": t, "kind": "rebuild_installed", "cycles": 0.0,
                "decay_ratio": self.decay_ratio(),
                "log_replayed": float(self._log_since_trigger),
            })
            if self.registry is not None:
                self.registry.add("mutation.rebuilds")
            if self.tracer is not None:
                self.tracer.emit("mutation", self.platform,
                                 "rebuild_installed", self.clock.cycles(t),
                                 0.0,
                                 {"log_replayed": self._log_since_trigger})
            self._rebuild_ready_at = None
            self._log_since_trigger = 0
            self._dirty = True
        if self._dirty:
            self._refresh()

    def _refresh(self) -> None:
        refresh_workload_image(self.index.query_class, self.index.workload)
        self.index._lowered.clear()
        self._dirty = False

    # -- inspection --------------------------------------------------------
    def decay_ratio(self, quality: Optional[Dict[str, float]] = None
                    ) -> float:
        """Current decay over the baseline; pass ``quality`` when the
        tree was just scored, to not score it again."""
        if quality is None:
            quality = self.mutator.quality()
        return quality["decay"] / self.baseline_decay

    def quality(self) -> Dict[str, float]:
        return self.mutator.quality()

    def counters(self, quality: Optional[Dict[str, float]] = None
                 ) -> Dict[str, Any]:
        return {
            "writes": self.writes,
            "by_op": dict(sorted(self.writes_by_op.items())),
            "refits": self.refits,
            "rebuilds": self.rebuilds,
            "epoch": self.epoch,
            "live_items": self.mutator.live_size,
            "decay_ratio": round(self.decay_ratio(quality), 6),
        }
