"""The simulation watchdog: no-progress detection and diagnostic bundles.

A :class:`Guard` is attached to one simulation (one ``GPU.launch``).
The engines call back into it from their run loops — the guard never
schedules events of its own, so an attached guard changes *nothing*
about event order, final cycle counts, or statistics; it only observes:

* every ``check_events`` host events the engine calls
  :meth:`Guard.on_events`, which compares a **progress token** (a tuple
  of monotone model counters: jobs completed, traversal steps advanced,
  warps retired, SIMT issues, memory sectors) against the previous
  checkpoint.  ``stall_events`` host events without the token moving
  means the simulation is spinning (livelock) and the guard aborts with
  :class:`~repro.errors.SimulationStallError`.  Measuring progress in
  *events* rather than cycles keeps legitimate far-future time jumps
  (an idle simulator skipping to the next event) from being flagged.
* the same checkpoint scans for **parked work**: a wake bucket whose
  cycle has already passed (its drain event was dropped) or a job
  waiting in a core's admission queue longer than ``PARK_CYCLES``.
* when the cycle clock passes ``max_cycles`` (if set) the engine calls
  :meth:`Guard.on_cycle_budget`, which always aborts.
* after ``sim.run()`` returns, :meth:`Guard.finalize` verifies
  **quiescence** (the event queue drained with no traversal still in
  flight, no undrained wake bucket, every launched warp retired — this
  is how a *dropped* wake surfaces: the simulation goes quiet with work
  pending) and, in ``on``/``strict`` modes, the conservation invariants
  of :mod:`repro.guard.invariants`.

Every abort carries a diagnostic **bundle** (see :meth:`Guard.bundle`):
a JSON-serializable dict naming the stuck units and jobs, which
``repro.exec`` persists when it quarantines the run's spec.
"""

from typing import Optional

from repro.errors import InvariantViolation, SimulationStallError
from repro.guard.config import PARK_CYCLES, GuardConfig
from repro.guard.invariants import (check_balance, check_conservation,
                                    quiescence_report)


class Guard:
    """Watchdog + invariant checker for one simulation run."""

    def __init__(self, config: Optional[GuardConfig] = None):
        self.config = config if config is not None else GuardConfig()
        self.sim = None
        self.sms = []
        self.cores = []
        self.hierarchy = None
        self.stats = None
        self.n_warps = 0
        self._last_token = None
        self._progress_events = 0
        self._progress_cycle = 0

    # -- construction ------------------------------------------------------
    @classmethod
    def from_env(cls) -> Optional["Guard"]:
        """Build a guard from ``$REPRO_GUARD``; None when mode is ``off``."""
        config = GuardConfig.from_env()
        if config.mode == "off":
            return None
        return cls(config)

    @staticmethod
    def resolve(value) -> Optional["Guard"]:
        """Normalize a ``guard=`` argument: None -> from env, a
        :class:`GuardConfig` -> fresh guard (or None when off), a
        :class:`Guard` -> itself."""
        if value is None:
            return Guard.from_env()
        if isinstance(value, GuardConfig):
            return None if value.mode == "off" else Guard(value)
        return value

    # -- wiring ------------------------------------------------------------
    def attach(self, sim, sms=(), hierarchy=None, stats=None,
               n_warps: int = 0) -> "Guard":
        """Bind to a simulation: the engine plus the model objects whose
        counters define progress.  Registers self as ``sim.guard``."""
        self.sim = sim
        self.sms = list(sms)
        # Only accelerators exposing the guard interface are observed;
        # custom/stub accelerators (tests, user extensions) without
        # ``guard_state`` are simply not instrumented.
        self.cores = [sm.accelerator for sm in self.sms
                      if hasattr(sm.accelerator, "guard_state")]
        self.hierarchy = hierarchy
        self.stats = stats
        self.n_warps = n_warps
        self._last_token = None
        self._progress_events = sim.events_processed
        self._progress_cycle = sim.now
        sim.guard = self
        if self.config.strict:
            for core in self.cores:
                # The fetch-park ordering (rta.py) exists to keep the
                # memory-scheduler timeline FIFO in arrival order; the
                # analytic clocks may jitter within one engine cycle,
                # hence the tolerance.  SM issue/ldst timelines are
                # legitimately acquired at future times (shader handoff,
                # post-issue LDST chaining) and are not order-checked.
                issue = getattr(getattr(core, "mem", None), "issue", None)
                if issue is not None and \
                        hasattr(issue, "enable_order_check"):
                    issue.enable_order_check(self)
        return self

    # -- engine hooks ------------------------------------------------------
    @property
    def cycle_cap(self) -> Optional[int]:
        return self.config.max_cycles

    def event_checkpoint(self, processed: int) -> int:
        """The event count at which the engine should next call
        :meth:`on_events`."""
        return processed + self.config.check_events

    def on_events(self, processed: int, now) -> int:
        """Watchdog checkpoint; returns the next checkpoint event count.

        Raises :class:`SimulationStallError` on a frozen progress token
        or parked work, :class:`InvariantViolation` when a strict-mode
        balance check fails.
        """
        config = self.config
        token = self._progress_token()
        if token != self._last_token:
            self._last_token = token
            self._progress_events = processed
            self._progress_cycle = now
        elif processed - self._progress_events >= config.stall_events:
            raise SimulationStallError(
                f"no model progress over "
                f"{processed - self._progress_events} events "
                f"(cycle {now}, last progress at cycle "
                f"{self._progress_cycle}){self._unit_suffix()}",
                self.bundle("no-progress", now=now, events=processed),
            )
        parked = self._parked_report(now)
        if parked is not None:
            raise SimulationStallError(
                parked + self._unit_suffix(),
                self.bundle("parked-work", now=now, events=processed))
        if config.strict:
            check_balance(self)
        return processed + config.check_events

    def on_cycle_budget(self, time) -> None:
        """The cycle clock passed ``max_cycles``; always aborts."""
        raise SimulationStallError(
            f"cycle budget exceeded: clock reached {time} "
            f"(max_cycles={self.config.max_cycles})"
            f"{self._unit_suffix()}",
            self.bundle("cycle-budget", now=time),
        )

    def order_violation(self, name: str, now, last) -> None:
        """A FIFO timeline saw an acquisition earlier than a previous one
        (beyond the one-cycle analytic jitter tolerance)."""
        raise InvariantViolation(
            f"timeline {name}: acquisition at {now:.3f} arrived after one "
            f"at {last:.3f} — FIFO arrival order violated"
            f"{self._unit_suffix()}",
            self.bundle("timeline-order"),
        )

    # -- end of run --------------------------------------------------------
    def finalize(self) -> None:
        """Post-run checks: quiescence always, conservation in on/strict."""
        if self.sim is None:
            return
        quiet = quiescence_report(self)
        if quiet is not None:
            raise SimulationStallError(
                f"simulation went quiet with work pending: {quiet}",
                self.bundle("quiescent-with-pending"),
            )
        if self.config.checks_invariants:
            check_conservation(self)

    # -- internals ---------------------------------------------------------
    def _progress_token(self):
        jobs = steps = 0
        for core in self.cores:
            jobs += core.jobs_completed
            steps += core.steps_advanced
        warps = 0
        for sm in self.sms:
            warps += sm._done_count
        issues = self.stats._simt_issues if self.stats is not None else 0
        sectors = (self.hierarchy.sector_requests
                   if self.hierarchy is not None else 0)
        return (jobs, steps, warps, issues, sectors)

    def _parked_report(self, now) -> Optional[str]:
        for core in self.cores:
            report = core.guard_parked(now, PARK_CYCLES)
            if report is not None:
                return report
        return None

    def _tracer(self):
        """The run's tracer (repro.obs), or None when tracing is off."""
        return getattr(self.sim, "tracer", None) \
            if self.sim is not None else None

    def _unit_suffix(self) -> str:
        """`` (last active unit: ...)`` for abort messages, or ``""``.

        With tracing on, the flight-recorder names the component that
        emitted last before the abort — usually the stuck one.
        """
        tracer = self._tracer()
        if tracer is None or not len(tracer):
            return ""
        unit = tracer.last_active_unit()
        return f" (last active unit: {unit})" if unit else ""

    def bundle(self, reason: str, now=None, events=None) -> dict:
        """The diagnostic bundle: JSON-serializable simulator state.

        With tracing enabled the bundle embeds the flight-recorder tail
        (the last events before the abort) and the last-active unit;
        when ``$REPRO_OBS_DIR`` is set the bundle (plus the full trace)
        is also dumped there for CI artifact collection.
        """
        sim = self.sim
        data = {
            "reason": reason,
            "cycle": sim.now if now is None else now,
            "events_processed": (sim.events_processed
                                 if events is None else events),
            "pending_events": sim.pending_events,
            "last_progress": {
                "events": self._progress_events,
                "cycle": self._progress_cycle,
            },
            "mode": self.config.mode,
            "warps": {
                "launched": self.n_warps,
                "retired": sum(sm._done_count for sm in self.sms),
            },
            "cores": [core.guard_state() for core in self.cores],
            "sms": [sm.guard_state() for sm in self.sms],
        }
        if self.hierarchy is not None:
            data["memsys"] = self.hierarchy.guard_state()
        tracer = self._tracer()
        if tracer is not None and len(tracer):
            data["last_active_unit"] = tracer.last_active_unit()
            data["trace_tail"] = [list(event) for event in tracer.tail(64)]
        # Imported lazily: the guard works without obs on the path, and
        # dump_diagnostics itself never raises into this abort path.
        from repro.obs import dump_diagnostics

        dumped = dump_diagnostics(data, tracer)
        if dumped is not None:
            data["dumped_to"] = dumped
        return data
