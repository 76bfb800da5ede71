"""Exception types shared across the repro package.

Two families live here:

* **Configuration/usage errors** (`ConfigurationError` and friends) —
  the caller asked for something inconsistent; raised eagerly, before
  any simulation runs.
* **Guard errors** (`GuardError` and subclasses) — raised by the
  ``repro.guard`` robustness subsystem while a simulation is running
  (or when it finishes in an inconsistent state).  Every guard error
  carries a ``diagnostics`` dict: a JSON-serializable bundle describing
  the simulator state at the moment of failure (cycle, events
  processed, last-progress marker, per-core occupancy and stuck jobs,
  per-SM warp counts, memsys request/response balance).  The bundle is
  what ``repro.exec`` persists when it quarantines a failing RunSpec.

  - `SimulationStallError` — the watchdog detected a no-progress state
    (frozen progress token, undrained wake bucket, warp-buffer entry
    parked past its cycle budget, cycle budget exceeded) or the run
    went quiet with work still pending.
  - `InvariantViolation` — a conservation invariant failed: a
    `TraversalJob` completed twice (or never), memory-system requests
    do not balance responses, a warp-buffer slot leaked, or a
    unit-timeline acquisition arrived out of order (strict mode).
  - `FaultInjectionError` — the fault-injection harness itself was
    misused (unknown fault kind, fault target not found); never raised
    by a healthy simulation.

Guard errors define ``__reduce__`` so the diagnostics payload survives
pickling across the ``repro.exec`` worker-process boundary.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """An accelerator, layout, or experiment was configured inconsistently."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class LayoutError(ConfigurationError):
    """A data-layout descriptor does not match the data it is applied to."""


class ProgramError(ConfigurationError):
    """A TTA+ micro-op program is malformed or references unknown units."""


class GuardError(ReproError):
    """Base class for ``repro.guard`` failures; carries a diagnostic bundle.

    ``diagnostics`` is a plain dict of JSON-serializable values (ints,
    floats, strings, lists, dicts) so it can be persisted verbatim into
    a quarantine record and shipped across process boundaries.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics) if diagnostics else {}

    def __reduce__(self):
        # Default pickling would re-call __init__ with only args[0] and
        # drop the diagnostics; hand it both explicitly.
        return (type(self), (self.args[0] if self.args else "", self.diagnostics))

    def __str__(self):
        base = super().__str__()
        reason = self.diagnostics.get("reason")
        if reason and reason not in base:
            return f"{base} [{reason}]"
        return base


class SimulationStallError(GuardError):
    """The watchdog detected a no-progress state or an exceeded budget."""


class InvariantViolation(GuardError):
    """A conservation invariant failed (lost/duplicated work, unbalanced
    memory traffic, leaked warp-buffer slot, out-of-order acquisition)."""


class FaultInjectionError(GuardError):
    """The fault-injection harness was configured or targeted incorrectly."""


class BackendLaunchError(ReproError):
    """A batch launch failed for a transient, retryable reason (in this
    behavioral model: the ``launch_fail`` serve-path fault injector).
    Retried with backoff; repeated failures open the circuit breaker."""
