"""repro.guard — simulation watchdog, invariants, fault injection.

The robustness subsystem around the fast simulation core:

* :class:`Guard` (``watchdog.py``) — attached per launch; detects
  no-progress states and budget overruns, verifies quiescence and
  conservation invariants, and aborts with a structured
  :class:`~repro.errors.SimulationStallError` /
  :class:`~repro.errors.InvariantViolation` carrying a diagnostic
  bundle instead of spinning forever.
* :class:`GuardConfig` (``config.py``) — mode (``off`` / ``watch`` /
  ``on`` / ``strict``; ``REPRO_GUARD`` picks the default) and
  thresholds, passed as arguments.
* :mod:`repro.guard.faults` — deterministic fault injection proving
  the above actually fire.

See ``docs/MODEL.md`` §"Guardrails" for the operator-facing story.
"""

from repro.errors import (FaultInjectionError, GuardError,
                          InvariantViolation, SimulationStallError)
from repro.guard.config import GUARD_ENV, MODES, GuardConfig, guard_mode
from repro.guard.faults import (FAULTS_ENV, SERVE_KINDS, ServeFaultPlan,
                                ServeFaults, is_corrupt_result,
                                parse_serve_plans)
from repro.guard.watchdog import Guard

__all__ = [
    "FAULTS_ENV",
    "GUARD_ENV",
    "MODES",
    "SERVE_KINDS",
    "Guard",
    "GuardConfig",
    "GuardError",
    "FaultInjectionError",
    "InvariantViolation",
    "ServeFaultPlan",
    "ServeFaults",
    "SimulationStallError",
    "guard_mode",
    "is_corrupt_result",
    "parse_serve_plans",
]
