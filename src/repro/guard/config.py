"""Guard configuration: modes and thresholds.

``REPRO_GUARD`` selects the default mode when no :class:`GuardConfig`
is passed (the CLI's ``--guard`` builds one):

* ``off``    — no guard is attached; zero overhead.
* ``watch``  — watchdog only: no-progress detection, park budgets,
  quiescence check (run must not go quiet with work pending).
* ``on``     — (default) watchdog plus end-of-run conservation
  invariants.
* ``strict`` — additionally re-checks balance invariants at every
  watchdog checkpoint ("per-epoch") and enables arrival-order checking
  on the accelerator memory-scheduler timelines.

Thresholds are :class:`GuardConfig` arguments:

* ``max_cycles``   — abort if the cycle clock passes this (default:
  unlimited; the CLI's ``--max-cycles``).
* ``stall_events`` — abort after this many host events with no model
  progress (default 2,000,000).  Progress is measured by a token built
  from monotone model counters (jobs completed, traversal steps, warps
  retired, SIMT issues, memory sectors), so legitimate far-future time
  jumps are not flagged.
* ``check_events`` — watchdog checkpoint cadence in host events
  (default 200,000).

A job may wait in a core's admission queue at most :data:`PARK_CYCLES`
cycles; a wake bucket whose cycle has already passed is flagged
immediately.
"""

import os
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError

GUARD_ENV = "REPRO_GUARD"

MODES = ("off", "watch", "on", "strict")

DEFAULT_STALL_EVENTS = 2_000_000
DEFAULT_CHECK_EVENTS = 200_000
#: Admission-queue wait budget per job, in cycles.
PARK_CYCLES = 5_000_000


def guard_mode() -> str:
    """The default guard mode from ``$REPRO_GUARD`` (default ``on``)."""
    mode = os.environ.get(GUARD_ENV, "on").strip().lower() or "on"
    if mode not in MODES:
        raise ConfigurationError(
            f"{GUARD_ENV}={mode!r} is not a guard mode; expected one of {MODES}"
        )
    return mode


@dataclass(frozen=True)
class GuardConfig:
    """Immutable guard thresholds; see the module docstring for semantics."""

    mode: str = "on"
    check_events: int = DEFAULT_CHECK_EVENTS
    stall_events: int = DEFAULT_STALL_EVENTS
    max_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(
                f"guard mode {self.mode!r} not in {MODES}"
            )
        for field in ("check_events", "stall_events"):
            value = getattr(self, field)
            if not isinstance(value, int) or value <= 0:
                raise ConfigurationError(
                    f"GuardConfig.{field} must be a positive int, got {value!r}"
                )
        if self.max_cycles is not None and self.max_cycles <= 0:
            raise ConfigurationError(
                f"GuardConfig.max_cycles must be positive, got {self.max_cycles!r}"
            )

    @property
    def checks_invariants(self) -> bool:
        return self.mode in ("on", "strict")

    @property
    def strict(self) -> bool:
        return self.mode == "strict"

    @classmethod
    def from_env(cls) -> "GuardConfig":
        """Default thresholds under the ``$REPRO_GUARD`` mode."""
        return cls(mode=guard_mode())
