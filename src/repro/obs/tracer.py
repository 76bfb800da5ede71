"""Cycle-domain structured event tracer (ring-buffered, zero-cost off).

The tracer follows the same attachment pattern as :mod:`repro.guard`:
``GPU.launch`` places the active tracer (or None) on ``sim.tracer``,
components cache ``getattr(sim, "tracer", None)`` at construction and
hoist it into a local at hot-loop entry, so a disabled tracer costs one
is-None branch per emission point and nothing else.  No simulator or
model module imports this one — the dependency runs strictly
obs → sim.stats, never the other way.

Events are plain tuples ``(category, unit, name, ts, dur, arg)``:

* ``category`` — coarse track group: ``"scheduler"``, ``"sm"``,
  ``"rta"``, ``"memsys"`` (exporters map these to trace processes);
* ``unit`` — the emitting instance (``"sm3"``, ``"ray_box"``,
  ``"dram"``, ...), mapped to a thread within the category;
* ``name`` — the phase/op (``"load"``, ``"node_fetch"``, ``"op"``);
* ``ts``/``dur`` — cycle-domain start and duration (``dur == 0``
  renders as an instant);
* ``arg`` — one small payload value (active lanes, query id, bytes).

The ring is a ``deque(maxlen=capacity)``: a trace that outgrows its
budget silently drops the *oldest* events, which is exactly the
flight-recorder behaviour the guard integration wants.

Environment controls (read by :func:`active_tracer`):

=========================  =================================================
``REPRO_TRACE``            ``1``/``on`` enables tracing (default: off)
``REPRO_TRACE_RATE``       keep every Nth event (default 1 = keep all)
``REPRO_TRACE_CATEGORIES`` comma list of categories to keep (default: all)
``REPRO_TRACE_EVENTS``     ring capacity in events (default 1,000,000)
=========================  =================================================

A rate or capacity that is not an integer >= 1 raises
:class:`~repro.errors.ConfigurationError` naming the variable.
"""

import os
from collections import deque
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError

TRACE_ENV = "REPRO_TRACE"
TRACE_RATE_ENV = "REPRO_TRACE_RATE"
TRACE_CATEGORIES_ENV = "REPRO_TRACE_CATEGORIES"
TRACE_EVENTS_ENV = "REPRO_TRACE_EVENTS"

#: Default ring capacity; ~60 bytes/event tuple keeps this under 100MB.
DEFAULT_CAPACITY = 1_000_000

#: The categories the emit points use, in canonical track order.
#: ``serve`` is the query-serving layer (:mod:`repro.serve`): enqueue /
#: batch / launch / complete lifecycle events in its virtual-time
#: domain, mapped onto the cycle timeline via the service clock.
#: ``resilience`` is the failure-semantics track riding the same
#: timeline (:mod:`repro.serve.resilience`): shed / expired / failed /
#: hedge / launch_failed decision points, so an overload or chaos run
#: shows *why* queries vanished next to *when* batches ran.
CATEGORIES = ("scheduler", "sm", "rta", "memsys", "serve", "resilience")

Event = Tuple[str, str, str, float, float, object]

_FALSY = ("", "0", "off", "false", "no", "none")


class Tracer:
    """Ring-buffered event recorder with sampling and category filters."""

    __slots__ = ("capacity", "rate", "categories", "_ring", "_seen",
                 "_kept", "_offset", "_launches", "_launch_label")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, rate: int = 1,
                 categories=None):
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1, got {capacity}")
        if rate < 1:
            raise ValueError(f"tracer sampling rate must be >= 1, got {rate}")
        self.capacity = capacity
        self.rate = rate
        self.categories = frozenset(categories) if categories else None
        self._ring: deque = deque(maxlen=capacity)
        self._seen = 0
        self._kept = 0
        #: Cycle offset of the current launch: successive GPU launches
        #: lay end-to-end on one global trace timeline.
        self._offset = 0.0
        self._launches: List[Tuple[str, float]] = []
        self._launch_label = None

    # -- hot path ----------------------------------------------------------
    def emit(self, cat: str, unit: str, name: str, ts, dur=0.0,
             arg=None) -> None:
        """Record one event; sampling and filtering happen here.

        The sampling check runs first: under ``rate`` N only every Nth
        call pays for the category filter and the append, which is what
        keeps the sampled-tracing overhead within its contract.
        ``events_seen`` therefore counts *all* emissions, regardless of
        any category filter.
        """
        seen = self._seen
        self._seen = seen + 1
        if seen % self.rate:
            return
        cats = self.categories
        if cats is not None and cat not in cats:
            return
        self._kept += 1
        self._ring.append((cat, unit, name, ts + self._offset, dur, arg))

    # -- launch bookkeeping ------------------------------------------------
    def begin_launch(self, label: str) -> None:
        self._launch_label = label
        self._ring.append(("scheduler", "engine", f"launch:{label}",
                           self._offset, 0.0, None))
        self._kept += 1
        self._seen += 1

    def end_launch(self, end_cycle) -> None:
        self._launches.append((self._launch_label or "kernel",
                               float(end_cycle)))
        self._offset += float(end_cycle)
        self._launch_label = None

    # -- inspection --------------------------------------------------------
    @property
    def events_seen(self) -> int:
        return self._seen

    @property
    def events_kept(self) -> int:
        return self._kept

    @property
    def events_dropped(self) -> int:
        """Events kept past sampling but evicted by the ring."""
        return self._kept - len(self._ring)

    @property
    def launches(self) -> List[Tuple[str, float]]:
        return list(self._launches)

    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> List[Event]:
        """All buffered events, oldest first."""
        return list(self._ring)

    def tail(self, n: int = 64) -> List[Event]:
        """The flight-recorder tail: the last ``n`` buffered events."""
        if n <= 0:
            return []
        ring = self._ring
        if len(ring) <= n:
            return list(ring)
        return list(ring)[-n:]

    def last_active_unit(self) -> Optional[str]:
        """``"category:unit"`` of the most recent non-scheduler event.

        Scheduler cycle ticks fire between every model event, so the
        last *model* emission is what names the stuck component in
        guard diagnostics; falls back to the very last event when only
        scheduler events are buffered.
        """
        last = None
        for event in reversed(self._ring):
            if last is None:
                last = event
            if event[0] != "scheduler":
                return f"{event[0]}:{event[1]}"
        if last is not None:
            return f"{last[0]}:{last[1]}"
        return None

    def clear(self) -> None:
        self._ring.clear()
        self._seen = 0
        self._kept = 0
        self._offset = 0.0
        self._launches = []
        self._launch_label = None


# -- process-wide active tracer -------------------------------------------------
#
# ``active_tracer()`` is consulted once per GPU.launch.  A tracer pinned
# with ``install()`` (the CLI path) always wins; otherwise the tracer is
# derived from the environment and rebuilt only when the relevant
# variables change, so monkeypatched env vars in tests take effect while
# back-to-back launches under one configuration share a single ring.

_pinned: Optional[Tracer] = None
_env_tracer: Optional[Tracer] = None
_env_signature = None


def _read_env_signature():
    return (os.environ.get(TRACE_ENV, ""),
            os.environ.get(TRACE_RATE_ENV, ""),
            os.environ.get(TRACE_CATEGORIES_ENV, ""),
            os.environ.get(TRACE_EVENTS_ENV, ""))


def trace_enabled() -> bool:
    """Whether ``$REPRO_TRACE`` asks for tracing (ignoring any pin)."""
    return os.environ.get(TRACE_ENV, "").strip().lower() not in _FALSY


def trace_env_int(name: str, default: int) -> int:
    """``$name`` (``REPRO_TRACE_RATE`` or ``REPRO_TRACE_EVENTS``) as an
    integer >= 1; unset or empty -> ``default``."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigurationError(f"{name}={raw!r} is not an integer >= 1")
    return value


def _tracer_from_env() -> Optional[Tracer]:
    if not trace_enabled():
        return None
    raw_cats = os.environ.get(TRACE_CATEGORIES_ENV, "")
    categories = [c.strip() for c in raw_cats.split(",") if c.strip()] or None
    return Tracer(capacity=trace_env_int(TRACE_EVENTS_ENV, DEFAULT_CAPACITY),
                  rate=trace_env_int(TRACE_RATE_ENV, 1),
                  categories=categories)


def active_tracer() -> Optional[Tracer]:
    """The tracer new launches should attach, or None when tracing is off."""
    global _env_tracer, _env_signature
    if _pinned is not None:
        return _pinned
    signature = _read_env_signature()
    if signature != _env_signature:
        _env_signature = signature
        _env_tracer = _tracer_from_env()
    return _env_tracer


def install(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Pin ``tracer`` as the process-wide active tracer (None unpins)."""
    global _pinned
    _pinned = tracer
    return tracer


def enable(capacity: int = DEFAULT_CAPACITY, rate: int = 1,
           categories=None) -> Tracer:
    """Build and pin a fresh tracer; returns it for later export."""
    return install(Tracer(capacity=capacity, rate=rate,
                          categories=categories))


def reset() -> None:
    """Unpin and forget all process-wide tracer state (test hygiene)."""
    global _pinned, _env_tracer, _env_signature
    _pinned = None
    _env_tracer = None
    _env_signature = None
