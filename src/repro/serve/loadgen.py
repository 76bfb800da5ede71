"""Open-loop load generation for the serving layer.

An **open-loop** generator decides every arrival time up front from the
target rate alone — arrivals never wait for responses, so queueing
delay shows up as latency instead of silently throttling the offered
load (the classic closed-loop coordinated-omission trap; MODEL.md §10
spells out the distinction).

Three arrival processes:

* ``poisson`` — exponential inter-arrival gaps (memoryless; the
  standard open-system model),
* ``uniform`` — fixed ``1/qps`` spacing (best case for batching),
* ``burst``  — Poisson arrivals of small bursts; each burst lands
  ``burst_size`` queries back-to-back (worst case for tail latency).

Every arrival is tagged with a query class drawn from the profile's
``mix`` and a canonical query id drawn uniformly from that class's
resident stream.  Generation is fully seeded: the same
:class:`LoadProfile` always yields the same arrival schedule, which is
what makes loadtest percentiles byte-reproducible.
"""

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.serve.index import QUERY_CLASSES

ARRIVAL_PROCESSES = ("poisson", "uniform", "burst")

#: Default query mix: an even split over every class.
DEFAULT_MIX = {cls: 1.0 for cls in QUERY_CLASSES}


@dataclass(frozen=True)
class Arrival:
    """One generated query arrival."""

    t: float                 # seconds since loadtest start
    query_class: str
    qid: Optional[int]       # canonical-stream index within the class
    measured: bool           # False while inside the warmup window
    payload: Any = None      # raw query when qid is None (repro serve)


@dataclass(frozen=True)
class LoadProfile:
    """Everything that defines one open-loop run."""

    qps: float = 200.0
    duration_s: float = 1.0          # measurement window
    warmup_s: float = 0.0            # unmeasured lead-in at the same rate
    mix: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_MIX))
    arrival: str = "poisson"
    burst_size: int = 8              # burst mode only
    seed: int = 0

    def __post_init__(self) -> None:
        if self.qps <= 0:
            raise ConfigurationError(f"qps must be positive, got {self.qps}")
        if self.duration_s <= 0:
            raise ConfigurationError(
                f"duration_s must be positive, got {self.duration_s}")
        if self.warmup_s < 0:
            raise ConfigurationError("warmup_s cannot be negative")
        if self.arrival not in ARRIVAL_PROCESSES:
            raise ConfigurationError(
                f"unknown arrival process {self.arrival!r}; "
                f"known: {ARRIVAL_PROCESSES}")
        if self.burst_size < 1:
            raise ConfigurationError(
                f"burst_size must be >= 1, got {self.burst_size}")
        if not self.mix:
            raise ConfigurationError("mix cannot be empty")
        for cls, weight in self.mix.items():
            if cls not in QUERY_CLASSES:
                raise ConfigurationError(
                    f"unknown query class {cls!r} in mix; "
                    f"known: {QUERY_CLASSES}")
            if weight < 0:
                raise ConfigurationError(
                    f"mix weight for {cls!r} cannot be negative")
        if sum(self.mix.values()) <= 0:
            raise ConfigurationError("mix weights sum to zero")

    @property
    def total_s(self) -> float:
        return self.warmup_s + self.duration_s

    def classes(self) -> Tuple[str, ...]:
        """Classes with nonzero weight, in canonical order."""
        return tuple(cls for cls in QUERY_CLASSES
                     if self.mix.get(cls, 0.0) > 0)


def _arrival_times(profile: LoadProfile, rng: random.Random) -> List[float]:
    times: List[float] = []
    horizon = profile.total_s
    if profile.arrival == "uniform":
        gap = 1.0 / profile.qps
        t = gap
        while t < horizon:
            times.append(t)
            t += gap
    elif profile.arrival == "poisson":
        t = 0.0
        while True:
            t += rng.expovariate(profile.qps)
            if t >= horizon:
                break
            times.append(t)
    else:  # burst: Poisson bursts, back-to-back members, same mean rate
        burst_rate = profile.qps / profile.burst_size
        t = 0.0
        while True:
            t += rng.expovariate(burst_rate)
            if t >= horizon:
                break
            times.extend([t] * profile.burst_size)
    return times


def generate_arrivals(profile: LoadProfile,
                      capacities: Optional[Dict[str, int]] = None
                      ) -> List[Arrival]:
    """The full, deterministic arrival schedule for one run.

    ``capacities`` maps query class -> canonical stream length (qids are
    drawn modulo it); defaults to a nominal 256 per class for callers
    that only need the schedule's shape.
    """
    rng = random.Random(profile.seed)
    classes = profile.classes()
    weights = [profile.mix[cls] for cls in classes]
    arrivals: List[Arrival] = []
    for t in _arrival_times(profile, rng):
        cls = rng.choices(classes, weights=weights)[0] \
            if len(classes) > 1 else classes[0]
        capacity = (capacities or {}).get(cls, 256)
        qid = rng.randrange(capacity)
        arrivals.append(Arrival(t, cls, qid, measured=t >= profile.warmup_s))
    return arrivals


def stream_signature(arrivals: List[Arrival]) -> Tuple:
    """A hashable fingerprint of an arrival schedule.

    Two schedules compare equal iff every arrival matches in time,
    class, qid, and warmup tagging — what the loadgen determinism tests
    assert across repeated generation from the same profile.
    """
    return tuple((a.t, a.query_class, a.qid, a.measured) for a in arrivals)


def parse_mix(text: str) -> Dict[str, float]:
    """Parse a CLI mix string, e.g. ``point=4,range=1,knn=1``.

    A bare class list (``point,knn``) means equal weights.
    """
    mix: Dict[str, float] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            cls, _, weight = part.partition("=")
            try:
                mix[cls.strip()] = float(weight)
            except ValueError:
                raise ConfigurationError(
                    f"bad mix weight in {part!r}") from None
        else:
            mix[part] = 1.0
    if not mix:
        raise ConfigurationError(f"empty query mix: {text!r}")
    return mix
