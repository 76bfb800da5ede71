"""Deterministic fault injection into the simulation's failure seams.

The watchdog and the conservation invariants are only worth their
overhead if they demonstrably fire, so this module can break a run in
precisely the ways ``repro.guard`` claims to catch.  Faults are
installed by wrapping methods on *one accelerator instance* (never a
class), so a faulted core sits next to healthy ones in the same GPU and
nothing leaks between launches.

Fault kinds (:data:`KINDS`):

``drop_wake``
    The victim job's next wake-up is parked in a wake bucket whose
    drain event is never scheduled — the exact bug class the batched
    driver's per-(core, cycle) buckets make possible.  The simulation
    goes quiet with the job in flight; the guard's quiescence check (or
    the parked-work scan, if other work keeps the clock moving past the
    bucket's cycle) reports it.
``stall``
    The victim job re-parks itself forever without advancing its
    traversal: an endless stream of drain events with a frozen progress
    token.  Caught by the watchdog's no-progress budget.
``dup_complete``
    The victim job's completion runs twice.  Caught immediately by the
    at-most-once check in ``RTACore._finish_job``.
``lost_fetch``
    One node fetch's response "never" arrives (completion pushed
    ~1e12 cycles out).  Caught by the ``max_cycles`` budget — set one
    when using this fault, otherwise the run terminates with an absurd
    cycle count instead of aborting.
``lost_response``
    The memory system records a sector request whose response vanishes.
    Caught by the end-of-run request/response balance invariant.

Faults on these seams only exist on the *batched fast path*, so they
never arm on the legacy reference engine (``REPRO_SIM_CORE=legacy``);
tests that inject them pin the fast engine.  A run the guard aborts
fails: ``repro.exec`` writes its diagnostic bundle and records the
point failed, and ``repro.serve`` fails the batch with reason
``guard``.  Nothing retries on a second engine.

Entry points: :func:`install_fault` (one core, one plan),
:func:`faulty_factory` (wrap an ``accelerator_factory``),
:func:`install_env_faults` (parse ``$REPRO_FAULTS``, applied by
``RTACore.__init__`` so faults reach worker processes through the
environment), and :func:`corrupt_cache_entry` (damage a stored result
so the exec cache's validate-on-read path can be exercised).

``$REPRO_FAULTS`` grammar: semicolon-separated plans, each
``kind[:query=<id>][:after=<n>][:sm=<id>|all]`` — e.g.
``stall:query=7:sm=0`` or ``drop_wake;lost_response:sm=all``.

**Serve-path injectors** (:data:`SERVE_KINDS`) break the *serving*
stack (``repro.serve``) rather than a simulation core, so the
``repro.serve.resilience`` mechanisms — bounded retry, circuit
breaker, hedged re-dispatch, shed-on-overload, result-integrity
checks — are provable the same way the watchdog is:

``launch_fail``
    The next ``times`` batch launches abort with a
    :class:`~repro.errors.BackendLaunchError` before the kernel runs.
    Caught by the backend's bounded retry-with-backoff; enough
    consecutive failures open the circuit breaker.
``slow_backend``
    Batch launches report ``factor``× their simulated service time on
    the loadtest's wall-clock timeline (contention on the device — the
    kernel's *cycle count* is untouched, so one-shot equivalence
    holds).  Caught by deadline-aware admission: the class's EWMA
    service time inflates and infeasible arrivals shed.
``shard_blackout``
    Simulated device ``shard`` dies at ``at_ms`` virtual milliseconds
    of every loadtest on the backend (``after``/``times`` do not
    apply): in-flight launches never complete and the shard takes no
    new work.
    Caught by hedged re-dispatch onto a healthy shard (``degrade``/
    ``strict`` policies); with resilience off the batch's queries are
    lost and accounted as failed.
``corrupt_result``
    One launch comes back with a result slot missing and another
    garbled.  Caught by the batch-integrity invariant (every query
    must have exactly one well-formed result); the launch is retried
    and counted under ``serve.resilience.corrupt_results``.

Serve plans share the ``$REPRO_FAULTS`` grammar with extra options:
``launch_fail:times=2``, ``slow_backend:factor=8``,
``shard_blackout:shard=1:at_ms=25``, ``corrupt_result:after=1``.
Core installers skip serve kinds and vice versa, so one environment
string can poison both layers at once.
"""

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.errors import BackendLaunchError, FaultInjectionError

FAULTS_ENV = "REPRO_FAULTS"

#: Simulation-core fault kinds (installed on accelerator instances).
CORE_KINDS = ("drop_wake", "stall", "dup_complete", "lost_fetch",
              "lost_response")

#: Serving-path fault kinds (consumed by ``repro.serve``).
SERVE_KINDS = ("launch_fail", "slow_backend", "shard_blackout",
               "corrupt_result")

KINDS = CORE_KINDS

#: Cycles between re-parks of a ``stall``\ ed job (arbitrary; small
#: enough that the no-progress budget is reached quickly).
STALL_REPARK_CYCLES = 64

#: How far a ``lost_fetch`` pushes the response: far beyond any real
#: run, but finite so an unguarded simulation still terminates.
LOST_FETCH_DELAY = 10 ** 12


@dataclass
class FaultPlan:
    """One fault: what to break, which job, and when.

    ``query_id=None`` locks onto the first job to cross the seam;
    ``after`` skips that many matching crossings first.  ``sm`` selects
    which SM's accelerator the environment installer targets ("all"
    for every core).
    """

    kind: str
    query_id: Optional[int] = None
    after: int = 0
    sm: Union[int, str] = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        if self.after < 0:
            raise FaultInjectionError(f"after={self.after} must be >= 0")

    def applies_to_sm(self, sm_id: int) -> bool:
        return self.sm == "all" or self.sm == sm_id


def _tokenize_plan(text: str):
    """``kind[:key=value]...`` -> ``(kind, {key: raw value})``."""
    parts = [p.strip() for p in text.strip().split(":") if p.strip()]
    if not parts:
        raise FaultInjectionError(f"empty fault plan in {text!r}")
    kind, options = parts[0], {}
    if kind not in CORE_KINDS and kind not in SERVE_KINDS:
        raise FaultInjectionError(
            f"unknown fault kind {kind!r}; expected one of "
            f"{CORE_KINDS + SERVE_KINDS}")
    for part in parts[1:]:
        if "=" not in part:
            raise FaultInjectionError(
                f"fault option {part!r} is not key=value (in {text!r})")
        name, _, value = part.partition("=")
        options[name] = value
    return kind, options


def parse_plan(text: str) -> FaultPlan:
    """Parse one *core* ``kind[:key=value]...`` plan from ``$REPRO_FAULTS``."""
    kind, options = _tokenize_plan(text)
    kwargs = {}
    for name, value in options.items():
        if name == "query":
            kwargs["query_id"] = int(value)
        elif name == "after":
            kwargs["after"] = int(value)
        elif name == "sm":
            kwargs["sm"] = "all" if value == "all" else int(value)
        else:
            raise FaultInjectionError(
                f"unknown fault option {name!r} (in {text!r})")
    return FaultPlan(kind, **kwargs)


def parse_plans(text: str):
    """Core-kind plans in ``text``; serve-kind plans are skipped (they
    are consumed by :func:`parse_serve_plans` on the serving layer)."""
    plans = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        kind, _options = _tokenize_plan(chunk)
        if kind in CORE_KINDS:
            plans.append(parse_plan(chunk))
    return plans


# -- per-seam installers ----------------------------------------------------------
def _match_job(plan: FaultPlan, core, slot: int, state: dict) -> bool:
    """Does this seam crossing belong to the victim job?

    ``slot`` indexes the core's struct-of-arrays job table
    (``core._jobs``), where the batched driver keeps per-job state.
    Locks onto one query id on the first match so repeated-trigger
    faults (``stall``) keep hitting the same job.
    """
    query_id = core._jobs.job[slot].query_id
    locked = state.get("locked")
    if locked is not None:
        return query_id == locked
    if plan.query_id is not None and query_id != plan.query_id:
        return False
    if state["skip"] > 0:
        state["skip"] -= 1
        return False
    state["locked"] = query_id
    return True


def _install_drop_wake(core, plan: FaultPlan, state: dict) -> None:
    orig = core._wake_at

    def wake_at(time, slot):
        if state["armed"] and _match_job(plan, core, slot, state):
            state["armed"] = False
            core._jobs.at[slot] = time
            # Park in a bucket with no drain event scheduled: the
            # dropped wake.  An unoccupied cycle is chosen so that an
            # already-scheduled drain cannot rescue the job (a later
            # legitimate wake landing in this bucket is collateral —
            # also dropped — which only deepens the stall).
            cycle = int(time) + 1
            while cycle in core._wake:
                cycle += 1
            core._wake[cycle] = [slot]
            return
        orig(time, slot)

    core._wake_at = wake_at


def _install_stall(core, plan: FaultPlan, state: dict) -> None:
    orig = core._advance_job

    def advance(slot):
        if _match_job(plan, core, slot, state):
            # Livelock: keep re-parking without touching the traversal,
            # so events flow but the progress token never moves.
            core._wake_at(float(core._jobs.at[slot]) + STALL_REPARK_CYCLES,
                          slot)
            return
        orig(slot)

    core._advance_job = advance


def _install_dup_complete(core, plan: FaultPlan, state: dict) -> None:
    orig = core._finish_job

    def finish(slot):
        orig(slot)
        if state["armed"] and _match_job(plan, core, slot, state):
            state["armed"] = False
            orig(slot)  # the duplicated completion

    core._finish_job = finish


def _install_lost_fetch(core, plan: FaultPlan, state: dict) -> None:
    orig = core.mem.fetch

    def fetch(now, address, size):
        if state["armed"]:
            if state["skip"] > 0:
                state["skip"] -= 1
            else:
                state["armed"] = False
                return now + LOST_FETCH_DELAY
        return orig(now, address, size)

    core.mem.fetch = fetch


def _install_lost_response(core, plan: FaultPlan, state: dict) -> None:
    orig = core.mem.fetch

    def fetch(now, address, size):
        done = orig(now, address, size)
        if state["armed"]:
            if state["skip"] > 0:
                state["skip"] -= 1
            else:
                state["armed"] = False
                # A request went out whose response vanished: the
                # request/response balance invariant must notice.
                core.mem.hierarchy.sector_requests += 1
        return done

    core.mem.fetch = fetch


_INSTALLERS = {
    "drop_wake": _install_drop_wake,
    "stall": _install_stall,
    "dup_complete": _install_dup_complete,
    "lost_fetch": _install_lost_fetch,
    "lost_response": _install_lost_response,
}


# -- public entry points -----------------------------------------------------------
def install_fault(core, plan: FaultPlan) -> None:
    """Arm one fault on one accelerator core (instance-level wrap)."""
    if getattr(core, "_legacy", False):
        # The seams being broken do not exist on the legacy per-job
        # generator path; installing there would silently test nothing.
        return
    state = {"armed": True, "skip": plan.after, "locked": None}
    _INSTALLERS[plan.kind](core, plan, state)


def faulty_factory(base_factory, *plans: FaultPlan):
    """Wrap an ``accelerator_factory`` so matching SMs get faulted cores.

    Use with :class:`repro.gpu.GPU`::

        gpu = GPU(cfg, accelerator_factory=faulty_factory(
            make_rta_factory(), FaultPlan("stall", query_id=3)))
    """

    def factory(sm):
        core = base_factory(sm)
        for plan in plans:
            if plan.applies_to_sm(sm.sm_id):
                install_fault(core, plan)
        return core

    return factory


def env_faults() -> str:
    """The ``$REPRO_FAULTS`` plan string ("" when unset)."""
    return os.environ.get(FAULTS_ENV, "")


def install_env_faults(core) -> None:
    """Apply ``$REPRO_FAULTS`` plans to a freshly built core (called by
    ``RTACore.__init__`` so faults propagate into exec workers)."""
    text = env_faults()
    if not text:
        return
    for plan in parse_plans(text):
        if plan.applies_to_sm(core.sm.sm_id):
            install_fault(core, plan)


# -- serve-path fault injection ----------------------------------------------------
@dataclass
class ServeFaultPlan:
    """One serving-layer fault: what to break and how often.

    ``after`` skips that many trigger opportunities first; ``times``
    bounds how many triggers fire before the plan disarms (so a
    ``launch_fail:times=2`` provably exercises *bounded* retry: the
    third attempt succeeds).  ``times=0`` never disarms.
    """

    kind: str
    after: int = 0
    times: int = 1
    factor: float = 4.0          # slow_backend: service-time multiplier
    shard: int = 0               # shard_blackout: victim device index
    at_ms: float = 0.0           # shard_blackout: death time (virtual ms)
    slot: int = 0                # corrupt_result: victim result slot

    def __post_init__(self) -> None:
        if self.kind not in SERVE_KINDS:
            raise FaultInjectionError(
                f"unknown serve fault kind {self.kind!r}; "
                f"expected one of {SERVE_KINDS}")
        if self.after < 0 or self.times < 0:
            raise FaultInjectionError(
                f"after/times must be >= 0 in {self!r}")
        if self.factor <= 0:
            raise FaultInjectionError(
                f"slow_backend factor must be positive, got {self.factor}")
        if self.shard < 0 or self.slot < 0:
            raise FaultInjectionError(
                f"shard/slot must be >= 0 in {self!r}")


_SERVE_OPTION_CASTS = {
    "after": int, "times": int, "shard": int, "slot": int,
    "factor": float, "at_ms": float,
}


def parse_serve_plan(text: str) -> ServeFaultPlan:
    """Parse one *serve* plan (same grammar as the core plans)."""
    kind, options = _tokenize_plan(text)
    kwargs = {}
    for name, value in options.items():
        cast = _SERVE_OPTION_CASTS.get(name)
        if cast is None:
            raise FaultInjectionError(
                f"unknown serve fault option {name!r} (in {text!r})")
        try:
            kwargs[name] = cast(value)
        except ValueError:
            raise FaultInjectionError(
                f"bad value for {name!r} in {text!r}") from None
    return ServeFaultPlan(kind, **kwargs)


def parse_serve_plans(text: str) -> List[ServeFaultPlan]:
    """Serve-kind plans in ``text``; core-kind plans are skipped."""
    plans = []
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        kind, _options = _tokenize_plan(chunk)
        if kind in SERVE_KINDS:
            plans.append(parse_serve_plan(chunk))
    return plans


class _ArmedServePlan:
    """Mutable trigger state for one :class:`ServeFaultPlan`."""

    __slots__ = ("plan", "skip", "remaining")

    def __init__(self, plan: ServeFaultPlan):
        self.plan = plan
        self.skip = plan.after
        self.remaining = plan.times if plan.times > 0 else None

    def take(self) -> bool:
        """Consume one trigger opportunity; True if the fault fires."""
        if self.remaining == 0:
            return False
        if self.skip > 0:
            self.skip -= 1
            return False
        if self.remaining is not None:
            self.remaining -= 1
        return True


class ServeFaults:
    """Armed serve-path faults for one backend / loadtest instance.

    Each consumer (a :class:`~repro.serve.backends.LaunchBackend`, a
    loadtest's device pool) builds its own instance so trigger state
    never leaks between tests or platforms — mirroring how core faults
    are installed per accelerator instance, never per class.
    """

    def __init__(self, plans: Optional[List[ServeFaultPlan]] = None):
        plans = list(plans or [])
        self._armed: Dict[str, List[_ArmedServePlan]] = {}
        for plan in plans:
            self._armed.setdefault(plan.kind, []).append(
                _ArmedServePlan(plan))
        self.fired: Dict[str, int] = {}

    @classmethod
    def from_env(cls) -> "ServeFaults":
        text = env_faults()
        return cls(parse_serve_plans(text) if text else None)

    def __bool__(self) -> bool:
        return bool(self._armed)

    def _take(self, kind: str) -> Optional[ServeFaultPlan]:
        for armed in self._armed.get(kind, ()):
            if armed.take():
                self.fired[kind] = self.fired.get(kind, 0) + 1
                return armed.plan
        return None

    # -- the four seams ----------------------------------------------------
    def fail_launch(self) -> None:
        """Raise if an armed ``launch_fail`` consumes this attempt."""
        if self._take("launch_fail") is not None:
            raise BackendLaunchError(
                "injected launch failure (launch_fail fault)")

    def slow_factor(self) -> float:
        """Service-time multiplier for this launch (1.0 = healthy)."""
        plan = self._take("slow_backend")
        return plan.factor if plan is not None else 1.0

    def corrupt(self, results: Dict[int, object]) -> Optional[int]:
        """Damage one launch's results dict in place.

        Deletes the victim slot (a lost result — the conservation
        break) and garbles its neighbour when one exists.  Returns the
        victim slot, or None if no fault fired.
        """
        plan = self._take("corrupt_result")
        if plan is None or not results:
            return None
        slot = plan.slot if plan.slot in results else min(results)
        results.pop(slot, None)
        neighbour = slot + 1
        if neighbour in results:
            results[neighbour] = _CorruptResult(results[neighbour])
        return slot

    def blackouts(self, n_shards: int) -> Dict[int, float]:
        """``{device index: death time (virtual seconds)}`` for every
        armed ``shard_blackout`` that targets an existing shard.

        A blackout is a schedule, not a trigger: reading it consumes
        nothing, so every loadtest on this backend (each leg of a qps
        sweep) sees the same dead shards."""
        return {armed.plan.shard: armed.plan.at_ms / 1e3
                for armed in self._armed.get("shard_blackout", ())
                if armed.plan.shard < n_shards}


class _CorruptResult:
    """Sentinel wrapper marking a garbled result value.

    Wrapping (rather than e.g. bit-flipping an int) keeps detection
    independent of the query class's value domain: the integrity check
    rejects any result of this type, and *any* downstream consumer that
    touches one without checking trips over an unexpected type.
    """

    __slots__ = ("original",)

    def __init__(self, original):
        self.original = original

    def __repr__(self) -> str:
        return f"<corrupt:{self.original!r}>"


def is_corrupt_result(value) -> bool:
    """True if ``value`` is a fault-injected garbled result."""
    return isinstance(value, _CorruptResult)


def corrupt_cache_entry(cache, spec, payload: bytes = b"\x00corrupt") -> str:
    """Overwrite a stored result's pickle with garbage bytes.

    Returns the damaged path (as str).  The exec cache's validate-on-
    read must quarantine the entry and report a miss.
    """
    key = spec if isinstance(spec, str) else spec.key
    pkl, _meta = cache._paths(key)
    if not pkl.exists():
        raise FaultInjectionError(f"no cache entry to corrupt for {key}")
    with open(pkl, "wb") as fh:
        fh.write(payload)
    return str(pkl)
