"""Warp-trace and launch-level replay for deterministic kernels.

The software-traversal (baseline GPU) kernels are *pure* generators:
their op stream is a function of ``(tid, args)`` alone — they never use
the value sent back into a ``yield`` and never read simulator state.
So a warp's :meth:`~repro.gpu.warp.Warp.schedule` is fixed too, and a
:class:`WarpTrace` is simply that schedule's macro steps, drained once
and cached (:func:`warp_trace`).  The SM times a trace with the same
loop it uses for a live warp, so cycles and statistics are identical,
but repeat runs (parameter sweeps, figure reruns, benchmark reps) skip
the kernel body, the regrouping and the coalescing.

Kernels opt in with the :func:`value_independent` decorator; workloads
opt in by passing a persistent ``stream_cache`` dict through their
kernel-args object.  Kernels that bind a yield result (the ``AccelCall``
kernels) must never be marked: building a trace sends ``None`` into
every yield and rejects an ``AccelCall``.  Launch-level replay (below)
covers every kernel marked :func:`launch_replayable`, accelerated ones
included.
"""

import dataclasses
import pickle
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.gpu.warp import Warp
from repro.guard.config import guard_mode
from repro.guard.faults import env_faults


def value_independent(kernel: Callable) -> Callable:
    """Mark ``kernel`` as ignoring values sent into its yields."""
    kernel.value_independent = True
    return kernel


class WarpTrace:
    """The cached :meth:`~repro.gpu.warp.Warp.schedule` of one warp.

    ``steps`` holds the schedule's Compute/Load/Store macro steps
    (codes 0-2), equal steps interned to one object and a Load's
    sector list stored as a tuple; ``writes`` holds the
    ``(tid, result)`` pairs the kernel wrote, applied to each launch's
    results dict.
    """

    __slots__ = ("steps", "writes")

    def __init__(self, steps: List[tuple], writes: Tuple[tuple, ...]):
        self.steps = steps
        self.writes = writes


def warp_trace(kernel: Callable[[int, Any], Generator],
               thread_ids: Sequence[int], args: Any,
               cache: Dict[Any, Any], sector_size: int) -> WarpTrace:
    """Build (or fetch) the macro-step trace of one warp.

    Keyed on the sector size because the coalesced load/store groups
    depend on it.  A build that raises caches nothing.
    """
    key = ("__warp__", thread_ids[0], thread_ids[-1], sector_size)
    trace = cache.get(key)
    if trace is None:
        trace = cache[key] = _build_trace(kernel, thread_ids, args,
                                          sector_size)
    return trace


def _build_trace(kernel, thread_ids, args, sector_size) -> WarpTrace:
    warp = Warp(0, [kernel(tid, args) for tid in thread_ids])
    steps = []
    # A warp repeats the same few Compute groups many times: one object
    # per distinct step.  The table lives for this build only.
    interned = {}
    for step in warp.schedule(sector_size):
        code = step[0]
        if code == 3:
            raise SimulationError(
                "value-independent kernel yielded an AccelCall; only "
                "Compute/Load/Store schedules can be replayed (AccelCall "
                "kernels must not be marked value_independent)"
            )
        if code == 1:
            step = (1, step[1], tuple(step[2]))
        steps.append(interned.setdefault(step, step))
    results = args.results
    writes = tuple((tid, results[tid]) for tid in thread_ids
                   if tid in results)
    return WarpTrace(steps, writes)


# -- launch-level replay -----------------------------------------------------------
#
# The warp-trace machinery above only helps *baseline SIMT* kernels.
# Accelerated (TTA/TTA+) launches spend their time inside the batched
# driver, which the per-thread streams never see.  But on the fast
# engine a whole launch is a pure function of (kernel, thread count,
# GPU config, accelerator parameters, args content): the simulator is
# deterministic, every latency is analytic, and nothing reads wall
# clocks.  So a launch can be recorded once — final KernelStats plus
# the functional results — and replayed on every identical relaunch
# (benchmark reps, figure sweeps over the same workload object),
# skipping the simulation entirely.  Stats come back from a pickle
# blob, deserialized fresh per replay so callers can mutate them.

#: Records kept per (kernel, n_threads, config, accel) key; a workload
#: rarely relaunches more than a couple of distinct args shapes.
_LAUNCH_RECORD_CAP = 4


def launch_replayable(kernel: Callable) -> Callable:
    """Mark ``kernel`` as deterministic at launch granularity.

    A marked kernel's *entire launch* — timing and results — depends
    only on its arguments object's contents (not on values produced
    mid-simulation), so :class:`~repro.gpu.device.GPU` may serve repeat
    launches from a :class:`LaunchRecord`.  Kernels whose ops depend on
    simulator state must never be marked.
    """
    kernel.launch_replayable = True
    return kernel


class LaunchRecord:
    """One recorded launch: args identity, pickled stats, results.

    ``refs`` holds strong references to every object whose ``id()``
    appears in the identity tuple, so a dead object's id can never be
    recycled into a false match.
    """

    __slots__ = ("identity", "refs", "stats_blob", "results")

    def __init__(self, identity: tuple, refs: tuple, stats_blob: bytes,
                 results: dict):
        self.identity = identity
        self.refs = refs
        self.stats_blob = stats_blob
        self.results = results


def launch_identity(args: Any) -> Optional[Tuple[tuple, tuple]]:
    """Content identity of a kernel-args dataclass, or None if unknown.

    Scalars compare by value; sequences compare element-wise by object
    identity (workloads memoize their job/query objects, so identical
    relaunches share elements even when the list wrapper is rebuilt);
    everything else compares by object identity.  ``results`` (an
    output) and ``stream_cache`` (the cache itself) are excluded.
    """
    if not dataclasses.is_dataclass(args) or isinstance(args, type):
        return None
    ident: List[tuple] = []
    refs: List[Any] = []
    for f in sorted(dataclasses.fields(args), key=lambda f: f.name):
        if f.name in ("results", "stream_cache"):
            continue
        value = getattr(args, f.name)
        if value is None or isinstance(value, (int, float, str, bool)):
            ident.append((f.name, value))
        elif isinstance(value, (list, tuple)):
            ident.append((f.name, tuple(id(item) for item in value)))
            refs.append(tuple(value))
        else:
            ident.append((f.name, id(value)))
            refs.append(value)
    return tuple(ident), tuple(refs)


def launch_replay_enabled() -> bool:
    """May launches be served from records under the current defaults?

    Replay must be gated off whenever a launch is *not* a pure function
    of its arguments: the legacy engine (its heap scheduling is the
    oracle being differentially tested), armed fault injection, and a
    ``$REPRO_GUARD`` mode other than the default (a replayed launch
    skips the guard).  An explicit ``guard=`` argument gates replay off
    in ``GPU.launch`` itself.
    """
    from repro.sim import core_mode

    if env_faults() or guard_mode() != "on":
        return False
    return core_mode() != "legacy"


def replay_launch(cache: dict, key: tuple, args: Any):
    """Return recorded (stats, results) for ``key`` + ``args``, or None."""
    records = cache.get(key)
    if not records:
        return None
    identity = launch_identity(args)
    if identity is None:
        return None
    ident = identity[0]
    for record in records:
        if record.identity == ident:
            stats = pickle.loads(record.stats_blob)
            args.results.update(record.results)
            return stats
    return None


def record_launch(cache: dict, key: tuple, args: Any, stats: Any) -> None:
    """Store a completed launch for replay; silently skip if unpicklable."""
    identity = launch_identity(args)
    if identity is None:
        return
    try:
        blob = pickle.dumps(stats)
    except Exception:
        return
    records = cache.setdefault(key, [])
    records.append(LaunchRecord(identity[0], identity[1], blob,
                                dict(args.results)))
    if len(records) > _LAUNCH_RECORD_CAP:
        records.pop(0)
