"""Warps: bundles of thread generators executed in SIMT lockstep.

:meth:`Warp.schedule` is the one place the SIMT issue rule lives: the
lowest tag issues and its lanes regroup, a Compute group is as wide as
its widest lane, and a Load/Store group's lanes coalesce into sectors.
The SM times its macro steps; :mod:`repro.gpu.replay` caches them.

A lane may yield a tuple of Compute/Load/Store ops as one *op run*: it
issues exactly like yielding the ops one by one (``yield from``), but
the warp walks a per-lane cursor through the run instead of resuming
the generator, and checks each run object once per warp.  When every
live lane stands at the same position of the same run object, no lane
can diverge until the run ends, so the schedule emits the rest of the
run directly: each op is one full-width group whose macro step is the
op's own (a Compute's ``n``, one lane's coalesced sectors).
"""

from functools import partial
from typing import Any, Generator, Iterable, List, Optional, Sequence

from repro.errors import SimulationError
from repro.gpu.isa import OP_TYPES, AccelCall, Compute, Load, Store
from repro.memsys.coalescer import coalesce_sectors

#: Exact-type set for the hot-path validity check (set membership beats
#: an isinstance chain at ~hundreds of thousands of ops per launch).
_OP_CLASSES = frozenset(OP_TYPES)
#: What an op run may hold: an AccelCall needs its own yield, because
#: the executor sends the accelerator's result back into it.
_RUN_CLASSES = frozenset((Compute, Load, Store))


class Warp:
    """Up to ``warp_size`` thread generators plus their pending ops.

    ``threads`` may be any iterable of generators; it is drawn when the
    warp is primed, i.e. when an SM slot starts it.  A launch queues
    each warp with a lazy ``map`` of the kernel over its thread ids, so
    only resident warps hold generators and per-lane state.  Creating a
    generator runs no kernel code, so when it happens does not change
    any op or event order.
    """

    __slots__ = ("warp_id", "threads", "pending", "_sends", "_runs", "_pos",
                 "_checked")

    def __init__(self, warp_id: int, threads: Iterable[Generator]):
        self.warp_id = warp_id
        self.threads = threads

    def prime(self) -> None:
        """Create the lanes and advance every thread to its first op."""
        self.threads = threads = list(self.threads)
        n = len(threads)
        self.pending: List[Optional[Any]] = [None] * n
        self._sends = [thread.send for thread in threads]
        # Per-lane op-run cursor: the run a lane is inside (or None) and
        # the position of its pending op in it.
        self._runs: List[Optional[tuple]] = [None] * n
        self._pos = [0] * n
        # id -> run for every run checked in this warp (holding the run
        # keeps its id from being reused by another object).
        self._checked = {}
        advance = self._advance
        pending = self.pending
        for tid in range(n):
            pending[tid] = advance(tid, None)

    def _advance(self, tid: int, value: Any):
        run = self._runs[tid]
        if run is not None:
            pos = self._pos[tid] + 1
            if pos < len(run):
                self._pos[tid] = pos
                return run[pos]
            self._runs[tid] = None
        send = self._sends[tid]
        while True:
            try:
                op = send(value)
            except StopIteration:
                return None
            cls = op.__class__
            if cls in _OP_CLASSES:
                return op
            if cls is not tuple:
                if isinstance(op, OP_TYPES):
                    return op
                raise SimulationError(
                    f"thread yielded {op!r}; kernels must yield ISA "
                    "descriptors or tuples of them"
                )
            if id(op) not in self._checked:
                self._check_run(op)
            if op:
                self._runs[tid] = op
                self._pos[tid] = 0
                return op[0]
            value = None  # an empty run: resume the thread again

    def _check_run(self, run: tuple) -> None:
        for op in run:
            if op.__class__ not in _RUN_CLASSES:
                raise SimulationError(
                    f"op run holds {op!r}; a run may hold only Compute, "
                    "Load and Store ops (yield an AccelCall on its own)"
                )
        self._checked[id(run)] = run

    def min_group(self):
        """The next group to issue: ``(lowest_tag, [tid, ...])``.

        Single pass over the lanes; returns ``None`` when no thread is
        live.
        """
        best = None
        tids = None
        for tid, op in enumerate(self.pending):
            if op is None:
                continue
            tag = op.tag
            if best is None or tag < best:
                best = tag
                tids = [tid]
            elif tag == best:
                tids.append(tid)
        if best is None:
            return None
        return best, tids

    def step(self, tids: Sequence[int], values=None) -> None:
        """Advance the given threads past their current op.

        ``values[i]`` is sent into thread ``tids[i]``; None sends None
        to every thread.
        """
        advance = self._advance
        pending = self.pending
        if values is None:
            for tid in tids:
                pending[tid] = advance(tid, None)
        else:
            for i, tid in enumerate(tids):
                pending[tid] = advance(tid, values[i])

    def _in_lockstep(self, tids: List[int]) -> bool:
        """Do all of ``tids`` (every live lane) share one run cursor?"""
        runs = self._runs
        run = runs[tids[0]]
        if run is None or len(tids) != len(runs) - self.pending.count(None):
            return False
        positions = self._pos
        pos = positions[tids[0]]
        for tid in tids:
            if runs[tid] is not run or positions[tid] != pos:
                return False
        return True

    def schedule(self, sector_size: int):
        """Run the warp to exhaustion, yielding one macro step per group.

        Step layouts (what :class:`~repro.gpu.replay.WarpTrace` stores):

        * ``(0, active, n, kind, first_n)`` — a :class:`Compute` group;
          ``n`` is the widest lane (issue cost), ``first_n`` the lowest
          lane's ``n`` (what ``simt_issue`` samples).
        * ``(1, active, sectors)`` — a :class:`Load` group with its lane
          requests coalesced into a sorted sector list.
        * ``(2, active, n_sectors)`` — a :class:`Store` group (fire-and-
          forget: only the sector count matters).
        * ``(3, active, payloads, resume)`` — an :class:`AccelCall`
          group; the consumer must call ``resume(per_query)`` with one
          result per payload before asking for the next step.
        """
        self.prime()
        pending = self.pending
        while True:
            group = self.min_group()
            if group is None:
                return
            tids = group[1]
            lead = tids[0]
            active = len(tids)
            if self._runs[lead] is not None and self._in_lockstep(tids):
                run = self._runs[lead]
                for i in range(self._pos[lead], len(run)):
                    op = run[i]
                    cls = op.__class__
                    if cls is Compute:
                        yield (0, active, op.n, op.kind, op.n)
                    elif cls is Load:
                        yield (1, active, coalesce_sectors(
                            ((op.addr, op.size),), sector_size))
                    else:
                        yield (2, active, len(coalesce_sectors(
                            ((op.addr, op.size),), sector_size)))
                for tid in tids:
                    self._runs[tid] = None  # the run is done: resume
                self.step(tids)
                continue
            op = pending[lead]
            cls = op.__class__
            if cls is Compute:
                n = op.n
                if active > 1:
                    for tid in tids:
                        m = pending[tid].n
                        if m > n:
                            n = m
                yield (0, active, n, op.kind, op.n)
            elif cls is Load:
                yield (1, active, coalesce_sectors(
                    [(pending[tid].addr, pending[tid].size) for tid in tids],
                    sector_size))
            elif cls is Store:
                yield (2, active, len(coalesce_sectors(
                    [(pending[tid].addr, pending[tid].size) for tid in tids],
                    sector_size)))
            elif cls is AccelCall:
                yield (3, active, [pending[tid].payload for tid in tids],
                       partial(self.step, tids))
                continue
            else:
                # _advance validated the op, so only an exotic subclass
                # of an ISA type can land here.
                raise SimulationError(
                    f"unhandled op descriptor {op!r} (subclassing the ISA "
                    "types is not supported by the fast dispatch)"
                )
            self.step(tids)
