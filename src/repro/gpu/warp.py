"""Warps: bundles of thread generators executed in SIMT lockstep.

:meth:`Warp.schedule` is the one place the SIMT issue rule lives: the
lowest tag issues and its lanes regroup, a Compute group is as wide as
its widest lane, and a Load/Store group's lanes coalesce into sectors.
The SM times its macro steps; :mod:`repro.gpu.replay` caches them.
"""

from functools import partial
from typing import Any, Generator, List, Optional, Sequence

from repro.errors import SimulationError
from repro.gpu.isa import OP_TYPES, AccelCall, Compute, Load, Store
from repro.memsys.coalescer import coalesce_sectors

#: Exact-type set for the hot-path validity check (set membership beats
#: an isinstance chain at ~hundreds of thousands of ops per launch).
_OP_CLASSES = frozenset(OP_TYPES)


class Warp:
    """Up to ``warp_size`` thread generators plus their pending ops."""

    __slots__ = ("warp_id", "threads", "pending", "_sends")

    def __init__(self, warp_id: int, threads: Sequence[Generator]):
        self.warp_id = warp_id
        self.threads: List[Generator] = list(threads)
        self.pending: List[Optional[Any]] = [None] * len(self.threads)
        self._sends = [thread.send for thread in self.threads]

    def prime(self) -> None:
        """Advance every thread to its first op."""
        advance = self._advance
        pending = self.pending
        for tid in range(len(self.threads)):
            pending[tid] = advance(tid, None)

    def _advance(self, tid: int, value: Any):
        try:
            op = self._sends[tid](value)
        except StopIteration:
            return None
        if op.__class__ not in _OP_CLASSES and not isinstance(op, OP_TYPES):
            raise SimulationError(
                f"thread yielded {op!r}; kernels must yield ISA descriptors"
            )
        return op

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
            op = pending[tids[0]]
            active = len(tids)
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
