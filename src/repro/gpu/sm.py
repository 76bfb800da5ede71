"""Streaming Multiprocessor: issue port, LDST unit, warp scheduling.

Scheduling is greedy-then-oldest in effect: a warp that acquires the
issue port keeps it for its whole compute block (greedy), and blocked
warps re-arbitrate in FIFO order (oldest).  Warps beyond the residency
limit (Table II: 32/SM) launch in waves as slots free up.

There is one executor and one timing loop.  :meth:`Warp.schedule
<repro.gpu.warp.Warp.schedule>` applies the SIMT issue rule and yields
macro steps; :meth:`SM._run` times them.  A recorded
:class:`~repro.gpu.replay.WarpTrace` is just the cached list of a
schedule's steps, so the SM times a live warp and a trace with the same
code.  Analytic completion times are quantized to whole cycles with
:func:`~repro.sim.engine.ceil_cycles` before being yielded, so the
engine's integer clock never sees fractional waits.
"""

from collections import deque

from repro.gpu.config import GPUConfig
from repro.gpu.replay import WarpTrace
from repro.gpu.warp import Warp
from repro.memsys.hierarchy import MemoryHierarchy
from repro.sim.engine import ceil_cycles
from repro.sim.resources import Timeline


class SM:
    """One streaming multiprocessor with an optional attached accelerator."""

    def __init__(self, sim, sm_id: int, config: GPUConfig,
                 hierarchy: MemoryHierarchy, stats,
                 accelerator_factory=None):
        self.sim = sim
        self.sm_id = sm_id
        self.config = config
        self.hierarchy = hierarchy
        self.stats = stats
        self.l1 = hierarchy.make_l1(sm_id)
        self.issue_port = Timeline(f"sm{sm_id}.issue")
        self.ldst = Timeline(f"sm{sm_id}.ldst")
        # Cached tracer (repro.obs): None unless GPU.launch attached one
        # to the simulator before constructing the SMs.
        self.trace = getattr(sim, "tracer", None)
        self._unit = f"sm{sm_id}"
        self.warp_queue = deque()  # of Warp or WarpTrace
        self.accelerator = (accelerator_factory(self)
                            if accelerator_factory is not None else None)
        self._done_count = 0

    # -- launch ----------------------------------------------------------------
    def add_warp(self, warp: Warp) -> None:
        self.warp_queue.append(warp)

    def start(self) -> None:
        slots = min(self.config.max_warps_per_sm, len(self.warp_queue))
        for _ in range(slots):
            self.sim.spawn(self._slot())

    def guard_state(self) -> dict:
        """JSON-serializable snapshot for repro.guard diagnostic bundles."""
        return {
            "sm": self.sm_id,
            "warps_queued": len(self.warp_queue),
            "warps_done": self._done_count,
            "issue_next_free": self.issue_port.next_free,
            "ldst_next_free": self.ldst.next_free,
        }

    def _slot(self):
        """One residency slot: runs queued warps back to back."""
        sector_size = self.config.sector_size
        queue = self.warp_queue
        while queue:
            warp = queue.popleft()
            if warp.__class__ is WarpTrace:
                yield from self._run(warp.steps)
            else:
                yield from self._run(warp.schedule(sector_size))
            self._done_count += 1

    # -- warp execution ------------------------------------------------------
    def _run(self, steps):
        """Time one warp's macro steps (see :meth:`Warp.schedule`).

        ``steps`` is a live warp's schedule or a cached
        :class:`WarpTrace`'s list of the same steps: either way the
        resource acquisitions and statistics calls are identical.
        """
        sim = self.sim
        cfg = self.config
        stats = self.stats
        warp_size = cfg.warp_size
        issue_width = cfg.issue_width
        sector_size = cfg.sector_size
        sectors_per_cycle = cfg.ldst_sectors_per_cycle
        issue_acquire = self.issue_port.acquire
        ldst_acquire = self.ldst.acquire
        access_sectors = self.hierarchy.access_sectors
        dram_transfer = self.hierarchy.dram.transfer
        l1 = self.l1
        count_compute = stats.count_compute
        count_mem = stats.count_mem
        simt_issue = stats.simt_issue
        obs = self.trace
        unit = self._unit
        for step in steps:
            code = step[0]
            if code == 0:  # Compute group
                _, active, n, kind, first_n = step
                service = n / issue_width
                start = issue_acquire(sim.now, service)
                wait = ceil_cycles(start + service - sim.now)
                if wait > 0:
                    yield wait
                count_compute(kind, n, active, warp_size)
                simt_issue(active, warp_size, first_n)
                if obs is not None:
                    obs.emit("sm", unit, kind, start, service, active)
            elif code == 1:  # Load group
                _, active, sectors = step
                start = issue_acquire(sim.now, 1)
                service = len(sectors) / sectors_per_cycle
                ldst_start = ldst_acquire(max(sim.now, start + 1), service)
                ready = access_sectors(ldst_start + service, l1, sectors)
                count_mem(active, warp_size, len(sectors), hit_l1=False)
                if obs is not None:
                    obs.emit("sm", unit, "load", start, ready - start,
                             len(sectors))
                wait = ceil_cycles(ready - sim.now)
                if wait > 0:
                    yield wait  # in-order: block until the slowest lane's data
                simt_issue(active, warp_size, 1)
            elif code == 2:  # Store group
                _, active, n_sectors = step
                start = issue_acquire(sim.now, 1)
                ldst_acquire(max(sim.now, start + 1),
                             n_sectors / sectors_per_cycle)
                # Write-through, fire-and-forget: charge DRAM bandwidth only.
                dram_transfer(sim.now, n_sectors * sector_size)
                count_mem(active, warp_size, n_sectors, hit_l1=False)
                if obs is not None:
                    obs.emit("sm", unit, "store", start, 1.0, n_sectors)
                wait = ceil_cycles(start + 1 - sim.now)
                if wait > 0:
                    yield wait
                simt_issue(active, warp_size, 1)
            else:  # AccelCall group
                _, active, payloads, resume = step
                start = issue_acquire(sim.now, 1)
                wait = ceil_cycles(start + 1 - sim.now)
                if wait > 0:
                    yield wait
                submit_at = sim.now
                per_query = yield self.accelerator.submit(submit_at, payloads)
                stats.count_accel(active, warp_size)
                simt_issue(active, warp_size, 1)
                if obs is not None:
                    obs.emit("sm", unit, "accel_call", submit_at,
                             sim.now - submit_at, active)
                resume(per_query)
