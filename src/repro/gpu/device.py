"""The whole GPU: SMs + memory hierarchy + kernel launch interface."""

import math
from itertools import repeat
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.errors import ConfigurationError
from repro.gpu.config import DEFAULT_CONFIG, GPUConfig
from repro.gpu.replay import (
    launch_replay_enabled,
    record_launch,
    replay_launch,
    warp_trace,
)
from repro.gpu.sm import SM
from repro.gpu.warp import Warp
from repro.guard import Guard
from repro.memsys.hierarchy import MemoryHierarchy
from repro.obs import EMPTY_METRICS, TimeSeries, build_metrics
from repro.sim import make_simulator
from repro.sim.stats import Counter

KernelFn = Callable[[int, Any], Generator]


class KernelStats:
    """Everything a kernel launch produces besides functional results.

    * ``warp_instructions`` — issued warp-level instructions by class
      ("alu", "control", "sfu", "mem", "tta"); Fig. 20's breakdown.
    * ``simt_efficiency`` — mean active-lane fraction per issued
      instruction; Fig. 1's left metric.
    * ``dram_utilization`` — DRAM busy fraction; Fig. 1/13's metric.
    """

    def __init__(self) -> None:
        self.cycles = 0.0
        self.warp_instructions = Counter()
        self.thread_instructions = Counter()
        self._simt_issues = 0
        self._simt_active = 0.0
        self.mem_sectors = 0
        self.accel_stats: Dict[str, Any] = {}
        self.memory: Dict[str, float] = {}
        self.l1_hit_rate = 0.0
        self.notes: Dict[str, Any] = {}
        #: repro.obs metrics snapshot, filled after the launch; the
        #: shared empty placeholder until then.
        self.metrics = EMPTY_METRICS

    # -- recording hooks used by SM -------------------------------------------
    def count_compute(self, kind: str, n: int, active: int, warp_size: int):
        self.warp_instructions.add(kind, n)
        self.thread_instructions.add(kind, n * active)

    def count_mem(self, active: int, warp_size: int, sectors: int,
                  hit_l1: bool):
        self.warp_instructions.add("mem", 1)
        self.thread_instructions.add("mem", active)
        self.mem_sectors += sectors

    def count_accel(self, active: int, warp_size: int):
        self.warp_instructions.add("tta", 1)
        self.thread_instructions.add("tta", active)

    def simt_issue(self, active: int, warp_size: int, n: int):
        self._simt_issues += n
        self._simt_active += (active / warp_size) * n

    # -- derived metrics ---------------------------------------------------------
    @property
    def simt_efficiency(self) -> float:
        if self._simt_issues == 0:
            return 1.0
        return self._simt_active / self._simt_issues

    @property
    def total_warp_instructions(self) -> float:
        return self.warp_instructions.total()

    @property
    def dram_utilization(self) -> float:
        return self.memory.get("dram_utilization", 0.0)

    def instruction_breakdown(self) -> Dict[str, float]:
        return self.warp_instructions.as_dict()

    def __repr__(self) -> str:
        return (
            f"KernelStats(cycles={self.cycles:.0f}, "
            f"insts={self.total_warp_instructions:.0f}, "
            f"simt_eff={self.simt_efficiency:.2f}, "
            f"dram_util={self.dram_utilization:.2f})"
        )


class GPU:
    """A fresh simulated GPU per launch (cold caches, zeroed stats).

    ``accelerator_factory(sm) -> accelerator`` attaches an RTA/TTA/TTA+
    model to every SM that runs warps in a launch; kernels reach it by
    yielding :class:`~repro.gpu.isa.AccelCall` ops.
    """

    def __init__(self, config: GPUConfig = DEFAULT_CONFIG,
                 accelerator_factory=None):
        self.config = config
        self.accelerator_factory = accelerator_factory

    def launch(self, kernel: KernelFn, n_threads: int, args: Any = None,
               max_events: Optional[int] = None,
               guard=None, tracer=None) -> KernelStats:
        """Run ``kernel`` over ``n_threads`` threads to completion.

        ``guard`` overrides the ``$REPRO_GUARD``-derived watchdog for
        this launch: pass a :class:`repro.guard.Guard`, a
        :class:`repro.guard.GuardConfig`, or leave None to build one
        from the environment (``REPRO_GUARD=off`` disables it).
        ``tracer`` (a :class:`repro.obs.Tracer`) records this launch's
        cycle-domain events; without one the launch emits none.
        """
        if n_threads <= 0:
            raise ConfigurationError("kernel needs at least one thread")
        cfg = self.config

        # Launch-level replay (gpu/replay.py): a marked kernel relaunched
        # over identical args on the fast engine is served straight from
        # its recording — same stats, same results, no simulation.  Only
        # engaged when nothing can observe the run from outside (no
        # tracer, no guard/fault overrides, no event cap).
        launch_cache = self._launch_cache(kernel, args, tracer, max_events,
                                          guard)
        launch_key = None
        if launch_cache is not None:
            launch_key = ("__launch__",
                          getattr(kernel, "__name__", "kernel"),
                          n_threads, cfg, self._accel_fingerprint())
            if launch_key[-1] is None:
                launch_cache = launch_key = None
            else:
                stats = replay_launch(launch_cache, launch_key, args)
                if stats is not None:
                    return stats

        sim = make_simulator()  # fast core, or $REPRO_SIM_CORE=legacy
        # The tracer must be on the simulator *before* the hierarchy,
        # SMs, and accelerators are built: they cache it at construction.
        sim.tracer = tracer
        if tracer is not None:
            tracer.begin_launch(getattr(kernel, "__name__", "kernel"))
        guard = Guard.resolve(guard)
        hierarchy = MemoryHierarchy(sim, cfg)
        if tracer is not None:
            # First-class DRAM bandwidth series (Fig. 13's substrate).
            hierarchy.dram.series = TimeSeries()
        stats = KernelStats()
        # Warps are dealt round-robin from SM 0, so exactly the SMs
        # i < n_warps get work; only they get an accelerator.
        n_warps = math.ceil(n_threads / cfg.warp_size)
        factory = self.accelerator_factory
        sms: List[SM] = [
            SM(sim, i, cfg, hierarchy, stats,
               factory if i < n_warps else None)
            for i in range(cfg.n_sms)
        ]

        # Value-independent kernels over a workload that carries a stream
        # cache run from cached warp traces (see gpu/replay.py): a trace
        # is the list of steps Warp.schedule yields, timed by the same
        # SM loop, so every cycle and statistic matches a live warp.
        stream_cache = (getattr(args, "stream_cache", None)
                        if getattr(kernel, "value_independent", False)
                        else None)
        for warp_id in range(n_warps):
            first = warp_id * cfg.warp_size
            thread_ids = range(first, min(first + cfg.warp_size, n_threads))
            if stream_cache is not None:
                trace = warp_trace(kernel, thread_ids, args, stream_cache,
                                   cfg.sector_size)
                for tid, value in trace.writes:
                    args.results[tid] = value
                sms[warp_id % cfg.n_sms].add_warp(trace)
            else:
                # Generators are created when an SM slot starts the warp.
                threads = map(kernel, thread_ids, repeat(args))
                sms[warp_id % cfg.n_sms].add_warp(Warp(warp_id, threads))

        if guard is not None:
            guard.attach(sim, sms=sms, hierarchy=hierarchy, stats=stats,
                         n_warps=n_warps)
        for sm in sms:
            sm.start()
        sim.run(max_events=max_events)
        if guard is not None:
            guard.finalize()

        stats.cycles = sim.now
        stats.memory = hierarchy.stats(sim.now)
        l1_acc = sum(sm.l1.accesses for sm in sms)
        l1_hits = sum(sm.l1.hits for sm in sms)
        stats.l1_hit_rate = l1_hits / l1_acc if l1_acc else 0.0
        accels = [sm.accelerator for sm in sms if sm.accelerator is not None]
        if accels:
            stats.accel_stats = self._merge_accel_stats(accels, sim.now)
        stats.notes["n_threads"] = n_threads
        stats.notes["n_warps"] = n_warps
        stats.metrics = build_metrics(stats, sms, hierarchy, sim.now, tracer)
        if tracer is not None:
            tracer.end_launch(sim.now)
        if launch_key is not None:
            record_launch(launch_cache, launch_key, args, stats)
        return stats

    def _launch_cache(self, kernel, args, tracer, max_events, guard):
        """The workload's cache dict iff this launch may be replayed."""
        if not getattr(kernel, "launch_replayable", False):
            return None
        if args is None or getattr(args, "stream_cache", None) is None:
            return None
        if tracer is not None or max_events is not None or guard is not None:
            return None
        if not launch_replay_enabled():
            return None
        return args.stream_cache

    def _accel_fingerprint(self):
        """Value identity of the accelerator configuration, or None.

        A factory without a ``replay_fingerprint`` (ad-hoc test
        factories, monkeypatched cores) cannot prove two launches build
        the same accelerator, so such launches are never replayed.
        """
        factory = self.accelerator_factory
        if factory is None:
            return ("simt",)
        return getattr(factory, "replay_fingerprint", None)

    @staticmethod
    def _merge_accel_stats(accels, end: float) -> Dict[str, Any]:
        """Sum the accelerators' snapshot scalars; rate-like keys
        (``*_avg``, ``*_util``, ``*_mean``) are means over the
        accelerators that report them, all of which ran warps."""
        merged: Dict[str, Any] = {}
        contributors: Dict[str, int] = {}
        for accel in accels:
            for key, value in accel.snapshot(end).items():
                if isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0.0) + value
                    contributors[key] = contributors.get(key, 0) + 1
        for key in merged:
            if key.endswith(("_avg", "_util", "_mean")):
                merged[key] /= contributors[key]
        return merged
