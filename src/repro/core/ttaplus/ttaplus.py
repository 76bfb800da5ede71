"""The TTA+ backend: executes µop programs over OP units + crossbar.

Plugs into :class:`repro.rta.rta.RTACore` in place of the
fixed-function backend.  A step with ``op="uop:<name>"`` runs the named
program serially: every µop crosses the interconnect to its unit's
input port (queueing on contention), issues, and completes after the
Table I latency.  The chain's end-to-end time is the *intersection
latency* reported in Fig. 18 (bottom); per-unit busy fractions are
Fig. 18 (top).

Each program is a fixed pipeline: it is compiled once into a *stage
plan* (:func:`stage_plan`), shared by every backend, and a chain walks
that plan over its own backend's ports and unit pools.
"""

import weakref
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.core.ttaplus.dest_table import WRITEBACK_PORT, OpDestTable
from repro.core.ttaplus.interconnect import WRITEBACK_INDEX, Crossbar
from repro.core.ttaplus.opunits import (
    OP_UNIT_LATENCIES,
    UNIT_INDEX,
    OpUnitBank,
)
from repro.core.ttaplus.programs import PROGRAMS, UopProgram, program_named
from repro.core.ttaplus.uop import UNIT_TYPES
from repro.gpu.config import GPUConfig
from repro.sim.engine import ceil_cycles
from repro.sim.stats import LatencySampler

#: One stage per same-unit run of µops: ``(port, pool, n)`` — the
#: crossbar input port the payload crosses to, the OP-unit pool the run
#: issues on, and the run length.
Plan = Tuple[Tuple[int, int, int], ...]

#: Compiled plans shared by every backend, keyed by program object: a
#: program replaced with ``register_program(..., replace=True)`` is a
#: new key, and a dropped program takes its plan with it.
_PLANS: "weakref.WeakKeyDictionary[UopProgram, Plan]" = \
    weakref.WeakKeyDictionary()


def compile_plan(program: UopProgram, table: OpDestTable) -> Plan:
    """Compile ``program`` into its stage plan, routed by ``table``.

    The stages follow the table's hand-offs from the program's first
    unit to the writeback port and must spell out the program's µops.
    A missing entry raises :class:`ConfigurationError`, as the hardware
    fails on stale Config Regs.
    """
    name = program.name
    stages = []
    pc = 0
    unit = table.first_unit(name)
    while unit != WRITEBACK_PORT:
        n = 0
        nxt = unit
        while nxt == unit:  # a same-unit run stays inside the unit
            nxt = table.next_port(name, pc)
            pc += 1
            n += 1
        stages.append((UNIT_INDEX[unit], UNIT_INDEX[unit], n))
        unit = nxt
    routed = [UNIT_TYPES[pool] for _, pool, n in stages for _ in range(n)]
    if routed != [uop.unit for uop in program.uops]:
        raise ConfigurationError(
            f"OP Dest Table routes {name!r} through {routed}, not its µops"
        )
    return tuple(stages)


def stage_plan(program: UopProgram) -> Plan:
    """``program``'s stage plan, compiled on first use and then shared."""
    plan = _PLANS.get(program)
    if plan is None:
        table = OpDestTable()
        table.load_program(program.name, program)
        plan = _PLANS[program] = compile_plan(program, table)
    return plan


class _Chain:
    """In-flight state of one step's µop tests (batched driver path).

    ``pos`` walks the plan: ``pos < len(plan)`` is the next stage to
    route+issue, ``pos == len(plan)`` is the writeback hand-off,
    ``pos == len(plan) + 1`` finalizes the test (sample latency, start
    the next test or finish the chain).
    """

    __slots__ = ("plan", "sampler", "pos", "tests_left", "begin", "pending")

    def __init__(self, plan, count, sampler):
        self.plan = plan
        self.sampler = sampler
        self.pos = 0
        self.tests_left = count
        self.begin = None
        self.pending = []


class TTAPlusBackend:
    """One TTA+ instance's compute complex."""

    def __init__(self, sim, config: GPUConfig,
                 copies: Dict[str, int] = None,
                 perfect_icnt: bool = False,
                 latency_scale: float = 1.0):
        self.sim = sim
        self.config = config
        self.is_tta = True  # programmable superset
        if copies is None:
            # Table II: 4 intersection-unit sets; TTA+ replaces each set
            # with one set of OP units (Table IV compares per-set area).
            copies = {unit: config.intersection_sets
                      for unit in OP_UNIT_LATENCIES}
        self.bank = OpUnitBank(copies=copies, latency_scale=latency_scale)
        self.crossbar = Crossbar(hop_latency=config.icnt_hop_latency,
                                 perfect=perfect_icnt,
                                 ports_per_unit=config.intersection_sets)
        # ConfigI/ConfigL: the programs configured for this launch.  A
        # program registered later has no routing here.
        self.programs: Dict[str, UopProgram] = dict(PROGRAMS)
        self.test_latency: Dict[str, LatencySampler] = {}
        self.tests_run = 0
        self._bound: Dict[str, tuple] = {}  # step op -> (plan, sampler)

    def _bind(self, op: str) -> tuple:
        """``(plan, sampler)`` for step op ``op`` (memoized per op)."""
        bound = self._bound.get(op)
        if bound is None:
            name = self._program_name(op)
            sampler = self.test_latency.setdefault(name, LatencySampler())
            program = self.programs.get(name)
            if program is None:
                program_named(name)  # a name never registered: ProgramError
                raise ConfigurationError(
                    f"OP Dest Table has no entry for {name!r}; ConfigI/"
                    "ConfigL not run for this node type before the launch"
                )
            bound = self._bound[op] = (stage_plan(program), sampler)
        return bound

    # -- execution ------------------------------------------------------------------
    def execute(self, now: float, op: str, count: int):
        """Run ``count`` back-to-back tests of µop program ``op``.

        Generator for ``yield from`` inside a job process.  The chain is
        computed analytically over the shared unit/port timelines, so
        contention from concurrent traversals is reflected in the result.
        """
        plan, sampler = self._bind(op)
        sim = self.sim
        deliver = self.crossbar.deliver
        ports = self.crossbar.ports
        issue_run = self.bank.issue_run
        for _ in range(count):
            begin = sim.now
            for port, pool, n in plan:
                # One interconnect crossing per same-unit run: consecutive
                # µops on one unit execute inside it without re-crossing
                # (§III-C: "the ADDSUB unit ... executes the first two
                # operations serially, and forwards the result").  Within
                # a run the µops work on independent lanes of the payload,
                # so they pipeline at the unit's initiation interval.  The
                # yields keep resource acquisitions in real time order so
                # concurrent chains interleave as the hardware's per-unit
                # input queues do.
                arrival = deliver(sim.now, ports[port])
                if arrival > sim.now:
                    yield ceil_cycles(arrival - sim.now)
                issued = []
                last_done = issue_run(pool, n, sim.now, issued)
                if last_done > sim.now:
                    yield ceil_cycles(last_done - sim.now)
                for unit in issued:
                    unit.complete(sim.now)
            # Final writeback hand-off to the buffers / warp registers.
            writeback = deliver(sim.now, ports[WRITEBACK_INDEX])
            if writeback > sim.now:
                yield ceil_cycles(writeback - sim.now)
            sampler.sample(sim.now - begin)
            self.tests_run += 1

    # -- batched-stepping interface (fast job driver) ----------------------
    def begin_chain(self, op: str, count: int) -> _Chain:
        """Start ``count`` back-to-back tests of µop program ``op``.

        Drive the returned chain with :meth:`advance_chain`; together they
        replay :meth:`execute`'s resource acquisitions with one event per
        *stage* (route + issue a whole same-unit run) instead of one
        process resume per yield.
        """
        plan, sampler = self._bind(op)
        return _Chain(plan, count, sampler)

    def advance_chain(self, chain: _Chain, now):
        """Advance ``chain`` at time ``now``.

        Returns the absolute (possibly fractional) time of the next
        wake-up, or ``None`` once all tests have completed at ``now``.
        The first call may pass the fetch-ready float time; ops issue at
        their analytic arrival exactly as the generator path does.
        """
        pending = chain.pending
        if pending:
            for unit in pending:
                unit.complete(now)
            del pending[:]
        if chain.begin is None:
            chain.begin = now
        plan = chain.plan
        n_stages = len(plan)
        deliver = self.crossbar.deliver
        ports = self.crossbar.ports
        while True:
            pos = chain.pos
            if pos < n_stages:
                port, pool, n = plan[pos]
                chain.pos = pos + 1
                arrival = deliver(now, ports[port])
                last_done = self.bank.issue_run(pool, n, arrival, pending)
                if last_done > now:
                    return last_done
                for unit in pending:  # zero-latency edge (perfect studies)
                    unit.complete(now)
                del pending[:]
            elif pos == n_stages:
                writeback = deliver(now, ports[WRITEBACK_INDEX])
                chain.pos = pos + 1
                if writeback > now:
                    return writeback
            else:
                chain.sampler.sample(now - chain.begin)
                self.tests_run += 1
                chain.tests_left -= 1
                if chain.tests_left == 0:
                    return None
                chain.begin = now
                chain.pos = 0

    @staticmethod
    def _program_name(op: str) -> str:
        if not op.startswith("uop:"):
            raise ConfigurationError(
                f"TTA+ executes µop programs; got step op {op!r} "
                "(lower fixed-function steps with a ttaplus job builder)"
            )
        return op[len("uop:"):]

    # -- statistics --------------------------------------------------------------
    def snapshot(self, end: float) -> dict:
        out = {"uop_tests_run": self.tests_run}
        for unit_type, stats in self.bank.snapshot(end).items():
            out[f"op_{unit_type}_ops"] = stats["ops"]
            out[f"op_{unit_type}_util"] = stats["utilization"]
            out[f"op_{unit_type}_busy_cycles"] = stats["busy_cycles"]
            out[f"op_{unit_type}_occupancy_peak"] = stats["occupancy_peak"]
        for name, sampler in self.test_latency.items():
            out[f"test_{name}_latency_mean"] = sampler.mean
            out[f"test_{name}_count"] = sampler.count
        out.update(self.crossbar.snapshot(end))
        return out


def make_ttaplus_factory(copies: Dict[str, int] = None,
                         perfect_icnt: bool = False,
                         latency_scale: float = 1.0,
                         perfect_node_fetch: bool = False,
                         prefetch_depth: int = 0):
    """Factory attaching a TTA+ to an SM (use with :class:`repro.gpu.GPU`,
    which calls it for every SM that runs warps).

    ``perfect_icnt`` and ``perfect_node_fetch`` support the Fig. 17
    limit study (zero-cost interconnect / zero-latency node fetches);
    ``copies`` overrides the per-unit-type replication (Table II default:
    one per intersection set); ``prefetch_depth`` enables the treelet
    prefetcher [16].
    """
    from repro.rta.rta import RTACore

    def factory(sm):
        backend = TTAPlusBackend(sm.sim, sm.config, copies=copies,
                                 perfect_icnt=perfect_icnt,
                                 latency_scale=latency_scale)
        core = RTACore(sm, backend, prefetch_depth=prefetch_depth)
        if perfect_node_fetch:
            core.mem.fetch = lambda now, address, size: now
        return core

    # Value identity for launch-level replay (gpu/replay.py): two
    # factories built from equal parameters configure identical cores.
    factory.replay_fingerprint = (
        "ttaplus",
        tuple(sorted(copies.items())) if copies else (),
        perfect_icnt, latency_scale, perfect_node_fetch, prefetch_depth,
    )
    return factory
