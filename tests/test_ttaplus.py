"""Tests for the TTA+ modular design: programs, crossbar, backend."""

import pytest

from repro.core.ttaplus import (
    OP_UNIT_LATENCIES,
    OpUnitBank,
    PROGRAMS,
    TTAPlusBackend,
    UopProgram,
    make_ttaplus_factory,
    program_named,
)
from repro.core.ttaplus import ttaplus as ttaplus_module
from repro.core.ttaplus.dest_table import OpDestTable
from repro.core.ttaplus.interconnect import Crossbar
from repro.core.ttaplus.opunits import UNIT_INDEX
from repro.core.ttaplus.programs import register_program
from repro.core.ttaplus.ttaplus import compile_plan, stage_plan
from repro.core.ttaplus.uop import UNIT_TYPES, Uop
from repro.errors import ConfigurationError, ProgramError
from repro.gpu import GPU, AccelCall, GPUConfig
from repro.harness.paper import PAPER_TABLE1, PAPER_TABLE3
from repro.rta import Step, TraversalJob
from repro.rta.rta import RTACore
from repro.sim import Simulator

CFG = GPUConfig(n_sms=1)


class TestPrograms:
    @pytest.mark.parametrize("name", sorted(PAPER_TABLE3))
    def test_table3_uop_counts(self, name):
        total, histogram = PAPER_TABLE3[name]
        program = program_named(name)
        assert len(program) == total
        assert program.unit_counts() == histogram

    def test_unknown_program(self):
        with pytest.raises(ProgramError):
            program_named("warp_drive")

    def test_empty_program_rejected(self):
        with pytest.raises(ProgramError):
            UopProgram("empty", [])

    def test_bad_unit_rejected(self):
        with pytest.raises(ProgramError):
            UopProgram("bad", [Uop("fma")])

    def test_table1_latencies(self):
        assert OP_UNIT_LATENCIES == PAPER_TABLE1
        assert set(OP_UNIT_LATENCIES) == set(UNIT_TYPES)


class TestOpUnitBank:
    def test_one_copy_default(self):
        bank = OpUnitBank()
        for unit_type in UNIT_TYPES:
            assert len(bank.units[unit_type]) == 1

    def test_structural_hazard_serializes(self):
        bank = OpUnitBank()
        _, s1, d1 = bank.issue("sqrt", 0)
        _, s2, d2 = bank.issue("sqrt", 0)
        assert s2 == s1 + 1  # II=1 pipelined
        assert d2 == d1 + 1

    def test_extra_copies_parallelize(self):
        bank = OpUnitBank(copies={"sqrt": 2})
        _, s1, _ = bank.issue("sqrt", 0)
        _, s2, _ = bank.issue("sqrt", 0)
        assert s1 == s2 == 0

    def test_bad_copies_rejected(self):
        with pytest.raises(ConfigurationError):
            OpUnitBank(copies={"mul": 0})

    def test_unknown_unit(self):
        with pytest.raises(ProgramError):
            OpUnitBank().issue("alien", 0)


class TestCrossbar:
    def test_hop_latency_applied(self):
        xbar = Crossbar(hop_latency=2)
        assert xbar.route(0, "mul") == 3  # 1 cycle port + 2 hop

    def test_port_contention_queues(self):
        xbar = Crossbar(hop_latency=0)
        t1 = xbar.route(0, "mul")
        t2 = xbar.route(0, "mul")
        assert t2 == t1 + 1

    def test_different_ports_parallel(self):
        xbar = Crossbar(hop_latency=0)
        t1 = xbar.route(0, "mul")
        t2 = xbar.route(0, "dot")
        assert t1 == t2

    def test_perfect_mode_is_free(self):
        xbar = Crossbar(perfect=True)
        assert xbar.route(0, "mul") == 0
        assert xbar.route(0, "mul") == 0

    def test_unknown_port(self):
        with pytest.raises(ConfigurationError):
            Crossbar().route(0, "alien")

    def test_stats(self):
        xbar = Crossbar()
        xbar.route(0, "mul")
        snap = xbar.snapshot(100)
        assert snap["icnt_transfers"] == 1
        assert snap["icnt_bytes"] == 120


class TestDestTable:
    def test_routing_follows_program(self):
        table = OpDestTable()
        table.load_program("raybox", program_named("raybox"))
        prog = program_named("raybox")
        assert table.first_unit("raybox") == prog.uops[0].unit
        for pc in range(len(prog) - 1):
            assert table.next_port("raybox", pc) == prog.uops[pc + 1].unit
        assert table.next_port("raybox", len(prog) - 1) == "writeback"

    def test_unconfigured_node_type(self):
        table = OpDestTable()
        with pytest.raises(ConfigurationError):
            table.first_unit("mystery")
        with pytest.raises(ConfigurationError):
            table.next_port("mystery", 0)


class TestBackend:
    def run_steps(self, steps, result="ok", n_jobs=1, **factory_kw):
        jobs = [TraversalJob(i, steps, result) for i in range(n_jobs)]
        out = {}

        def kernel(tid, args):
            r = yield AccelCall(jobs[tid], tag=1)
            args[tid] = r

        gpu = GPU(CFG, accelerator_factory=make_ttaplus_factory(**factory_kw))
        stats = gpu.launch(kernel, n_jobs, args=out)
        return stats, out

    def test_runs_raybox_program(self):
        stats, out = self.run_steps([Step(0x1000, 64, "uop:raybox")])
        assert out[0] == "ok"
        acc = stats.accel_stats
        assert acc["uop_tests_run"] == 1
        assert acc["op_mul_ops"] == 6
        assert acc["op_rcp_ops"] == 3

    def test_raybox_latency_multiples_of_fixed_function(self):
        # Fig. 18: the µop Ray-Box costs several times the 13-cycle
        # fixed-function unit (the paper measures ~10x under load; an
        # unloaded chain with same-unit run forwarding lands lower).
        stats, _ = self.run_steps([Step(0x1000, 64, "uop:raybox")])
        latency = stats.accel_stats["test_raybox_latency_mean"]
        assert 3 * 13 <= latency <= 20 * 13

    def test_raybox_latency_grows_under_load(self):
        one, _ = self.run_steps([Step(0x1000, 64, "uop:raybox")] * 4,
                                n_jobs=1)
        many, _ = self.run_steps([Step(0x1000, 64, "uop:raybox")] * 4,
                                 n_jobs=128)
        assert many.accel_stats["test_raybox_latency_mean"] > \
            one.accel_stats["test_raybox_latency_mean"]

    def test_short_program_much_faster(self):
        stats, _ = self.run_steps([Step(0x1000, 64, "uop:btree_leaf")])
        assert stats.accel_stats["test_btree_leaf_latency_mean"] < \
            stats.accel_stats.get("test_raybox_latency_mean", 1e9)

    def test_fixed_function_step_rejected(self):
        with pytest.raises(ConfigurationError):
            self.run_steps([Step(0x1000, 64, "box")])

    def test_perfect_icnt_reduces_latency(self):
        base, _ = self.run_steps([Step(0x1000, 64, "uop:raybox")])
        fast, _ = self.run_steps([Step(0x1000, 64, "uop:raybox")],
                                 perfect_icnt=True)
        assert fast.accel_stats["test_raybox_latency_mean"] < \
            base.accel_stats["test_raybox_latency_mean"]

    def test_perfect_node_fetch_shortens_run(self):
        steps = [Step(0x1000 + i * 64, 64, "uop:raybox") for i in range(8)]
        base, _ = self.run_steps(steps, n_jobs=32)
        fast, _ = self.run_steps(steps, n_jobs=32, perfect_node_fetch=True)
        assert fast.cycles < base.cycles

    def test_unit_contention_across_jobs(self):
        steps = [Step(0x1000, 64, "uop:nbody_leaf")]
        one, _ = self.run_steps(steps, n_jobs=1)
        many, _ = self.run_steps(steps, n_jobs=64)
        # One SQRT unit: 64 concurrent tests queue on it.
        assert many.accel_stats["test_nbody_leaf_latency_mean"] > \
            one.accel_stats["test_nbody_leaf_latency_mean"]

    def test_count_chains_tests(self):
        stats, _ = self.run_steps([Step(0x1000, 64, "uop:rtnn_leaf",
                                        count=4)])
        assert stats.accel_stats["uop_tests_run"] == 4

    def test_snapshot_reports_unit_utilization(self):
        stats, _ = self.run_steps([Step(0x1000, 64, "uop:raytri")])
        acc = stats.accel_stats
        assert acc["op_cross_ops"] == 2
        assert 0 <= acc["op_cross_util"] <= 1

    def test_shader_step_still_supported(self):
        steps = [Step(0x1000, 64, "uop:raybox"),
                 Step(0x1040, 64, "shader", count=1, shader_insts=30)]
        stats, _ = self.run_steps(steps)
        assert stats.accel_stats["shader_bounces"] == 1


class TestBackendDirect:
    @staticmethod
    def _run_chain(backend, op, count=1):
        sim = backend.sim
        elapsed = {}

        def proc():
            start = sim.now
            yield from backend.execute(sim.now, op, count)
            elapsed["t"] = sim.now - start

        sim.spawn(proc())
        sim.run()
        return elapsed["t"]

    def test_execute_is_serial_chain(self):
        backend = TTAPlusBackend(Simulator(), CFG)
        total = self._run_chain(backend, "uop:nbody_inner")
        # SUB(4) + DOT(5) + CMP(1) + 4 crossbar hand-offs >= 20 cycles.
        assert total >= 20

    def test_latency_scale(self):
        slow_backend = TTAPlusBackend(Simulator(), CFG, latency_scale=10.0)
        fast_backend = TTAPlusBackend(Simulator(), CFG, latency_scale=1.0)
        slow = self._run_chain(slow_backend, "uop:nbody_inner")
        fast = self._run_chain(fast_backend, "uop:nbody_inner")
        assert slow > fast


class TestStagePlans:
    """Compiled stage plans and lazily built OP-unit pools."""

    @staticmethod
    def _launch(op, eager=False, n_jobs=24):
        """One launch of ``n_jobs`` 3-step jobs; (stats, [backend])."""
        backends = []

        def factory(sm):
            backend = TTAPlusBackend(sm.sim, sm.config)
            if eager:
                backend.bank.units  # build every pool up front
            backends.append(backend)
            return RTACore(sm, backend)

        steps = [Step(0x1000 + 64 * i, 64, op, count=1 + i % 2)
                 for i in range(3)]
        jobs = [TraversalJob(q, steps, q) for q in range(n_jobs)]

        def kernel(tid, args):
            args[tid] = yield AccelCall(jobs[tid], tag=1)

        stats = GPU(CFG, accelerator_factory=factory).launch(
            kernel, n_jobs, args={})
        return stats, backends

    @staticmethod
    def _typed(snapshot):
        return {key: (type(value), value) for key, value in snapshot.items()}

    @pytest.mark.parametrize("name", sorted(PAPER_TABLE3))
    def test_snapshot_matches_eagerly_built_bank(self, name):
        lazy, lazy_backends = self._launch(f"uop:{name}")
        eager, eager_backends = self._launch(f"uop:{name}", eager=True)
        assert lazy.cycles == eager.cycles
        (lazy_backend,), (eager_backend,) = lazy_backends, eager_backends
        used = {uop.unit for uop in program_named(name).uops}
        built = {unit for unit, index in UNIT_INDEX.items()
                 if lazy_backend.bank.pools[index] is not None}
        assert built == used
        end = lazy.cycles
        assert self._typed(lazy_backend.snapshot(end)) == \
            self._typed(eager_backend.snapshot(end))
        assert list(lazy_backend.snapshot(end)) == \
            list(eager_backend.snapshot(end))
        assert lazy.accel_stats == eager.accel_stats

    def test_plan_follows_program_runs(self):
        program = program_named("raybox")
        plan = stage_plan(program)
        assert plan is stage_plan(program)  # compiled once, shared
        assert all(port == pool for port, pool, _ in plan)
        assert all(a[1] != b[1] for a, b in zip(plan, plan[1:]))
        assert [UNIT_TYPES[pool] for _, pool, n in plan for _ in range(n)] \
            == [uop.unit for uop in program.uops]

    def test_replaced_program_is_used_by_next_backend(self):
        register_program(UopProgram("plan_probe", [Uop("mul")]))
        try:
            first, _ = self._launch("uop:plan_probe", n_jobs=4)
            old_plan = stage_plan(program_named("plan_probe"))
            register_program(UopProgram("plan_probe",
                                        [Uop("sqrt"), Uop("sqrt")]),
                             replace=True)
            second, _ = self._launch("uop:plan_probe", n_jobs=4)
            assert stage_plan(program_named("plan_probe")) != old_plan
        finally:
            PROGRAMS.pop("plan_probe", None)
        tests = first.accel_stats["uop_tests_run"]
        assert second.accel_stats["uop_tests_run"] == tests
        assert first.accel_stats["op_mul_ops"] == tests
        assert first.accel_stats["op_sqrt_ops"] == 0
        assert second.accel_stats["op_mul_ops"] == 0
        assert second.accel_stats["op_sqrt_ops"] == 2 * tests
        assert second.accel_stats["test_plan_probe_latency_mean"] > \
            first.accel_stats["test_plan_probe_latency_mean"]

    def test_missing_dest_table_entry_raises(self):
        program = program_named("raybox")
        table = OpDestTable()
        table.load_program("raybox", program)
        assert compile_plan(program, table) == stage_plan(program)
        table.load_program("raybox", program_named("btree_leaf"))
        with pytest.raises(ConfigurationError, match="not its µops"):
            compile_plan(program, table)  # stale routing from ConfigI
        table.load_program("raybox", program)
        del table._entries[("raybox", 7)]
        with pytest.raises(ConfigurationError, match="pc=7"):
            compile_plan(program, table)

    def test_program_registered_after_launch_setup_raises(self):
        backend = TTAPlusBackend(Simulator(), CFG)
        register_program(UopProgram("late_probe", [Uop("mul")]))
        try:
            with pytest.raises(ConfigurationError, match="late_probe"):
                backend.begin_chain("uop:late_probe", 1)
        finally:
            PROGRAMS.pop("late_probe", None)
        with pytest.raises(ProgramError):
            backend.begin_chain("uop:never_registered", 1)

    def test_launch_raising_mid_chain_leaves_plans_unchanged(self,
                                                            monkeypatch):
        before, _ = self._launch("uop:raybox")
        plans = dict(ttaplus_module._PLANS.items())
        assert program_named("raybox") in plans
        issue_run = ttaplus_module.OpUnitBank.issue_run
        calls = [0]

        def failing(self, *args):
            calls[0] += 1
            if calls[0] == 40:
                raise RuntimeError("injected mid-chain failure")
            return issue_run(self, *args)

        monkeypatch.setattr(ttaplus_module.OpUnitBank, "issue_run", failing)
        with pytest.raises(RuntimeError, match="mid-chain"):
            self._launch("uop:raybox")
        monkeypatch.undo()
        after = dict(ttaplus_module._PLANS.items())
        assert after.keys() == plans.keys()
        assert all(after[key] is plans[key] for key in plans)
        again, _ = self._launch("uop:raybox")
        assert again.cycles == before.cycles
        assert again.accel_stats == before.accel_stats
