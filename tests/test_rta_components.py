"""Direct unit tests for RTA sub-components and the warp executor."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.gpu.config import GPUConfig
from repro.gpu.isa import AccelCall, Compute, Load, Store
from repro.gpu.warp import Warp
from repro.memsys.hierarchy import MemoryHierarchy
from repro.rta.mem_scheduler import RTAMemScheduler
from repro.rta.warp_buffer import WarpBuffer
from repro.sim import Simulator


class TestWarp:
    def make(self, gens):
        warp = Warp(0, gens)
        warp.prime()
        return warp

    def test_min_group_groups_by_tag(self):
        def thread(tag):
            yield Compute(1, tag)

        warp = self.make([thread(5), thread(3), thread(5), thread(3)])
        assert warp.min_group() == (3, [1, 3])
        steps = list(Warp(0, [thread(5), thread(3), thread(5),
                              thread(3)]).schedule(32))
        assert [step[1] for step in steps] == [2, 2]

    def test_step_advances_only_given_threads(self):
        def thread():
            yield Compute(1, 1)
            yield Compute(1, 2)

        warp = self.make([thread(), thread()])
        warp.step([0])
        assert warp.min_group() == (1, [1])
        warp.step([1])
        assert warp.min_group() == (2, [0, 1])

    def test_exhaustion(self):
        def thread():
            yield Compute(1, 1)

        warp = self.make([thread()])
        assert warp.min_group() == (1, [0])
        warp.step([0])
        assert warp.min_group() is None
        assert list(Warp(0, [thread()]).schedule(32)) == \
            [(0, 1, 1, "alu", 1)]

    def test_schedule_macro_steps(self):
        def thread(lane):
            yield Compute(1 + lane, 1, "control")
            yield Load(0x1000 + 4 * lane, 4, 2)
            yield Store(0x2000 + 64 * lane, 4, 3)
            value = yield AccelCall(lane, 4)
            yield Compute(value, 5)

        steps = Warp(0, [thread(0), thread(1)]).schedule(32)
        assert next(steps) == (0, 2, 2, "control", 1)
        assert next(steps) == (1, 2, [0x1000])
        assert next(steps) == (2, 2, 2)
        code, active, payloads, resume = next(steps)
        assert (code, active, payloads) == (3, 2, [0, 1])
        resume([7, 9])
        assert next(steps) == (0, 2, 9, "alu", 7)
        assert next(steps, None) is None

    def test_bad_yield_rejected(self):
        def thread():
            yield "junk"

        warp = Warp(0, [thread()])
        with pytest.raises(SimulationError):
            warp.prime()
        with pytest.raises(SimulationError):
            next(Warp(0, [thread()]).schedule(32))


class TestWarpBuffer:
    def test_capacity_and_waiters(self):
        sim = Simulator()
        buffer = WarpBuffer(sim, warps=1, warp_size=2)  # 2 slots
        order = []

        def holder(tag, hold):
            yield from buffer.acquire()
            order.append(("in", tag, sim.now))
            yield hold
            buffer.release()

        for tag, hold in (("a", 10), ("b", 10), ("c", 5)):
            sim.spawn(holder(tag, hold))
        sim.run()
        # Two admitted at t=0; "c" waits for the first release at t=10.
        assert order[0][2] == 0 and order[1][2] == 0
        assert order[2] == ("in", "c", 10)
        assert buffer.occupancy.peak == 2

    def test_zero_warps_rejected(self):
        with pytest.raises(ConfigurationError):
            WarpBuffer(Simulator(), warps=0)

    def test_access_accounting(self):
        buffer = WarpBuffer(Simulator(), warps=1)
        buffer.record_access(reads=3, writes=2)
        snap = buffer.snapshot(end=100)
        assert snap["warp_buffer_reads"] == 3
        assert snap["warp_buffer_writes"] == 2


class TestRTAMemScheduler:
    def make(self, reqs_per_cycle=1.0):
        sim = Simulator()
        cfg = GPUConfig()
        hierarchy = MemoryHierarchy(sim, cfg)
        l1 = hierarchy.make_l1(0)
        return RTAMemScheduler(sim, hierarchy, l1, reqs_per_cycle)

    def test_issue_rate_one_per_cycle(self):
        sched = self.make()
        t1 = sched.fetch(0, 0x1000, 64)
        t2 = sched.fetch(0, 0x2000, 64)
        # Second fetch issues one cycle later; both pay full latency.
        assert t2 >= t1 + 1 - 1e-9

    def test_duplicate_inflight_merges(self):
        sched = self.make()
        t1 = sched.fetch(0, 0x1000, 64)
        t2 = sched.fetch(1, 0x1000, 64)
        assert t2 == t1
        assert sched.coalesced == 1
        assert sched.fetches == 1

    def test_refetch_after_completion_hits_cache(self):
        sched = self.make()
        t1 = sched.fetch(0, 0x1000, 64)
        t2 = sched.fetch(t1 + 1, 0x1000, 64)
        # The line is now in L1: far faster than the first round trip.
        assert (t2 - (t1 + 1)) < (t1 - 0) / 2

    def test_faster_scheduler_config(self):
        slow = self.make(reqs_per_cycle=0.5)
        t1 = slow.fetch(0, 0x1000, 64)
        t2 = slow.fetch(0, 0x2000, 64)
        assert t2 >= t1 + 2 - 1e-9  # one request per two cycles

    def test_snapshot_keys(self):
        sched = self.make()
        sched.fetch(0, 0x1000, 64)
        snap = sched.snapshot(end=1000)
        assert snap["node_fetches"] == 1
        assert 0 <= snap["memsched_util"] <= 1
