"""Unit tests for the SIMT GPU model: divergence, timing, statistics."""

import pytest

from repro.core.ttaplus import make_ttaplus_factory
from repro.errors import ConfigurationError
from repro.gpu import GPU, AccelCall, Compute, GPUConfig, Load
from repro.gpu.isa import Store
from repro.harness.runner import scaled_config_for
from repro.kernels.btree_search import btree_accel_kernel
from repro.rta.rta import make_rta_factory
from repro.workloads import make_btree_workload

CFG = GPUConfig(n_sms=1, max_warps_per_sm=4)


def test_empty_launch_rejected():
    with pytest.raises(ConfigurationError):
        GPU(CFG).launch(lambda tid, args: iter(()), 0)


class TestComputeTiming:
    def test_single_warp_compute_cycles(self):
        def kernel(tid, args):
            yield Compute(10, tag=0)

        stats = GPU(CFG).launch(kernel, 32)
        assert stats.cycles == pytest.approx(10)
        assert stats.warp_instructions.get("alu") == 10
        assert stats.simt_efficiency == pytest.approx(1.0)

    def test_two_warps_share_issue_port(self):
        def kernel(tid, args):
            yield Compute(10, tag=0)

        stats = GPU(CFG).launch(kernel, 64)
        assert stats.cycles == pytest.approx(20)

    def test_warps_beyond_residency_run_in_waves(self):
        cfg = CFG.with_overrides(max_warps_per_sm=1)

        def kernel(tid, args):
            yield Compute(10, tag=0)

        stats = GPU(cfg).launch(kernel, 64)
        assert stats.cycles == pytest.approx(20)
        assert stats.notes["n_warps"] == 2

    def test_instruction_kinds_tracked(self):
        def kernel(tid, args):
            yield Compute(4, tag=0, kind="alu")
            yield Compute(2, tag=1, kind="control")
            yield Compute(1, tag=2, kind="sfu")

        stats = GPU(CFG).launch(kernel, 32)
        br = stats.instruction_breakdown()
        assert br == {"alu": 4, "control": 2, "sfu": 1}


class TestDivergence:
    def test_branch_divergence_halves_efficiency(self):
        def kernel(tid, args):
            # Half the warp takes tag 1, half takes tag 2: serialized.
            if tid % 2 == 0:
                yield Compute(10, tag=1)
            else:
                yield Compute(10, tag=2)

        stats = GPU(CFG).launch(kernel, 32)
        assert stats.cycles == pytest.approx(20)
        assert stats.simt_efficiency == pytest.approx(0.5)

    def test_reconvergence_after_branch(self):
        def kernel(tid, args):
            if tid % 2 == 0:
                yield Compute(5, tag=1)
            else:
                yield Compute(5, tag=2)
            yield Compute(10, tag=3)  # all threads reconverge here

        stats = GPU(CFG).launch(kernel, 32)
        # 5 + 5 serialized, then 10 converged.
        assert stats.cycles == pytest.approx(20)
        eff = stats.simt_efficiency
        assert 0.7 < eff < 0.8  # (0.5*10 + 1.0*10)/20 = 0.75

    def test_early_exit_reduces_efficiency(self):
        def kernel(tid, args):
            iters = 1 if tid < 16 else 4
            for _ in range(iters):
                yield Compute(10, tag=5)

        stats = GPU(CFG).launch(kernel, 32)
        # Iterations 2-4 run with half the lanes.
        assert stats.simt_efficiency == pytest.approx((1 + 0.5 * 3) / 4)

    def test_lowest_tag_first_matches_structured_control_flow(self):
        order = []

        def kernel(tid, args):
            if tid == 0:
                yield Compute(1, tag=2)
                order.append("late")
            else:
                yield Compute(1, tag=1)
                order.append("early")

        GPU(CFG).launch(kernel, 2)
        assert order[0] == "early"


class TestMemory:
    def test_coalesced_load_one_sector(self):
        def kernel(tid, args):
            yield Load(addr=0, size=4, tag=0)

        stats = GPU(CFG).launch(kernel, 32)
        # All lanes in the same 32B sector? addr identical -> 1 sector.
        assert stats.mem_sectors == 1
        assert stats.warp_instructions.get("mem") == 1

    def test_divergent_load_many_sectors(self):
        def kernel(tid, args):
            yield Load(addr=tid * 128, size=4, tag=0)

        stats = GPU(CFG).launch(kernel, 32)
        assert stats.mem_sectors == 32

    def test_load_blocks_warp(self):
        def kernel(tid, args):
            yield Load(addr=0, size=4, tag=0)
            yield Compute(1, tag=1)

        stats = GPU(CFG).launch(kernel, 32)
        cfg = CFG
        assert stats.cycles > cfg.l2_latency  # cold miss went past L2

    def test_second_access_hits_l1(self):
        def kernel(tid, args):
            yield Load(addr=0, size=4, tag=0)
            yield Load(addr=0, size=4, tag=1)

        stats = GPU(CFG).launch(kernel, 32)
        assert stats.l1_hit_rate > 0

    def test_store_does_not_block(self):
        def kernel(tid, args):
            yield Store(addr=tid * 4, size=4, tag=0)
            yield Compute(1, tag=1)

        stats = GPU(CFG).launch(kernel, 32)
        assert stats.cycles < 50

    def test_dram_utilization_positive_for_streaming(self):
        def kernel(tid, args):
            for i in range(8):
                yield Load(addr=(tid * 8 + i) * 128 + (args or 0), size=32,
                           tag=i)

        stats = GPU(CFG).launch(kernel, 64)
        assert stats.memory["dram_utilization"] > 0.05


class FakeAccel:
    """Counts submissions and answers after a fixed delay."""

    def __init__(self, sm, delay=50):
        self.sm = sm
        self.delay = delay
        self.submitted = []

    def submit(self, now, payloads):
        self.submitted.append(list(payloads))
        signal = self.sm.sim.signal()
        signal.fire_at(now + self.delay, [p * 2 for p in payloads])
        return signal

    def snapshot(self, end):
        return {"queries": sum(len(p) for p in self.submitted)}


class TestAccelCall:
    def test_results_routed_back_per_thread(self):
        echoed = {}

        def kernel(tid, args):
            result = yield AccelCall(payload=tid, tag=0)
            echoed[tid] = result

        stats = GPU(CFG, accelerator_factory=FakeAccel).launch(kernel, 32)
        assert echoed == {tid: tid * 2 for tid in range(32)}
        assert stats.cycles >= 50
        assert stats.warp_instructions.get("tta") == 1
        assert stats.accel_stats["queries"] == 32

    def test_accel_overlaps_with_compute(self):
        def kernel(tid, args):
            if tid < 32:
                yield AccelCall(payload=tid, tag=0)
            else:
                yield Compute(40, tag=1)

        stats = GPU(CFG, accelerator_factory=FakeAccel).launch(kernel, 64)
        # Accel (50 cycles) and the other warp's compute overlap.
        assert stats.cycles < 50 + 40


# -- accelerators only on SMs that run warps -----------------------------------
def eager_merge(accels, end):
    """The merge every launch made when each SM had an accelerator,
    working or idle: sums, with rate-like keys averaged over every
    accelerator that reported them (``per_accel`` dropped)."""
    merged = {}
    contributors = {}
    per_accel = [a.snapshot(end) for a in accels]
    for snap in per_accel:
        for key, value in snap.items():
            if isinstance(value, (int, float)):
                merged[key] = merged.get(key, 0.0) + value
                contributors[key] = contributors.get(key, 0) + 1
    for key in list(merged):
        if key.endswith("_avg") or key.endswith("_util") or \
                key.endswith("_mean"):
            merged[key] /= contributors[key]
    return merged


def _btree_accel_launch(platform, n_warps):
    """One btree launch of ``n_warps`` full warps; returns the stats,
    the config and every accelerator core the launch built."""
    base = (make_rta_factory(tta=True) if platform == "tta"
            else make_ttaplus_factory())
    cores = []

    def factory(sm):
        cores.append(base(sm))
        return cores[-1]

    config = scaled_config_for(1 << 16)
    wl = make_btree_workload("btree", n_keys=256,
                             n_queries=n_warps * config.warp_size, seed=4)
    stats = GPU(config, accelerator_factory=factory).launch(
        btree_accel_kernel, wl.n_queries,
        args=wl.kernel_args(jobs=wl.jobs(platform)))
    return stats, config, cores


class TestAcceleratorsOnBusySMs:
    @pytest.mark.parametrize("platform", ["tta", "ttaplus"])
    @pytest.mark.parametrize("n_warps", [1, 3, "n_sms-1"])
    def test_rates_are_means_over_the_built_cores(self, platform, n_warps):
        if n_warps == "n_sms-1":
            n_warps = GPUConfig().n_sms - 1
        stats, _, cores = _btree_accel_launch(platform, n_warps)
        assert [core.sm.sm_id for core in cores] == list(range(n_warps))
        snaps = [core.snapshot(stats.cycles) for core in cores]
        rates = [key for key in snaps[0]
                 if key.endswith(("_avg", "_util", "_mean"))]
        assert "traversal_latency_mean" in rates
        for key in rates:
            mean = sum(snap[key] for snap in snaps) / len(snaps)
            assert stats.accel_stats[key] == pytest.approx(mean, rel=1e-12)
        assert all(snap["jobs_completed"] > 0 for snap in snaps)
        assert "per_accel" not in stats.accel_stats

    @pytest.mark.parametrize("platform", ["tta", "ttaplus"])
    def test_full_launch_matches_the_eager_merge(self, platform):
        n_sms = GPUConfig().n_sms
        stats, config, cores = _btree_accel_launch(platform, 2 * n_sms)
        assert len(cores) == config.n_sms
        assert stats.accel_stats == eager_merge(cores, stats.cycles)
