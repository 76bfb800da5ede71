"""Tests for the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import cProfile
import os
import pstats
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from layers import (LAYER_UNITS, SpanRecorder, group_self_time,  # noqa: E402
                    layer_metrics, profile_group, round_kind, self_fractions,
                    self_times)
from measure import (Tally, best_of_rate, digest,  # noqa: E402
                     quartile_spread, round_rates, tail_percentile)


# -- percentile rule ----------------------------------------------------------------
def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(range(10000)) == (99.9, 9989, 10000)
    assert tail_percentile(range(1000)) == (99.0, 989, 1000)
    # 999 samples leave only 9 beyond p99: fall back to p95.
    assert tail_percentile(range(999)) == (95.0, 949, 999)
    assert tail_percentile(range(20)) == (50.0, 9, 20)


def test_tail_needs_twenty_samples_and_ignores_order():
    assert tail_percentile(range(19)) == (None, None, 19)
    assert tail_percentile([]) == (None, None, 0)
    assert tail_percentile(reversed(range(1000))) == (99.0, 989, 1000)


# -- failure accounting ----------------------------------------------------------
def test_failed_frac_counts_mismatches_and_exceptions():
    tally = Tally()
    tally.add(10)
    tally.add(5, 1, why="one result differs")
    with tally.guarded("launch"):
        raise RuntimeError("boom")
    with tally.guarded("fine"):
        tally.add(3)
    assert (tally.attempted, tally.failed) == (19, 2)
    assert tally.failed_frac == pytest.approx(2 / 19)
    assert len(tally.errors) == 2


def test_tally_refuses_more_failures_than_attempts():
    with pytest.raises(ValueError):
        Tally().add(1, 2)
    assert Tally().failed_frac == 0.0


# -- spans ------------------------------------------------------------------------------
def _span(name, start, end, parent, info=None):
    return [name, start, end, parent, None, info]


def test_self_time_subtracts_the_union_of_children():
    spans = [_span("root", 0.0, 10.0, -1),
             _span("a", 1.0, 3.0, 0),
             _span("b", 2.0, 5.0, 0),       # overlaps a
             _span("c", 7.0, 8.0, 0),
             _span("d", 7.5, 7.8, 3)]       # grandchild of root
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 0.7, 0.3])


def test_recorder_links_parents_and_operation_ids():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("ignored"):
        pass
    assert rec.spans == []                  # inactive: nothing recorded
    rec.active = True
    rec.op = "op1"
    with rec.span("outer") as outer:
        assert rec.inside("outer")
        with rec.span("inner") as inner:
            pass
    assert not rec.inside("outer")
    assert rec.spans[inner][3] == outer and rec.spans[outer][3] == -1
    assert rec.spans[inner][4] == "op1"
    assert rec.spans[outer][1] < rec.spans[inner][1] \
        < rec.spans[inner][2] < rec.spans[outer][2]


def test_layer_metrics_from_spans():
    spans = [_span("setup", 0.0, 1.0, -1),
             _span("trees.build", 0.2, 0.5, 0),
             _span("round", 1.0, 11.0, -1),
             _span("serve.loadtest", 1.0, 9.0, 2),
             _span("serve.launch", 2.0, 5.0, 3),
             _span("gpu.launch", 2.5, 4.5, 4,
                   {"warp_insts": 100, "cycles": 50, "l2": 3, "dram": 2}),
             _span("check", 9.0, 10.0, 2),    # untimed: not a layer cost
             _span("gpu.launch", 9.2, 9.8, 6, {"warp_insts": 7})]
    out = layer_metrics(spans, rounds=[2], setup=[0],
                        self_time_groups={"sim": 3.0, "gpu": 1.0},
                        extra={"trace.overhead_frac": 0.5})
    assert set(out) == set(LAYER_UNITS)
    assert out["serve.loop_s"] == pytest.approx(5.0)
    assert out["serve.launch_s"] == pytest.approx(3.0)
    assert out["gpu.launch_s"] == pytest.approx(2.0)
    assert out["gpu.launch_calls"] == 1
    assert out["gpu.host_us_per_warp_inst"] == pytest.approx(2e4)
    assert out["sim.cycles"] == 50 and out["memsys.dram.requests"] == 2
    assert out["setup.trees.build_s"] == pytest.approx(0.3)
    assert out["trees.build_s"] == 0.0
    assert out["trace.unattributed_frac"] == pytest.approx(0.1)
    assert out["sim.self_frac"] == pytest.approx(0.75)
    assert out["trace.overhead_frac"] == 0.5


# -- profiler grouping ----------------------------------------------------------------
def test_profile_group_by_subpackage():
    assert profile_group("/x/src/repro/sim/engine.py") == "sim"
    assert profile_group("/x/src/repro/core/ttaplus/uop.py") == "core"
    assert profile_group("/x/src/repro/trees/bvh.py") == "other"
    assert profile_group("/x/src/repro/errors.py") == "other"
    assert profile_group("/usr/lib/python3.11/heapq.py") == "other"


def test_builtins_are_charged_to_their_callers():
    engine = ("/x/src/repro/sim/engine.py", 1, "run")
    heap = ("/usr/lib/python3.11/heapq.py", 9, "push")
    stats = {
        engine: (1, 1, 2.0, 5.0, {}),
        ("/x/src/repro/gpu/sm.py", 5, "step"): (1, 1, 1.0, 1.0, {}),
        ("~", 0, "<built-in method len>"): (
            3, 3, 0.6, 0.6, {engine: (2, 2, 0.4, 0.4),
                             heap: (1, 1, 0.2, 0.2)}),
        ("/x/src/repro/core/ttaplus/uop.py", 3, "go"): (1, 1, 0.5, 0.5, {}),
    }
    totals = group_self_time(stats)
    assert totals["sim"] == pytest.approx(2.4)
    assert totals["gpu"] == pytest.approx(1.0)
    assert totals["core"] == pytest.approx(0.5)
    assert totals["other"] == pytest.approx(0.2)
    shares = self_fractions(totals)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["sim"] == pytest.approx(2.4 / 4.1)


def test_real_profile_shares_sum_to_one():
    def work():
        return sorted(str(i) for i in range(2000))

    profiler = cProfile.Profile()
    profiler.enable()
    work()
    profiler.disable()
    shares = self_fractions(group_self_time(pstats.Stats(profiler).stats))
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["other"] == pytest.approx(1.0)


# -- digest and spread ------------------------------------------------------------------
def test_digest_ignores_key_order_and_last_bit_noise():
    a = {"x": {"cycles": 1234.0, "p99_ms": 2.0000000000001}, "y": [1, 2]}
    b = {"y": [1, 2], "x": {"p99_ms": 2.0, "cycles": 1234.0}}
    assert digest(a) == digest(b)
    assert digest(a) != digest({"x": {"cycles": 1235.0, "p99_ms": 2.0},
                                "y": [1, 2]})


def test_best_of_rate_takes_each_slot_at_its_best():
    samples = [("gpu", 2.0, 100, 100), ("tta", 1.0, 100, 100),
               ("gpu", 1.0, 100, 100),       # gpu's uncontended round
               ("tta", 3.0, 100, 100), ("idle", 0.0, 0, 0)]
    # best: gpu 0.01 s/unit, tta 0.01 s/unit -> 200 queries in 2 s
    assert best_of_rate(samples) == pytest.approx(100.0)
    assert best_of_rate([]) == 0.0


def test_best_of_rate_normalizes_by_units_of_work():
    # One point type on a big and a small input: the best seconds per
    # unit (0.01) costs the mean units (150) -> one point per 1.5 s.
    samples = [("nbody", 2.0, 200, 1), ("nbody", 1.0, 100, 1)]
    assert best_of_rate(samples) == pytest.approx(1 / 1.5)


def test_round_rates_are_per_round_at_mean_input_size():
    rounds = [[("gpu", 1.0, 100, 100), ("tta", 1.0, 100, 100)],
              [("gpu", 2.0, 100, 100), ("tta", 1.0, 100, 100)],  # gpu slow
              [("gpu", 0.25, 50, 50), ("tta", 0.5, 50, 50)],     # half size
              [("idle", 0.0, 0, 0)]]
    # Mean units are 250/3 per slot: round 0 runs 500/3 queries in 5/3 s,
    # round 2 costs (0.25 + 0.5) s twice over for the same.
    assert round_rates(rounds) == pytest.approx([100.0, 200 / 3, 400 / 3])
    # Best-of takes gpu from round 2 and tta from round 0 or 2.
    assert best_of_rate(s for r in rounds for s in r) == \
        pytest.approx(400 / 3)
    assert round_rates([]) == []


def test_traced_runs_cycle_plain_spans_plain_profile():
    kinds = [round_kind(r, True) for r in range(8)]
    assert kinds == ["plain", "spans", "plain", "profile"] * 2
    assert {round_kind(r, False) for r in range(8)} == {"plain"}


def test_quartile_spread():
    assert quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(1.0)
    assert quartile_spread([10.0] * 10) == 0.0


# -- environment and refusal ------------------------------------------------------------
@pytest.mark.parametrize("name,value", [("REPRO_FAULTS", "launch_fail"),
                                        ("REPRO_TRACE", "1"),
                                        ("REPRO_SIM_CORE", "legacy")])
def test_refuses_inherited_faults_tracing_or_legacy(monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    assert "refusing" in run.pin_environment()


def test_pins_fast_core_and_clears_other_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_CORE", "fast")
    monkeypatch.setenv("REPRO_RESILIENCE", "shed")
    monkeypatch.setenv("REPRO_GUARD", "off")
    assert run.pin_environment() is None
    assert os.environ["REPRO_RESILIENCE"] == "off"
    assert "REPRO_GUARD" not in os.environ


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=60, check=False)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
