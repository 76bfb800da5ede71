"""Determinism: identical inputs must produce identical simulations.

The event engine breaks time ties by insertion order and every random
choice is seeded, so two runs of the same configuration must agree to
the cycle — a property the figure tables and their claims rely on.
"""

from repro.harness.runner import (
    run_btree,
    run_nbody,
    run_rtnn,
    run_wknd,
    scaled_config_for,
)
from repro.gpu.config import GPUConfig
from repro.workloads import (
    make_btree_workload,
    make_nbody_workload,
    make_rtnn_workload,
    make_wknd_workload,
)


def test_btree_runs_are_cycle_identical():
    results = []
    for _ in range(2):
        wl = make_btree_workload("btree", n_keys=1024, n_queries=512, seed=3)
        cfg = scaled_config_for(wl.image.size_bytes)
        run = run_btree(wl, "tta", config=cfg)
        results.append((run.cycles, run.stats.total_warp_instructions,
                        run.stats.memory["dram_bytes"]))
    assert results[0] == results[1]


def test_workload_generation_is_seeded():
    a = make_btree_workload("btree", n_keys=512, n_queries=128, seed=9)
    b = make_btree_workload("btree", n_keys=512, n_queries=128, seed=9)
    c = make_btree_workload("btree", n_keys=512, n_queries=128, seed=10)
    assert a.queries == b.queries
    assert a.queries != c.queries
    assert a.golden == b.golden


def test_nbody_runs_are_cycle_identical():
    results = []
    for _ in range(2):
        wl = make_nbody_workload(n_bodies=128, dims=2, seed=4, theta=0.7)
        cfg = scaled_config_for(wl.image.size_bytes)
        run = run_nbody(wl, "ttaplus", config=cfg)
        results.append(run.cycles)
    assert results[0] == results[1]


def test_rtnn_runs_are_cycle_identical():
    results = []
    for _ in range(2):
        wl = make_rtnn_workload(n_points=512, n_queries=64, seed=5)
        cfg = scaled_config_for(wl.image.size_bytes)
        run = run_rtnn(wl, "rta", config=cfg)
        results.append(run.cycles)
    assert results[0] == results[1]


def test_wknd_runs_are_cycle_identical():
    cfg = GPUConfig(n_sms=2)
    results = []
    for _ in range(2):
        wl = make_wknd_workload(width=6, height=6, n_spheres=60, bounces=1)
        run = run_wknd(wl, "ttaplus_opt", config=cfg)
        results.append(run.cycles)
    assert results[0] == results[1]


def test_energy_model_is_pure():
    wl = make_btree_workload("btree", n_keys=512, n_queries=128, seed=6)
    cfg = scaled_config_for(wl.image.size_bytes)
    run = run_btree(wl, "tta", config=cfg)
    from repro.energy.model import energy_report
    a = energy_report(run.stats, cfg)
    b = energy_report(run.stats, cfg)
    assert a.total_mj == b.total_mj
