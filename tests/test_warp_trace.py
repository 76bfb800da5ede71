"""Cached warp traces time exactly like live warps.

Every ``@value_independent`` baseline kernel is launched three ways and
compared, stat for stat and result for result, against a live launch
(no stream cache) at the same GPU config:

* **trace-build** — a fresh stream cache: each warp's schedule is
  drained into a :class:`~repro.gpu.replay.WarpTrace` at launch;
* **trace-reuse** — the same cache at a second L2 latency: the launch
  record misses (the config differs) but every warp trace is reused.

A traced pass repeats the comparison on the emitted ``sm`` events.  A
marked kernel that yields ``AccelCall`` cannot be replayed and must
leave nothing behind in the cache.

A seeded differential fuzz checks that yielding op runs (tuples of ops)
schedules exactly like yielding their ops one by one.
"""

import dataclasses
import math
import random
from dataclasses import dataclass, field

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.gpu import GPU, GPUConfig
from repro.gpu.config import DEFAULT_CONFIG
from repro.gpu.isa import AccelCall, Compute, Load, Store
from repro.gpu.replay import value_independent, warp_trace
from repro.gpu.warp import Warp
from repro.harness.runner import scaled_config_for
from repro.kernels.btree_search import btree_baseline_kernel
from repro.kernels.knn_search import knn_baseline_kernel
from repro.kernels.nbody_walk import nbody_baseline_kernel
from repro.kernels.radius_search import radius_baseline_kernel
from repro.kernels.ray_trace import rt_baseline_kernel
from repro.kernels.rtree_query import rtree_baseline_kernel
from repro.workloads import (
    make_btree_workload,
    make_knn_workload,
    make_lumibench_workload,
    make_nbody_workload,
    make_rtnn_workload,
    make_rtree_workload,
)

# Thread counts are not multiples of the warp size, so every case has a
# partial last warp.


def _btree(variant):
    def case():
        wl = make_btree_workload(variant, n_keys=512, n_queries=70, seed=3)
        return (btree_baseline_kernel, wl.n_queries, wl.kernel_args(),
                scaled_config_for(wl.image.size_bytes))
    return case


def _rtree():
    wl = make_rtree_workload(n_rects=256, n_queries=45, seed=5)
    return (rtree_baseline_kernel, wl.n_queries, wl.kernel_args(),
            scaled_config_for(wl.image.size_bytes))


def _knn():
    wl = make_knn_workload(n_points=256, n_queries=45, seed=6)
    return (knn_baseline_kernel, wl.n_queries, wl.kernel_args(),
            scaled_config_for(wl.image.size_bytes))


def _radius():
    wl = make_rtnn_workload(n_points=256, n_queries=45, seed=7)
    return (radius_baseline_kernel, wl.n_queries, wl.kernel_args(),
            scaled_config_for(wl.image.size_bytes))


def _nbody():
    wl = make_nbody_workload(n_bodies=100, dims=3, seed=8)
    return (nbody_baseline_kernel, wl.n_bodies,
            wl.kernel_args(fused_post_insts=4),
            scaled_config_for(wl.image.size_bytes))


def _ray_trace():
    wl = make_lumibench_workload("BUNNY_SH", width=7, height=7, seed=9)
    return (rt_baseline_kernel, wl.n_rays, wl.kernel_args(flavor="rta"),
            DEFAULT_CONFIG)


CASES = {
    "btree": _btree("btree"),
    "bstar": _btree("bstar"),
    "bplus": _btree("bplus"),
    "rtree": _rtree,
    "knn": _knn,
    "radius": _radius,
    "nbody3d": _nbody,
    "ray_trace": _ray_trace,
}


@pytest.fixture(autouse=True)
def _clean_tracer(monkeypatch):
    for var in (obs.TRACE_ENV, obs.TRACE_RATE_ENV,
                obs.TRACE_CATEGORIES_ENV, obs.TRACE_EVENTS_ENV):
        monkeypatch.delenv(var, raising=False)
    obs.reset()
    yield
    obs.reset()


def _launch(kernel, n_threads, args, config, cache):
    """One launch on fresh results; returns everything it produced."""
    args = dataclasses.replace(args, results={}, stream_cache=cache)
    stats = GPU(config).launch(kernel, n_threads, args=args)
    return {
        "cycles": stats.cycles,
        "warp_instructions": stats.warp_instructions.as_dict(),
        "thread_instructions": stats.thread_instructions.as_dict(),
        "mem_sectors": stats.mem_sectors,
        "simt_efficiency": stats.simt_efficiency,
        "memory": stats.memory,
        "l1_hit_rate": stats.l1_hit_rate,
        "metrics": stats.metrics.as_dict(),
        "results": args.results,
    }


def _warp_traces(cache):
    return {key: trace for key, trace in cache.items()
            if isinstance(key, tuple) and key[0] == "__warp__"}


def _second_config(config: GPUConfig) -> GPUConfig:
    return config.with_overrides(l2_latency=config.l2_latency + 37)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_build_and_reuse_match_live(case):
    kernel, n_threads, args, config = CASES[case]()
    assert kernel.value_independent
    other = _second_config(config)
    cache = {}

    built = _launch(kernel, n_threads, args, config, cache)
    assert built == _launch(kernel, n_threads, args, config, None)
    traces = _warp_traces(cache)
    assert len(traces) == math.ceil(n_threads / config.warp_size)
    assert built["results"] and len(built["results"]) <= n_threads

    reused = _launch(kernel, n_threads, args, other, cache)
    assert reused == _launch(kernel, n_threads, args, other, None)
    assert reused["cycles"] != built["cycles"]  # the config took effect
    after = _warp_traces(cache)
    assert after.keys() == traces.keys()
    assert all(after[key] is traces[key] for key in traces)


def _traced(kernel, n_threads, args, config, cache):
    tracer = obs.enable()
    out = _launch(kernel, n_threads, args, config, cache)
    sm_events = [event for event in tracer.events() if event[0] == "sm"]
    assert tracer.events_dropped == 0
    obs.reset()
    return out, sm_events


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_sm_events_match_live(case):
    kernel, n_threads, args, config = CASES[case]()
    cache = {}
    for cfg in (config, _second_config(config)):
        live = _traced(kernel, n_threads, args, cfg, None)
        assert live[1]
        assert _traced(kernel, n_threads, args, cfg, cache) == live


# -- replay safety ----------------------------------------------------------------
@dataclass
class _Args:
    results: dict = field(default_factory=dict)
    stream_cache: dict = None


@value_independent
def _mismarked_accel_kernel(tid, args):
    yield Compute(2, 0)
    yield Load(0x1000 + 4 * tid, 4, 1)
    args.results[tid] = yield AccelCall(tid, 2)


def test_mismarked_accel_kernel_raises_and_caches_no_partial_trace():
    cache = {}
    gpu = GPU(GPUConfig(n_sms=2))
    for _ in range(2):  # a relaunch raises again, never replays
        with pytest.raises(SimulationError, match="AccelCall"):
            gpu.launch(_mismarked_accel_kernel, 40,
                       args=_Args(stream_cache=cache))
        assert not _warp_traces(cache)


# -- op runs ------------------------------------------------------------------------
def _random_op(rng, spread):
    # A tag is one static program location, so it never mixes op types:
    # Compute tags are 1-4, Load 5-8, Store 9-12 and AccelCall 13-16.
    tag = rng.randrange(spread)
    roll = rng.random()
    if roll < 0.5:
        return Compute(rng.randint(1, 9), 1 + tag,
                       rng.choice(("alu", "control", "sfu")))
    if roll < 0.8:
        return Load(0x1000 + 4 * rng.randrange(64), rng.choice((4, 8, 64)),
                    5 + tag)
    return Store(0x8000 + 4 * rng.randrange(64), 4, 9 + tag)


def _random_programs(rng, n_lanes):
    """Per-lane item lists: single ops and op runs (tuples of ops).

    Lanes mostly follow one common program, so whole warps often reach
    a run together; the rest diverge by tag, switch to an equal but
    distinct run object, share a run with only some lanes, skip an
    empty run, or stop partway through a run.
    """
    spread = rng.choice((1, 4))  # one tag per op type: no divergence
    shared = [tuple(_random_op(rng, spread) for _ in range(rng.randint(1, 12)))
              for _ in range(3)] + [()]
    common = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        if roll < 0.45:
            common.append(rng.choice(shared))
        elif roll < 0.55:
            common.append(AccelCall(rng.randrange(100),
                                    13 + rng.randrange(spread)))
        else:
            common.append(_random_op(rng, spread))
    programs = []
    for _ in range(n_lanes):
        items = []
        for item in common:
            roll = rng.random()
            if roll < 0.1:
                continue  # this lane skips the item
            if roll < 0.2 and item.__class__ is tuple:
                items.append(tuple(list(item)))  # equal, distinct object
            elif roll < 0.25:
                items.append(_random_op(rng, spread))  # a divergent op
            elif roll < 0.3 and item.__class__ is tuple and item:
                # Stop partway through the run: its first ops, then end.
                items.extend(item[:rng.randrange(len(item))])
                break
            else:
                items.append(item)
        programs.append(items)
    return programs


def _lane(items, runs):
    for item in items:
        if item.__class__ is tuple and not runs:
            yield from item
        else:
            yield item


def _drain(programs, runs):
    """Every macro step of one warp; AccelCalls answer with the payload."""
    warp = Warp(0, [_lane(items, runs) for items in programs])
    steps = []
    for step in warp.schedule(32):
        if step[0] == 3:
            step[3]([payload + 1 for payload in step[2]])
            step = step[:3]
        steps.append(step)
    return steps


@pytest.mark.parametrize("seed", range(40))
def test_op_runs_schedule_like_single_ops(seed):
    rng = random.Random(seed)
    for _ in range(10):
        programs = _random_programs(rng, rng.choice((1, 5, 32)))
        assert _drain(programs, runs=True) == _drain(programs, runs=False)


@pytest.mark.parametrize("bad", [AccelCall(0, 3), "junk", (Compute(1, 3),)])
def test_run_holding_non_run_op_raises_and_caches_nothing(bad):
    @value_independent
    def kernel(tid, args):
        yield Compute(2, 1)
        yield (Load(0x1000 + 4 * tid, 4, 2), bad, Compute(1, 4))

    cache = {}
    with pytest.raises(SimulationError, match="op run"):
        warp_trace(kernel, range(8), _Args(), cache, 32)
    assert not cache
    with pytest.raises(SimulationError, match="op run"):
        GPU(GPUConfig(n_sms=1)).launch(kernel, 8,
                                       args=_Args(stream_cache=cache))
    assert not _warp_traces(cache)
