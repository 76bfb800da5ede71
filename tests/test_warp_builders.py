"""Warp builders give the traces of the per-lane kernels they replaced.

``btree_baseline_kernel`` and ``nbody_baseline_kernel`` build each
warp's :class:`~repro.gpu.replay.WarpTrace` directly from the search
paths and union walks.  The generator bodies they replaced live in
``tests/kernel_reference.py``; draining a warp of those through
:meth:`~repro.gpu.warp.Warp.schedule` must give equal steps and writes
for every warp, and a whole launch must give equal statistics and
results.  Query streams include inner-node matches, misses and
duplicates, thread counts are not multiples of the warp size, and
every case runs at two sector sizes.
"""

import dataclasses
import math
import random

import pytest

from repro.gpu import GPU
from repro.gpu.replay import _build_trace
from repro.harness.runner import scaled_config_for
from repro.kernels.btree_search import btree_baseline_kernel
from repro.kernels.nbody_walk import nbody_baseline_kernel
from repro.serve import SERVE_SCALES, build_resident_index
from repro.serve.backends import LaunchBackend
from repro.workloads import make_btree_workload, make_nbody_workload

from tests.kernel_reference import (
    btree_baseline_reference,
    nbody_baseline_reference,
)

SECTOR_SIZES = (32, 128)


def _inner_keys(tree):
    """Every fence key of every inner node."""
    keys, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            keys.extend(node.keys)
            stack.extend(node.children)
    return keys


def _queries(wl, seed, n):
    """``n`` queries mixing hits, inner-node matches, misses (below,
    between and above the keys) and duplicates."""
    rng = random.Random(seed)
    keys = wl.tree.keys_in_order()
    present = set(keys)
    inner = _inner_keys(wl.tree) or keys
    misses = [-1, keys[-1] + 1] + [q for q in range(keys[-1] + 2)
                                   if q not in present][:64]
    pool = (rng.sample(keys, min(len(keys), n // 3))
            + rng.choices(inner, k=n // 4) + misses)
    queries = [rng.choice(pool) for _ in range(n)]
    queries[1::7] = [queries[0]] * len(queries[1::7])  # duplicates
    return queries


def _btree_args(variant, n_keys, n_queries, seed):
    wl = make_btree_workload(variant, n_keys=n_keys, n_queries=n_queries,
                             seed=seed)
    return wl, dataclasses.replace(
        wl.kernel_args(), queries=_queries(wl, seed, n_queries),
        stream_cache=None)


def _assert_warps_equal(kernel, reference, n_threads, args, warp_size=32):
    for sector_size in SECTOR_SIZES:
        for first in range(0, n_threads, warp_size):
            thread_ids = range(first, min(first + warp_size, n_threads))
            want = _build_trace(reference, thread_ids,
                                dataclasses.replace(args, results={}),
                                sector_size)
            got = kernel(thread_ids, dataclasses.replace(args, results={}),
                         sector_size)
            assert got.steps == want.steps, (sector_size, first)
            assert got.writes == want.writes, (sector_size, first)


def _launch(kernel, n_threads, args, config):
    args = dataclasses.replace(args, results={}, stream_cache=None)
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
        "results": sorted(args.results.items()),
    }


def _assert_launches_equal(kernel, reference, n_threads, args, config):
    for sector_size in SECTOR_SIZES:
        cfg = config.with_overrides(sector_size=sector_size)
        assert _launch(kernel, n_threads, args, cfg) == \
            _launch(reference, n_threads, args, cfg)


# -- B-Tree ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", ["btree", "bstar", "bplus"])
@pytest.mark.parametrize("n_keys,n_queries,seed", [
    (5, 45, 1),        # a single-leaf tree
    (700, 77, 2),
    (10_000, 150, 3),
])
def test_btree_builder_matches_reference(variant, n_keys, n_queries, seed):
    wl, args = _btree_args(variant, n_keys, n_queries, seed)
    assert wl.tree.root.is_leaf == (n_keys == 5)
    paths = [wl.tree.search(q) for q in args.queries]
    assert any(not trace.found for trace in paths)
    if variant != "bplus" and n_keys > 5:
        assert any(trace.found_at_inner for trace in paths)
    _assert_warps_equal(btree_baseline_kernel, btree_baseline_reference,
                        n_queries, args)
    _assert_launches_equal(btree_baseline_kernel, btree_baseline_reference,
                           n_queries, args,
                           scaled_config_for(wl.image.size_bytes))


def test_btree_seeded_query_streams_match_reference():
    for seed in range(6):
        rng = random.Random(seed)
        variant = rng.choice(("btree", "bstar", "bplus"))
        n_queries = rng.randrange(1, 200)
        _, args = _btree_args(variant, rng.randrange(5, 3000), n_queries,
                              seed)
        _assert_warps_equal(btree_baseline_kernel, btree_baseline_reference,
                            n_queries, args)


# -- N-Body ----------------------------------------------------------------------
@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("fused", [0, 4])
def test_nbody_builder_matches_reference(dims, fused):
    wl = make_nbody_workload(n_bodies=90, dims=dims, seed=7 + dims)
    args = wl.kernel_args(fused_post_insts=fused)
    reference = nbody_baseline_reference(wl.tree)
    _assert_warps_equal(nbody_baseline_kernel, reference, wl.n_bodies, args)
    _assert_launches_equal(nbody_baseline_kernel, reference, wl.n_bodies,
                           args, scaled_config_for(wl.image.size_bytes))


# -- serve -------------------------------------------------------------------------
def test_serve_point_gpu_launch_matches_reference():
    """A serve point batch carries no stream cache: the builder runs
    uncached and must still time exactly like the reference lanes."""
    index = build_resident_index("point", SERVE_SCALES["smoke"]["point"])
    backend = LaunchBackend("gpu")
    qids = list(range(3, 3 + 45))
    launch = backend.launch(index, qids)
    args = index.batch_args([index.payload(qid) for qid in qids], [])
    assert args.stream_cache is None
    config = backend.config_for(index)
    reference = _launch(btree_baseline_reference, len(qids), args, config)
    assert launch.cycles == reference["cycles"]
    assert launch.stats.metrics.as_dict() == reference["metrics"]
    assert sorted(launch.results.items()) == reference["results"]
    assert math.ceil(len(qids) / 32) == launch.stats.notes["n_warps"]
