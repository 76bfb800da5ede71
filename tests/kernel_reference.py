"""Per-lane generator kernels, kept as the reference for the warp builders.

``btree_baseline_kernel`` and ``nbody_baseline_kernel`` build each
warp's trace directly (:func:`repro.gpu.replay.warp_builder`).  These
are the per-thread generator bodies they replaced: draining a warp of
them through :meth:`~repro.gpu.warp.Warp.schedule` must give the same
steps and writes, which ``tests/test_warp_builders.py`` checks warp for
warp.
"""

from itertools import chain

import numpy as np

from repro.gpu.isa import Compute, Load
from repro.gpu.replay import value_independent
from repro.kernels import common
from repro.kernels.btree_search import (
    _CHILD_SELECT_ALU,
    _LEAF_EXIT_CONTROL,
    _PER_KEY_ALU,
    _keys_scanned,
)
from repro.kernels.common import LOOP_HEAD, epilogue, prologue, visit_header
from repro.kernels.nbody_walk import _INNER_CLOSED, _INNER_OPEN, _LEAF
from repro.trees.layout import NODE_STRIDE


@value_independent
def btree_baseline_reference(tid, args):
    """One thread = one query, searched with the software while-loop."""
    query = args.queries[tid]
    trace = args.tree.search(query)
    yield from prologue(args.query_buf + tid * 4)
    for node in trace.path:
        yield from visit_header(node.address, NODE_STRIDE)
        # The key and child-pointer arrays are separate structures in
        # CUDA B-Tree layouts: a second divergent load per visit.
        yield Load(node.address + NODE_STRIDE // 2, NODE_STRIDE // 2,
                   common.TAG_LOAD_NODE + 1)
        scanned = _keys_scanned(node, query)
        base = common.TAG_LEAF if node.is_leaf else common.TAG_INNER
        for k in range(scanned):
            yield Compute(_PER_KEY_ALU, base + k, kind="alu")
            yield Compute(2, base + k, kind="control")
        if node.is_leaf:
            yield Compute(_LEAF_EXIT_CONTROL, common.TAG_LEAF_HIT,
                          kind="control")
        else:
            yield Compute(_CHILD_SELECT_ALU, common.TAG_INNER_NEXT,
                          kind="alu")
    yield from epilogue(args.result_buf + tid * 4)
    args.results[tid] = trace.found


def warp_op_runs(tree, warp_size=32):
    """Union (warp-voting) walks as op runs, one tuple per warp: each
    visit is the loop head, the node fetch and the inner or leaf tail."""
    walk = tree.union_walk(warp_size)
    segments = []
    for address in tree.flat().address.tolist():
        head = LOOP_HEAD + (Load(address, NODE_STRIDE, common.TAG_LOAD_NODE),)
        segments.append((head + _INNER_OPEN, head + _INNER_CLOSED,
                         head + _LEAF))
    kind = np.where(walk.leaf, 2, np.where(walk.opened, 0, 1)).tolist()
    visits = list(zip(walk.node.tolist(), kind))
    offsets = walk.offsets.tolist()
    return [tuple(chain.from_iterable(segments[node][k]
                                      for node, k in visits[lo:hi]))
            for lo, hi in zip(offsets, offsets[1:])]


def nbody_baseline_reference(tree, warp_size=32):
    """The warp-voting N-Body kernel over ``tree``: every lane of warp
    ``w`` yields warp ``w``'s union walk as one op run."""
    runs = warp_op_runs(tree, warp_size)

    @value_independent
    def kernel(tid, args):
        yield from prologue(args.body_buf + tid * 16, setup_alu=6)
        yield runs[tid // warp_size]  # one op run
        if args.fused_post_insts:
            yield Compute(args.fused_post_insts, common.TAG_EPILOGUE - 1,
                          kind="alu")
        yield from epilogue(args.accel_buf + tid * 12)
        # Functional result from the body's own (exact) walk.
        args.results[tid] = args.tree.body_walk().accelerations[tid]

    return kernel
