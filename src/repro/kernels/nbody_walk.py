"""Barnes-Hut N-Body force-walk kernels (2D and 3D).

The *baseline* follows the Burtscher-Pingali CUDA formulation: the
whole warp walks one union traversal (cells opened if any lane votes to
open), every lane executing every visit predicated — high SIMT
efficiency, extra node work, force math on the cores.

On the accelerators each body walks only *its own* path (the RTA handles
per-ray control flow, advantage (2) of §II-C):

* **TTA** — inner opening tests and leaf screening run as Point-to-Point
  distance ops; the gathered interactions' force math (which needs SQRT)
  runs on the SIMT cores after the traversal returns, one block per
  thread.
* **TTA+** — the force computation itself runs on the accelerator as the
  5-µop leaf program of Table III (3 MUL + SQRT + R-XFORM), keeping the
  whole walk on the accelerator at the price of µop overheads (the
  "particularly sensitive to TTA+ overheads" point of §V-A).

Both lowerings read the tree's array walks: the baseline's per-warp op
tuples come from :meth:`~repro.trees.BarnesHutTree.union_walk` and are
shared by the warp's lanes; the accelerated jobs and every kernel's
functional result come from the visit CSR and accelerations of
:meth:`~repro.trees.BarnesHutTree.body_walk`.
"""

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, List

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.isa import AccelCall, Compute, Load
from repro.gpu.replay import launch_replayable, value_independent
from repro.kernels import common
from repro.kernels.common import LOOP_HEAD, epilogue, prologue
from repro.rta.traversal import Step, TraversalJob
from repro.trees.layout import NODE_STRIDE

#: vector subtract + dot + compare of Algorithm 2, scalarized
_DIST_TEST_ALU = 10
#: open-or-approximate branch + child push loop
_OPEN_CONTROL = 4
#: force math: subtract, r^2, rsqrt, scale, accumulate
_FORCE_ALU = 14
_FORCE_SFU = 2  # rsqrt on the special function unit

# Per-visit op tails after the node fetch (ISA ops are immutable, so
# every visit and lane shares them).
_INNER_OPEN = (Compute(_DIST_TEST_ALU, common.TAG_INNER, kind="alu"),
               Compute(_OPEN_CONTROL, common.TAG_INNER_NEXT, kind="control"))
#: an approximated cell adds predicated force math for all lanes
_INNER_CLOSED = _INNER_OPEN + (
    Compute(_FORCE_ALU, common.TAG_INNER_NEXT, kind="alu"),
    Compute(_FORCE_SFU, common.TAG_INNER_NEXT, kind="sfu"))
_LEAF = (Compute(_FORCE_ALU, common.TAG_LEAF, kind="alu"),
         Compute(_FORCE_SFU, common.TAG_LEAF, kind="sfu"))


@dataclass
class NBodyKernelArgs:
    """One launch of the force-computation kernel (one thread per body)."""

    tree: Any
    body_buf: int
    accel_buf: int
    #: per-warp union-walk op tuples for the baseline (warp-voting walk)
    warp_traces: List[tuple] = field(default_factory=list)
    jobs: List[TraversalJob] = field(default_factory=list)
    #: per-body interaction counts for the TTA post-traversal force block
    interactions: List[int] = field(default_factory=list)
    results: dict = field(default_factory=dict)
    #: extra post-processing instructions fused into the kernel (the
    #: kernel-merging optimization of §V-A); 0 = separate kernels
    fused_post_insts: int = 0
    warp_size: int = 32
    #: workload-owned recording cache for gpu/replay.py
    stream_cache: dict = None


@launch_replayable
@value_independent
def nbody_baseline_kernel(tid: int, args: NBodyKernelArgs):
    """Warp-voting union walk: converged control flow, predicated lanes."""
    yield from prologue(args.body_buf + tid * 16, setup_alu=6)
    yield args.warp_traces[tid // args.warp_size]  # one op run
    if args.fused_post_insts:
        yield Compute(args.fused_post_insts, common.TAG_EPILOGUE - 1,
                      kind="alu")
    yield from epilogue(args.accel_buf + tid * 12)
    # Functional result from the body's own (exact) walk.
    args.results[tid] = args.tree.body_walk().accelerations[tid]


@launch_replayable
def nbody_accel_kernel(tid: int, args: NBodyKernelArgs):
    yield from prologue(args.body_buf + tid * 16, setup_alu=6)
    yield Compute(3, common.TAG_SETUP + 1, kind="alu")
    acceleration = yield AccelCall(args.jobs[tid], tag=common.TAG_SETUP + 2)
    if args.interactions:
        # TTA path: force math for the gathered interactions on the cores.
        n = args.interactions[tid]
        yield Compute(_FORCE_ALU * n, common.TAG_SETUP + 3, kind="alu")
        yield Compute(_FORCE_SFU * n, common.TAG_SETUP + 3, kind="sfu")
    if args.fused_post_insts:
        # Fused post-processing overlaps with other warps' traversals.
        yield Compute(args.fused_post_insts, common.TAG_EPILOGUE - 1,
                      kind="alu")
    yield from epilogue(args.accel_buf + tid * 12)
    args.results[tid] = acceleration


def build_warp_traces(tree, warp_size: int = 32) -> List[tuple]:
    """Union (warp-voting) walks as op runs, one tuple per warp.

    Warp ``w`` covers bodies ``w * warp_size`` onwards; each visit is
    the loop head, the node fetch and the inner or leaf tail.  All of a
    warp's lanes yield the same tuple, so the warp issues it in lockstep
    (see :mod:`repro.gpu.warp`).
    """
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


def build_nbody_jobs(tree, flavor: str = "tta"):
    """Lower each body's walk into accelerator steps.

    Returns ``(jobs, interactions)``; ``interactions[i]`` is the number
    of force interactions body ``i`` gathered (used by the TTA kernel's
    post-traversal force block; empty list for TTA+, which computes
    forces on the accelerator).  Steps are shared between bodies: each
    visit maps to one step per (node, kind), plus TTA+'s fetch-less
    force step after an approximated cell.
    """
    if flavor not in ("tta", "ttaplus"):
        raise ConfigurationError(
            f"N-Body needs Point-to-Point support (got flavor {flavor!r})"
        )
    walk = tree.body_walk()
    visits = walk.visits
    address = tree.flat().address.tolist()
    n_nodes = len(address)
    forces = ~visits.opened  # a leaf or an approximated cell
    if flavor == "tta":
        # Leaves are screened by the Point-to-Point unit too; their
        # force math runs on the cores afterwards.
        table = [Step(a, NODE_STRIDE, "point_dist") for a in address]
        ids = visits.node
        offsets = visits.offsets
    else:
        table = ([Step(a, NODE_STRIDE, "uop:nbody_inner") for a in address]
                 + [Step(a, NODE_STRIDE, "uop:nbody_leaf") for a in address]
                 + [Step(-1, 0, "uop:nbody_leaf")])
        approx = forces & ~visits.leaf
        width = 1 + approx
        ids = np.repeat(visits.node + n_nodes * visits.leaf, width)
        ends = np.cumsum(width)
        ids[ends[approx] - 1] = 2 * n_nodes
        offsets = np.concatenate(([0], ends))[visits.offsets]
    ids = ids.tolist()
    offsets = offsets.tolist()
    jobs = [TraversalJob(body.body_id, map(table.__getitem__, ids[lo:hi]),
                         acceleration)
            for body, acceleration, lo, hi in zip(
                tree.bodies, walk.accelerations, offsets, offsets[1:])]
    if flavor == "ttaplus":
        return jobs, []
    gathered = np.concatenate(([0], np.cumsum(forces)))[visits.offsets]
    return jobs, np.diff(gathered).tolist()
