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

Both lowerings read the tree's array walks: the baseline's warp traces
are built from :meth:`~repro.trees.BarnesHutTree.union_walk` (one walk
per warp, issued by all of its lanes); the accelerated jobs and every
kernel's functional result come from the visit CSR and accelerations of
:meth:`~repro.trees.BarnesHutTree.body_walk`.
"""

from dataclasses import dataclass, field
from itertools import chain
from typing import Any, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.gpu.isa import AccelCall, Compute
from repro.gpu.replay import WarpTrace, launch_replayable, warp_builder
from repro.kernels import common
from repro.kernels.common import (
    LOOP_HEAD,
    compute_steps,
    epilogue,
    epilogue_steps,
    load_step,
    prologue,
    prologue_steps,
)
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


#: Per-visit tails by visit kind: 0 an opened cell, 1 an approximated
#: cell, 2 a leaf.
_TAILS = (_INNER_OPEN, _INNER_CLOSED, _LEAF)


class UnionWalk(NamedTuple):
    """The baseline's warp-voting walks, one per warp of bodies.

    Warp ``w`` (bodies ``w * warp_size`` onwards) makes the visits
    ``visits[offsets[w]:offsets[w + 1]]``; a visit is ``node * 3 +
    kind`` (the :data:`_TAILS` index) and ``address[node]`` is the
    node's fetch address.
    """

    warp_size: int
    offsets: List[int]
    visits: np.ndarray
    address: List[int]


@dataclass
class NBodyKernelArgs:
    """One launch of the force-computation kernel (one thread per body)."""

    tree: Any
    body_buf: int
    accel_buf: int
    #: the baseline's union walks (None for accelerated launches)
    union_walk: Optional[UnionWalk] = None
    jobs: List[TraversalJob] = field(default_factory=list)
    #: per-body interaction counts for the TTA post-traversal force block
    interactions: List[int] = field(default_factory=list)
    results: dict = field(default_factory=dict)
    #: extra post-processing instructions fused into the kernel (the
    #: kernel-merging optimization of §V-A); 0 = separate kernels
    fused_post_insts: int = 0
    #: workload-owned recording cache for gpu/replay.py
    stream_cache: dict = None


@launch_replayable
@warp_builder
def nbody_baseline_kernel(thread_ids: Sequence[int], args: NBodyKernelArgs,
                          sector_size: int) -> WarpTrace:
    """Warp-voting union walk: converged control flow, predicated lanes.

    Every lane of a warp runs the prologue, then each visit of the
    warp's union walk (loop head, node fetch, the inner or leaf tail),
    the fused post-processing block if any and the epilogue.  The lanes
    never diverge, so each op is one group of the whole warp; a visited
    node's steps are built once per warp.
    """
    walk = args.union_walk
    warp = thread_ids[0] // walk.warp_size
    if thread_ids[-1] // walk.warp_size != warp:
        raise SimulationError(
            f"lanes {thread_ids[0]}-{thread_ids[-1]} span two union walks "
            f"of {walk.warp_size} bodies; the launch's warp size must "
            "not exceed the walks'"
        )
    active = len(thread_ids)
    head = compute_steps(LOOP_HEAD, active)
    tails = [compute_steps(tail, active) for tail in _TAILS]
    visits = walk.visits[walk.offsets[warp]:walk.offsets[warp + 1]].tolist()
    segments = {}
    for visit in set(visits):
        node, kind = divmod(visit, 3)
        fetch = load_step(active, ((walk.address[node], NODE_STRIDE),),
                          sector_size)
        segments[visit] = head + (fetch,) + tails[kind]
    steps = list(prologue_steps([args.body_buf + 16 * tid
                                 for tid in thread_ids], sector_size,
                                setup_alu=6))
    steps.extend(chain.from_iterable(map(segments.__getitem__, visits)))
    if args.fused_post_insts:
        steps += compute_steps((Compute(args.fused_post_insts,
                                        common.TAG_EPILOGUE - 1,
                                        kind="alu"),), active)
    steps += epilogue_steps([args.accel_buf + 12 * tid
                             for tid in thread_ids], sector_size)
    # Functional results from each body's own (exact) walk.
    accelerations = args.tree.body_walk().accelerations
    return WarpTrace(steps, tuple((tid, accelerations[tid])
                                  for tid in thread_ids))


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


def build_union_walk(tree, warp_size: int = 32) -> UnionWalk:
    """The tree's union (warp-voting) walks for the baseline kernel."""
    walk = tree.union_walk(warp_size)
    kind = np.where(walk.leaf, 2, np.where(walk.opened, 0, 1))
    return UnionWalk(warp_size, walk.offsets.tolist(), walk.node * 3 + kind,
                     tree.flat().address.tolist())


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
