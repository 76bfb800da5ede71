"""R-Tree range-query kernels (the RTIndeX-style spatial-index extension).

An R-Tree range query tests the query window against every entry MBR of
each visited node — a pure box-overlap traversal.  On the baseline GPU
this is the usual divergent while-loop; on TTA each node visit is one
(modified) Ray-Box issue over up to 9 entries; on TTA+ it is the
Ray-Box µop program.
"""

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.geometry.aabb import AABB
from repro.gpu.isa import AccelCall, Compute
from repro.gpu.replay import launch_replayable, value_independent
from repro.kernels import common
from repro.kernels.common import StepTable, epilogue, prologue, visit_header
from repro.rta.traversal import TraversalJob
from repro.trees.layout import NODE_STRIDE
from repro.trees.rtree import RTree

#: scalarized rect-overlap test per entry (4 compares + combine)
_OVERLAP_ALU = 6
#: stack pushes for overlapping children
_PUSH_CONTROL = 3


@dataclass
class RTreeKernelArgs:
    tree: RTree
    windows: Sequence[AABB]
    query_buf: int
    result_buf: int
    jobs: List[TraversalJob] = field(default_factory=list)
    results: dict = field(default_factory=dict)
    #: workload-owned recording cache for gpu/replay.py
    stream_cache: dict = None


@launch_replayable
@value_independent
def rtree_baseline_kernel(tid: int, args: RTreeKernelArgs):
    """One thread = one range query on the SIMT cores."""
    trace = args.tree.range_query(args.windows[tid])
    yield from prologue(args.query_buf + tid * 16, setup_alu=5)
    for visit in trace.visits:
        yield from visit_header(visit.node.address, NODE_STRIDE)
        # One tagged op per entry tested: node occupancy varies, so the
        # scan serializes across the warp like the B-Tree key loop.
        base = common.TAG_LEAF if visit.kind == "leaf" else common.TAG_INNER
        for k in range(visit.tests):
            yield Compute(_OVERLAP_ALU, base + k, kind="alu")
        yield Compute(_PUSH_CONTROL,
                      common.TAG_LEAF_HIT if visit.kind == "leaf"
                      else common.TAG_INNER_NEXT, kind="control")
    yield from epilogue(args.result_buf + tid * 4)
    args.results[tid] = trace.ids


@launch_replayable
def rtree_accel_kernel(tid: int, args: RTreeKernelArgs):
    yield from prologue(args.query_buf + tid * 16, setup_alu=5)
    yield Compute(2, common.TAG_SETUP + 1, kind="alu")
    ids = yield AccelCall(args.jobs[tid], tag=common.TAG_SETUP + 2)
    yield from epilogue(args.result_buf + tid * 4)
    args.results[tid] = ids


def build_rtree_jobs(tree: RTree, windows: Sequence[AABB],
                     flavor: str = "tta") -> List[TraversalJob]:
    """Lower range queries into accelerator steps.

    Every visited node is one box-overlap instruction covering up to 9
    entries (TTA's width); wider nodes would iterate, as §III-B notes.
    """
    if flavor not in ("tta", "ttaplus"):
        raise ConfigurationError(
            f"R-Tree queries need box-test support (got {flavor!r})"
        )
    op = "box" if flavor == "tta" else "uop:raybox"
    step = StepTable().step
    jobs = []
    for qid, window in enumerate(windows):
        trace = tree.range_query(window)
        steps = [step(v.node.address, NODE_STRIDE, op)
                 for v in trace.visits]
        jobs.append(TraversalJob(qid, steps, trace.ids))
    return jobs
