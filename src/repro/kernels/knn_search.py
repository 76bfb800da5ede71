"""k-nearest-neighbor search kernels over k-d trees (extension).

kNN is the neighbor-search workload the RT-core repurposing literature
targets (RTNN, RT-kNNS); on a k-d tree the traversal alternates plane
comparisons (Query-Key-shaped) and distance tests (Point-to-Point-
shaped), so TTA covers it without TTA+'s programmability — an extension
demonstrating the §II-C generality claim on a structure the paper did
not evaluate.
"""

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.geometry.vec import Vec3
from repro.gpu.isa import AccelCall, Compute
from repro.gpu.replay import launch_replayable, value_independent
from repro.kernels import common
from repro.kernels.common import StepTable, epilogue, prologue, visit_header
from repro.rta.traversal import TraversalJob
from repro.trees.kdtree import KDTree
from repro.trees.layout import NODE_STRIDE

#: plane delta + compare + descend select
_PLANE_ALU = 6
#: distance test + heap update per candidate
_CANDIDATE_ALU = 14


@dataclass
class KNNKernelArgs:
    tree: KDTree
    queries: Sequence[Vec3]
    k: int
    query_buf: int
    result_buf: int
    jobs: List[TraversalJob] = field(default_factory=list)
    results: dict = field(default_factory=dict)
    #: workload-owned recording cache for gpu/replay.py
    stream_cache: dict = None


@launch_replayable
@value_independent
def knn_baseline_kernel(tid: int, args: KNNKernelArgs):
    result = args.tree.knn(args.queries[tid], args.k)
    yield from prologue(args.query_buf + tid * 12, setup_alu=6)
    for visit in result.visits:
        yield from visit_header(visit.node.address, NODE_STRIDE)
        if visit.kind == "inner":
            yield Compute(_PLANE_ALU, common.TAG_INNER, kind="alu")
            yield Compute(3, common.TAG_INNER_NEXT, kind="control")
        else:
            for c in range(visit.tests):
                yield Compute(_CANDIDATE_ALU, common.TAG_LEAF + c,
                              kind="alu")
            yield Compute(3, common.TAG_LEAF_HIT, kind="control")
    yield from epilogue(args.result_buf + tid * 4 * args.k)
    args.results[tid] = result.ids


@launch_replayable
def knn_accel_kernel(tid: int, args: KNNKernelArgs):
    yield from prologue(args.query_buf + tid * 12, setup_alu=6)
    yield Compute(2, common.TAG_SETUP + 1, kind="alu")
    ids = yield AccelCall(args.jobs[tid], tag=common.TAG_SETUP + 2)
    yield from epilogue(args.result_buf + tid * 4 * args.k)
    args.results[tid] = ids


def build_knn_jobs(tree: KDTree, queries: Sequence[Vec3], k: int,
                   flavor: str = "tta") -> List[TraversalJob]:
    if flavor not in ("tta", "ttaplus"):
        raise ConfigurationError(
            f"kNN needs Query-Key/Point-to-Point support (got {flavor!r})"
        )
    step = StepTable().step
    jobs = []
    for qid, query in enumerate(queries):
        result = tree.knn(query, k)
        steps = []
        for visit in result.visits:
            if visit.kind == "inner":
                op = "query_key" if flavor == "tta" else "uop:knn_inner"
                steps.append(step(visit.node.address, NODE_STRIDE, op))
            else:
                op = "point_dist" if flavor == "tta" else "uop:rtnn_leaf"
                steps.append(step(visit.node.address, NODE_STRIDE, op,
                                  count=visit.tests))
        jobs.append(TraversalJob(qid, steps, result.ids))
    return jobs
