"""RTNN-style radius search kernels.

Following RTNN [105], every data point becomes a sphere of the query
radius and the BVH is built over the inflated point AABBs; a query then
traverses the BVH from its center.  Inner nodes use the stock Ray-Box
test, so the *baseline* accelerated implementation already runs on an
unmodified RTA — but its leaf test (point-in-sphere) must run as an
*intersection shader* on the SIMT cores.  TTA replaces that shader with
the Point-to-Point unit, and TTA+ with the 5-µop leaf program of
Table III (*RTNN).
"""

from dataclasses import dataclass, field
from typing import Any, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.batch import contains_points_batch, point_distance_below_batch
from repro.geometry.intersect import point_distance_below
from repro.geometry.vec import Vec3
from repro.gpu.isa import AccelCall, Compute
from repro.gpu.replay import launch_replayable, value_independent
from repro.kernels import common
from repro.kernels.common import StepTable, epilogue, prologue, visit_header
from repro.rta.traversal import TraversalJob
from repro.trees.layout import NODE_STRIDE

#: scalarized point-in-AABB test
_BOX_TEST_ALU = 12
#: distance test per candidate point
_DIST_TEST_ALU = 10
#: instruction cost of one ray-sphere intersection-shader invocation
SHADER_INSTS_PER_TEST = 35


class RadiusVisit(NamedTuple):
    node: Any
    kind: str    # "inner" | "leaf"
    tests: int   # candidate points tested at a leaf
    hit: bool


class RadiusQueryTrace(NamedTuple):
    hits: Tuple[int, ...]
    visits: Tuple[RadiusVisit, ...]


def radius_query_scalar(bvh, center: Vec3, radius: float) -> RadiusQueryTrace:
    """Scalar reference: one node-containment/distance test at a time."""
    visits: List[RadiusVisit] = []
    hits: List[int] = []
    stack = [bvh.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            found = 0
            for sphere in bvh.leaf_prims(node):
                if point_distance_below(center, sphere.center, radius):
                    hits.append(sphere.prim_id)
                    found += 1
            visits.append(RadiusVisit(node, "leaf", node.prim_count,
                                      found > 0))
        else:
            inside = node.bounds.contains_point(center)
            visits.append(RadiusVisit(node, "inner", 1, inside))
            if inside:
                stack.append(node.right)
                stack.append(node.left)
    return RadiusQueryTrace(tuple(sorted(hits)), tuple(visits))


def radius_query(bvh, center: Vec3, radius: float) -> RadiusQueryTrace:
    """Functional radius search over a BVH of inflated point-spheres.

    Vectorized: both sweeps a query can ever need — point-in-AABB over
    every node and Algorithm-2 distance over every primitive — run as
    two batch kernels up front, then a pure-Python DFS replays the exact
    scalar visit order against the precomputed masks.  Falls back to
    :func:`radius_query_scalar` for trees without a sphere SoA view.
    """
    soa = bvh.soa() if hasattr(bvh, "soa") else None
    if soa is None or soa.prim_kind != "sphere":
        return radius_query_scalar(bvh, center, radius)
    c = np.array((center.x, center.y, center.z), dtype=np.float64)
    inside_all = contains_points_batch(soa.lo, soa.hi, c).tolist()
    below_all = point_distance_below_batch(c, soa.centers, radius).tolist()
    nodes, prim_ids = soa.nodes, soa.prim_id_list
    left, right = soa.left_list, soa.right_list
    first, count = soa.first_list, soa.count_list

    visits: List[RadiusVisit] = []
    hits: List[int] = []
    stack = [0]
    while stack:
        i = stack.pop()
        child = left[i]
        if child < 0:
            found = 0
            for k in range(first[i], first[i] + count[i]):
                if below_all[k]:
                    hits.append(prim_ids[k])
                    found += 1
            visits.append(RadiusVisit(nodes[i], "leaf", count[i], found > 0))
        else:
            inside = inside_all[i]
            visits.append(RadiusVisit(nodes[i], "inner", 1, inside))
            if inside:
                stack.append(right[i])
                stack.append(child)
    return RadiusQueryTrace(tuple(sorted(hits)), tuple(visits))


@dataclass
class RadiusKernelArgs:
    bvh: Any
    queries: Sequence[Vec3]
    radius: float
    query_buf: int
    result_buf: int
    jobs: List[TraversalJob] = field(default_factory=list)
    results: dict = field(default_factory=dict)
    #: workload-owned recording cache for gpu/replay.py
    stream_cache: dict = None


@launch_replayable
@value_independent
def radius_baseline_kernel(tid: int, args: RadiusKernelArgs):
    """Software radius search on the SIMT cores (the CUDA comparator)."""
    trace = radius_query(args.bvh, args.queries[tid], args.radius)
    yield from prologue(args.query_buf + tid * 12, setup_alu=5)
    for visit in trace.visits:
        yield from visit_header(visit.node.address, NODE_STRIDE)
        if visit.kind == "inner":
            yield Compute(_BOX_TEST_ALU, common.TAG_INNER, kind="alu")
            yield Compute(3, common.TAG_INNER_NEXT, kind="control")
        else:
            # One tagged op per candidate point: leaves with different
            # occupancy serialize across the warp.
            for k in range(visit.tests):
                yield Compute(_DIST_TEST_ALU, common.TAG_LEAF + k,
                              kind="alu")
            yield Compute(2, common.TAG_LEAF_HIT, kind="control")
    yield from epilogue(args.result_buf + tid * 4)
    args.results[tid] = trace.hits


@launch_replayable
def radius_accel_kernel(tid: int, args: RadiusKernelArgs):
    yield from prologue(args.query_buf + tid * 12, setup_alu=5)
    yield Compute(2, common.TAG_SETUP + 1, kind="alu")
    hits = yield AccelCall(args.jobs[tid], tag=common.TAG_SETUP + 2)
    yield from epilogue(args.result_buf + tid * 4)
    args.results[tid] = hits


_FLAVORS = ("rta", "tta", "ttaplus", "ttaplus_opt")


def build_radius_jobs(bvh, queries: Sequence[Vec3], radius: float,
                      flavor: str = "rta",
                      xform_per_query: bool = True) -> List[TraversalJob]:
    """Lower radius queries into accelerator steps for each design point.

    ================  ==========================================================
    ``rta``           baseline RTNN: Ray-Box inner, intersection-shader leaf
    ``tta``           shader replaced by the Point-to-Point unit
    ``ttaplus``       naive port: µop Ray-Box inner, still shader leaf
    ``ttaplus_opt``   *RTNN: µop Ray-Box inner, µop Point-to-Point leaf
    ================  ==========================================================

    ``xform_per_query`` charges the two-level R-XFORM crossing noted under
    Table III.
    """
    if flavor not in _FLAVORS:
        raise ConfigurationError(f"unknown radius-search flavor {flavor!r}")
    inner_op = "uop:raybox" if flavor.startswith("ttaplus") else "box"
    step = StepTable().step
    jobs = []
    for qid, center in enumerate(queries):
        trace = radius_query(bvh, center, radius)
        steps = []
        if xform_per_query:
            steps.append(step(-1, 0, "uop:xform"
                              if flavor.startswith("ttaplus") else "xform"))
        for visit in trace.visits:
            if visit.kind == "inner":
                steps.append(step(visit.node.address, NODE_STRIDE, inner_op))
            elif flavor == "rta" or flavor == "ttaplus":
                steps.append(step(visit.node.address, NODE_STRIDE, "shader",
                                  count=visit.tests,
                                  shader_insts=SHADER_INSTS_PER_TEST))
            elif flavor == "tta":
                steps.append(step(visit.node.address, NODE_STRIDE,
                                  "point_dist", count=visit.tests))
            else:  # ttaplus_opt (*RTNN)
                steps.append(step(visit.node.address, NODE_STRIDE,
                                  "uop:rtnn_leaf", count=visit.tests))
        jobs.append(TraversalJob(qid, steps, trace.hits))
    return jobs
