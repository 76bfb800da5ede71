"""Per-visit job lowering, kept as the reference for the step tables.

These are the lowerings as they were before each lowering call shared
one :class:`~repro.rta.traversal.Step` per distinct field tuple
(:class:`repro.kernels.common.StepTable`): every (query, node) visit
builds its own ``Step``.  ``tests/test_lowering.py`` checks that the
shared-table jobs equal these step for step and result for result.
"""

from typing import List

from repro.kernels.radius_search import SHADER_INSTS_PER_TEST, radius_query
from repro.kernels.range_scan import _descend_path
from repro.kernels.ray_trace import SPHERE_SHADER_INSTS
from repro.rta.traversal import Step, TraversalJob
from repro.trees.layout import NODE_STRIDE


def btree_jobs(tree, queries, flavor="tta") -> List[TraversalJob]:
    jobs = []
    for qid, query in enumerate(queries):
        trace = tree.search(query)
        steps = []
        for node in trace.path:
            if flavor == "tta":
                op = "query_key"
            else:
                op = "uop:btree_leaf" if node.is_leaf else "uop:btree_inner"
            steps.append(Step(node.address, NODE_STRIDE, op))
        jobs.append(TraversalJob(qid, steps, trace.found))
    return jobs


def radius_jobs(bvh, queries, radius, flavor="rta",
                xform_per_query=True) -> List[TraversalJob]:
    inner_op = "uop:raybox" if flavor.startswith("ttaplus") else "box"
    jobs = []
    for qid, center in enumerate(queries):
        trace = radius_query(bvh, center, radius)
        steps = []
        if xform_per_query:
            steps.append(Step(-1, 0, "uop:xform"
                              if flavor.startswith("ttaplus") else "xform"))
        for visit in trace.visits:
            if visit.kind == "inner":
                steps.append(Step(visit.node.address, NODE_STRIDE, inner_op))
            elif flavor == "rta" or flavor == "ttaplus":
                steps.append(Step(visit.node.address, NODE_STRIDE, "shader",
                                  count=visit.tests,
                                  shader_insts=SHADER_INSTS_PER_TEST))
            elif flavor == "tta":
                steps.append(Step(visit.node.address, NODE_STRIDE,
                                  "point_dist", count=visit.tests))
            else:
                steps.append(Step(visit.node.address, NODE_STRIDE,
                                  "uop:rtnn_leaf", count=visit.tests))
        jobs.append(TraversalJob(qid, steps, trace.hits))
    return jobs


def knn_jobs(tree, queries, k, flavor="tta") -> List[TraversalJob]:
    jobs = []
    for qid, query in enumerate(queries):
        result = tree.knn(query, k)
        steps = []
        for visit in result.visits:
            if visit.kind == "inner":
                op = "query_key" if flavor == "tta" else "uop:knn_inner"
                steps.append(Step(visit.node.address, NODE_STRIDE, op))
            else:
                op = "point_dist" if flavor == "tta" else "uop:rtnn_leaf"
                steps.append(Step(visit.node.address, NODE_STRIDE, op,
                                  count=visit.tests))
        jobs.append(TraversalJob(qid, steps, result.ids))
    return jobs


def rtree_jobs(tree, windows, flavor="tta") -> List[TraversalJob]:
    op = "box" if flavor == "tta" else "uop:raybox"
    jobs = []
    for qid, window in enumerate(windows):
        trace = tree.range_query(window)
        steps = [Step(v.node.address, NODE_STRIDE, op)
                 for v in trace.visits]
        jobs.append(TraversalJob(qid, steps, trace.ids))
    return jobs


def range_scan_jobs(tree, ranges, flavor="tta") -> List[TraversalJob]:
    jobs = []
    for qid, (lo, _hi) in enumerate(ranges):
        path = _descend_path(tree, lo)
        steps = []
        for node in path:
            if flavor == "tta":
                op = "query_key"
            else:
                op = "uop:btree_leaf" if node.is_leaf else "uop:btree_inner"
            steps.append(Step(node.address, NODE_STRIDE, op))
        jobs.append(TraversalJob(qid, steps, tuple(path[-1].keys)))
    return jobs


def rt_job(visits, result, query_id, flavor="rta",
           leaf_geometry="triangle", xforms=0) -> TraversalJob:
    plus = flavor.startswith("ttaplus")
    inner_op = "uop:raybox" if plus else "box"
    xform_op = "uop:xform" if plus else "xform"
    steps = [Step(-1, 0, xform_op) for _ in range(xforms)]
    for visit in visits:
        if visit.kind == "inner":
            steps.append(Step(visit.node.address, NODE_STRIDE, inner_op))
        elif leaf_geometry == "triangle":
            leaf_op = "uop:raytri" if plus else "tri"
            steps.append(Step(visit.node.address, NODE_STRIDE, leaf_op,
                              count=visit.tests))
        elif flavor == "ttaplus_opt":
            steps.append(Step(visit.node.address, NODE_STRIDE,
                              "uop:raysphere", count=visit.tests))
        else:
            steps.append(Step(visit.node.address, NODE_STRIDE, "shader",
                              count=visit.tests,
                              shader_insts=SPHERE_SHADER_INSTS))
    return TraversalJob(query_id, steps, result)
