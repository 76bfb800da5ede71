"""Seeded differential test: shared step tables vs per-visit lowering.

Every lowering call hands out one shared ``Step`` per distinct field
tuple (:class:`repro.kernels.common.StepTable`).  For seeded workloads
of every lowering kind and flavor, the jobs must equal those of the
per-visit lowering kept in :mod:`tests.lowering_reference`, step for
step and result for result, and hold no more ``Step`` objects than
distinct field tuples.
"""

import pytest

from repro.kernels.btree_search import build_btree_jobs
from repro.kernels.common import StepTable
from repro.kernels.knn_search import build_knn_jobs
from repro.kernels.radius_search import build_radius_jobs
from repro.kernels.range_scan import build_range_scan_jobs
from repro.kernels.ray_trace import build_rt_jobs
from repro.kernels.rtree_query import build_rtree_jobs
from repro.rta import Step
from repro.serve import SERVE_SCALES, build_resident_index
from repro.workloads import (
    make_btree_workload,
    make_knn_workload,
    make_rtnn_workload,
    make_rtree_workload,
)
from repro.workloads.lumibench import make_lumibench_workload
from repro.workloads.rangescan import make_rangescan_workload
from repro.workloads.wknd import make_wknd_workload
from tests import lowering_reference as ref

SEEDS = (0, 7)


def assert_same_jobs(jobs, expected):
    assert [job.query_id for job in jobs] == \
        [job.query_id for job in expected]
    assert [job.steps for job in jobs] == [job.steps for job in expected]
    assert [job.result for job in jobs] == \
        [job.result for job in expected]
    assert [job.warp_buffer_reads for job in jobs] == \
        [job.warp_buffer_reads for job in expected]
    steps = [step for job in jobs for step in job.steps]
    assert all(type(step) is Step for step in steps)
    assert len({id(step) for step in steps}) <= \
        len({tuple(step) for step in steps})


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("variant", ["btree", "bstar", "bplus"])
@pytest.mark.parametrize("flavor", ["tta", "ttaplus"])
def test_btree(variant, flavor, seed):
    wl = make_btree_workload(variant, n_keys=1024, n_queries=300,
                             seed=seed)
    assert_same_jobs(build_btree_jobs(wl.tree, wl.queries, flavor),
                     ref.btree_jobs(wl.tree, wl.queries, flavor))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("xform", [True, False])
@pytest.mark.parametrize("flavor", ["rta", "tta", "ttaplus", "ttaplus_opt"])
def test_radius(flavor, xform, seed):
    wl = make_rtnn_workload(n_points=512, n_queries=64, seed=seed)
    assert_same_jobs(
        build_radius_jobs(wl.bvh, wl.queries, wl.radius, flavor, xform),
        ref.radius_jobs(wl.bvh, wl.queries, wl.radius, flavor, xform))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("flavor", ["tta", "ttaplus"])
def test_knn(flavor, seed):
    wl = make_knn_workload(n_points=512, n_queries=64, k=4, seed=seed)
    assert_same_jobs(build_knn_jobs(wl.tree, wl.queries, wl.k, flavor),
                     ref.knn_jobs(wl.tree, wl.queries, wl.k, flavor))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("flavor", ["tta", "ttaplus"])
def test_rtree(flavor, seed):
    wl = make_rtree_workload(n_rects=512, n_queries=64, seed=seed)
    assert_same_jobs(build_rtree_jobs(wl.tree, wl.windows, flavor),
                     ref.rtree_jobs(wl.tree, wl.windows, flavor))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("flavor", ["tta", "ttaplus"])
def test_range_scan(flavor, seed):
    wl = make_rangescan_workload(n_keys=1024, n_ranges=64, width=64,
                                 seed=seed)
    assert_same_jobs(build_range_scan_jobs(wl.tree, wl.ranges, flavor),
                     ref.range_scan_jobs(wl.tree, wl.ranges, flavor))


def _rt_reference(wl, flavor):
    return [[ref.rt_job(trace, True, tid, flavor, wl.leaf_geometry)
             for trace in traces]
            for tid, traces in enumerate(wl.visits_per_thread)]


@pytest.mark.parametrize("flavor", ["rta", "ttaplus", "ttaplus_opt"])
@pytest.mark.parametrize("scene", ["WKND_PT", "CORNELL_PT", "SHIP_SH"])
def test_ray_trace(scene, flavor):
    """One table per ``kernel_args`` call, shared by every ray."""
    if scene == "WKND_PT":
        wl = make_wknd_workload(width=6, height=6, n_spheres=40, seed=3)
    else:
        wl = make_lumibench_workload(scene, width=6, height=6, seed=3)
    per_thread = wl.kernel_args(flavor).jobs_per_thread
    expected = _rt_reference(wl, flavor)
    assert [len(jobs) for jobs in per_thread] == \
        [len(jobs) for jobs in expected]
    assert_same_jobs([job for jobs in per_thread for job in jobs],
                     [job for jobs in expected for job in jobs])


@pytest.mark.parametrize("flavor", ["rta", "ttaplus", "ttaplus_opt"])
@pytest.mark.parametrize("geometry", ["triangle", "sphere"])
def test_ray_trace_transforms(geometry, flavor):
    wl = make_wknd_workload(width=4, height=4, n_spheres=30, seed=5)
    table = StepTable()
    jobs, expected = [], []
    for tid, traces in enumerate(wl.visits_per_thread):
        for trace in traces:
            jobs.append(build_rt_jobs(trace, True, tid, flavor, geometry,
                                      xforms=2, table=table))
            expected.append(ref.rt_job(trace, True, tid, flavor, geometry,
                                       xforms=2))
    assert_same_jobs(jobs, expected)


_BATCH_REFERENCE = {
    "point": lambda wl, qs, flavor: ref.btree_jobs(wl.tree, qs, flavor),
    "range": lambda wl, qs, flavor: ref.rtree_jobs(wl.tree, qs, flavor),
    "knn": lambda wl, qs, flavor: ref.knn_jobs(wl.tree, qs, wl.k, flavor),
    "radius": lambda wl, qs, flavor: ref.radius_jobs(wl.bvh, qs, wl.radius,
                                                     flavor),
}


@pytest.mark.parametrize("flavor", ["tta", "ttaplus"])
@pytest.mark.parametrize("query_class", sorted(_BATCH_REFERENCE))
def test_resident_index_batches(query_class, flavor):
    """``ResidentIndex.batch_jobs`` lowers through the same tables;
    repeated and reordered qids reuse the memoized steps."""
    params = dict(SERVE_SCALES["smoke"][query_class], seed=4)
    index = build_resident_index(query_class, params)
    qids = [5, 1, 5, 9, 0, 1]
    jobs = index.batch_jobs(qids, flavor)
    payloads = [index._canonical[qid] for qid in qids]
    expected = _BATCH_REFERENCE[query_class](index.workload, payloads,
                                             flavor)
    for slot, job in enumerate(expected):
        job.query_id = slot
    assert_same_jobs(jobs, expected)
