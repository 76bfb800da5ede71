"""RTNN radius-search workloads [105] on synthetic LiDAR clouds (§IV-A).

Each data point becomes a sphere of the query radius; queries are a
random subset of the points themselves (the neighbor-search pattern of
point-cloud processing).  Golden results come from brute-force range
search over the raw points.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.batch import point_distance_below_batch, points_soa
from repro.geometry.sphere import Sphere
from repro.geometry.vec import Vec3
from repro.kernels.radius_search import (
    RadiusKernelArgs,
    build_radius_jobs,
    radius_query,
)
from repro.memsys.memory_image import AddressSpace
from repro.rta.traversal import TraversalJob
from repro.trees.bvh import BVH
from repro.trees.layout import TreeImage
from repro.workloads.pointcloud import synth_lidar_cloud


@dataclass
class RTNNWorkload:
    points: List[Vec3]
    radius: float
    bvh: BVH
    image: TreeImage
    space: AddressSpace
    queries: List[Vec3]
    query_buf: int
    result_buf: int
    # Job lowering is pure per (bvh, queries, radius, flavor); cache it
    # across repeated runs of the same workload object.
    _jobs_cache: Dict[str, List[TraversalJob]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _stream_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _points_soa: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False)
    #: prim_ids deleted by online mutation; tombstoned in ``points`` so
    #: ids stay stable, filtered out of golden results.
    _dead_points: set = field(
        default_factory=set, init=False, repr=False, compare=False)

    def kernel_args(self, jobs: Sequence[TraversalJob] = ()) -> RadiusKernelArgs:
        return RadiusKernelArgs(
            bvh=self.bvh,
            queries=self.queries,
            radius=self.radius,
            query_buf=self.query_buf,
            result_buf=self.result_buf,
            jobs=list(jobs),
            stream_cache=self._stream_cache,
        )

    def jobs(self, flavor: str) -> List[TraversalJob]:
        cached = self._jobs_cache.get(flavor)
        if cached is None:
            cached = self._jobs_cache[flavor] = build_radius_jobs(
                self.bvh, self.queries, self.radius, flavor=flavor)
        return cached

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    def golden(self, query: Vec3) -> Tuple[int, ...]:
        """Brute-force neighbor set via one batched Algorithm-2 sweep.

        ``p - query`` then squared-length-below-r² is exactly what
        :func:`point_distance_below_batch` computes, so the mask matches
        the old scalar comprehension bit-for-bit.
        """
        soa = self._points_soa
        if soa is None:
            soa = self._points_soa = points_soa(self.points)
        q = np.array((query.x, query.y, query.z), dtype=np.float64)
        mask = point_distance_below_batch(q, soa, self.radius)
        ids = np.flatnonzero(mask).tolist()
        dead = self._dead_points
        if dead:
            ids = [i for i in ids if i not in dead]
        return tuple(ids)

    def trace(self, query: Vec3):
        return radius_query(self.bvh, query, self.radius)


def make_rtnn_workload(n_points: int = 4096, n_queries: int = 512,
                       radius: float = 1.0, seed: int = 0,
                       max_leaf_size: int = 4,
                       churn: Optional[str] = None) -> RTNNWorkload:
    """``churn`` (``<mix>@<writes>``) pre-ages the BVH with a seeded
    write burst before serving — see :mod:`repro.mutation`."""
    if n_queries < 1:
        raise ConfigurationError("need at least one query")
    points = synth_lidar_cloud(n_points, seed=seed)
    spheres = [Sphere(p, radius, prim_id=i) for i, p in enumerate(points)]
    bvh = BVH(spheres, max_leaf_size=max_leaf_size, method="sah")
    rng = random.Random(seed + 1)
    queries = [points[rng.randrange(n_points)] for _ in range(n_queries)]

    space = AddressSpace()
    image = space.place_tree(bvh.nodes())
    query_buf = space.alloc(12 * n_queries, align=128)
    result_buf = space.alloc(4 * n_queries, align=128)
    workload = RTNNWorkload(points, radius, bvh, image, space, queries,
                            query_buf, result_buf)
    if churn is not None:
        from repro.mutation import apply_churn
        apply_churn(workload, "radius", churn, seed=seed + 7)
    return workload
