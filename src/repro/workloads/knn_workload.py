"""kNN workloads: k-d tree neighbor queries on LiDAR-like clouds."""

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.geometry.vec import Vec3
from repro.kernels.knn_search import KNNKernelArgs, build_knn_jobs
from repro.memsys.memory_image import AddressSpace
from repro.rta.traversal import TraversalJob
from repro.trees.kdtree import KDTree
from repro.trees.layout import TreeImage
from repro.workloads.pointcloud import synth_lidar_cloud


@dataclass
class KNNWorkload:
    tree: KDTree
    queries: List[Vec3]
    k: int
    image: TreeImage
    space: AddressSpace
    query_buf: int
    result_buf: int
    # Job lowering is pure per (tree, queries, k, flavor); cache it
    # across repeated runs of the same workload object.
    _jobs_cache: Dict[str, List[TraversalJob]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _stream_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def kernel_args(self, jobs: Sequence[TraversalJob] = ()) -> KNNKernelArgs:
        return KNNKernelArgs(
            tree=self.tree,
            queries=self.queries,
            k=self.k,
            query_buf=self.query_buf,
            result_buf=self.result_buf,
            jobs=list(jobs),
            stream_cache=self._stream_cache,
        )

    def jobs(self, flavor: str) -> List[TraversalJob]:
        cached = self._jobs_cache.get(flavor)
        if cached is None:
            cached = self._jobs_cache[flavor] = build_knn_jobs(
                self.tree, self.queries, self.k, flavor=flavor)
        return cached

    @property
    def n_queries(self) -> int:
        return len(self.queries)

    def golden(self, query: Vec3) -> Tuple[int, ...]:
        return self.tree.brute_force_knn(query, self.k)


def make_knn_workload(n_points: int = 8192, n_queries: int = 1024,
                      k: int = 8, seed: int = 0, max_leaf_size: int = 8,
                      churn: Optional[str] = None) -> KNNWorkload:
    """``churn`` (``<mix>@<writes>``) pre-ages the tree with a seeded
    write burst before serving — see :mod:`repro.mutation`."""
    if k < 1 or k > n_points:
        raise ConfigurationError("need 1 <= k <= n_points")
    points = synth_lidar_cloud(n_points, seed=seed)
    tree = KDTree(points, max_leaf_size=max_leaf_size)
    rng = random.Random(seed + 1)
    queries = [points[rng.randrange(n_points)] for _ in range(n_queries)]

    space = AddressSpace()
    image = space.place_tree(tree.nodes())
    query_buf = space.alloc(12 * n_queries, align=128)
    result_buf = space.alloc(4 * k * n_queries, align=128)
    workload = KNNWorkload(tree, queries, k, image, space, query_buf,
                           result_buf)
    if churn is not None:
        from repro.mutation import apply_churn
        apply_churn(workload, "knn", churn, seed=seed + 7)
    return workload
