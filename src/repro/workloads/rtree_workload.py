"""Spatial-index workloads: R-Tree range queries over geo-like data.

Rectangles follow a clustered "points of interest" distribution (dense
urban clusters plus scattered singletons); query windows are small
view-port-like rectangles.  The golden reference is a brute-force
overlap scan.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.geometry.aabb import AABB
from repro.kernels.rtree_query import RTreeKernelArgs, build_rtree_jobs
from repro.memsys.memory_image import AddressSpace
from repro.rta.traversal import TraversalJob
from repro.trees.layout import TreeImage
from repro.trees.rtree import RectEntry, RTree, make_rect


@dataclass
class RTreeWorkload:
    tree: RTree
    entries: List[RectEntry]
    windows: List[AABB]
    image: TreeImage
    space: AddressSpace
    query_buf: int
    result_buf: int
    # Job lowering is pure per (tree, windows, flavor); cache it across
    # repeated runs of the same workload object.
    _jobs_cache: Dict[str, List[TraversalJob]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _stream_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def kernel_args(self, jobs: Sequence[TraversalJob] = ()) -> RTreeKernelArgs:
        return RTreeKernelArgs(
            tree=self.tree,
            windows=self.windows,
            query_buf=self.query_buf,
            result_buf=self.result_buf,
            jobs=list(jobs),
            stream_cache=self._stream_cache,
        )

    def jobs(self, flavor: str) -> List[TraversalJob]:
        cached = self._jobs_cache.get(flavor)
        if cached is None:
            cached = self._jobs_cache[flavor] = build_rtree_jobs(
                self.tree, self.windows, flavor=flavor)
        return cached

    @property
    def n_queries(self) -> int:
        return len(self.windows)

    def golden(self, window: AABB) -> Tuple[int, ...]:
        out = []
        for entry in self.entries:
            rect = entry.rect
            if (rect.lo.x <= window.hi.x and window.lo.x <= rect.hi.x
                    and rect.lo.y <= window.hi.y
                    and window.lo.y <= rect.hi.y):
                out.append(entry.data_id)
        return tuple(sorted(out))


def make_rtree_workload(n_rects: int = 8192, n_queries: int = 1024,
                        seed: int = 0, span: float = 1000.0,
                        window_size: float = 12.0, n_clusters: int = 32,
                        churn: Optional[str] = None) -> RTreeWorkload:
    """Clustered rectangles + small query windows, STR bulk-loaded.

    ``churn`` (``<mix>@<writes>``) pre-ages the tree with a seeded
    write burst before serving — see :mod:`repro.mutation`.
    """
    if n_rects < 4:
        raise ConfigurationError("need at least 4 rectangles")
    rng = random.Random(seed)
    clusters = [(rng.uniform(0, span), rng.uniform(0, span))
                for _ in range(n_clusters)]
    entries: List[RectEntry] = []
    for i in range(n_rects):
        if rng.random() < 0.8:
            cx, cy = clusters[rng.randrange(n_clusters)]
            x = rng.gauss(cx, span / 40)
            y = rng.gauss(cy, span / 40)
        else:
            x, y = rng.uniform(0, span), rng.uniform(0, span)
        w, h = rng.uniform(0.2, 4.0), rng.uniform(0.2, 4.0)
        entries.append(RectEntry(make_rect(x, y, x + w, y + h), i))

    tree = RTree.bulk_load(entries)
    windows = []
    for _ in range(n_queries):
        # Window centers biased toward clusters, like map viewports.
        if rng.random() < 0.7:
            cx, cy = clusters[rng.randrange(n_clusters)]
            x = rng.gauss(cx, span / 30)
            y = rng.gauss(cy, span / 30)
        else:
            x, y = rng.uniform(0, span), rng.uniform(0, span)
        windows.append(make_rect(x, y, x + window_size, y + window_size))

    space = AddressSpace()
    image = space.place_tree(tree.nodes())
    query_buf = space.alloc(16 * n_queries, align=128)
    result_buf = space.alloc(4 * n_queries, align=128)
    workload = RTreeWorkload(tree, entries, windows, image, space,
                             query_buf, result_buf)
    if churn is not None:
        from repro.mutation import apply_churn
        apply_churn(workload, "range", churn, seed=seed + 7)
    return workload
