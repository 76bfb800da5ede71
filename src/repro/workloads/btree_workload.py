"""B-Tree / B*Tree / B+Tree query workloads (§IV-A).

The paper queries 1M random keys against trees of 10k-4M keys; the
scaled defaults here preserve the queries-per-key ratios and tree
depths (see DESIGN.md §6).  Golden results come from plain set
membership.
"""

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.kernels.btree_search import BTreeKernelArgs, build_btree_jobs
from repro.memsys.memory_image import AddressSpace
from repro.rta.traversal import TraversalJob
from repro.trees import BPlusTree, BStarTree, BTree
from repro.trees.layout import TreeImage

VARIANTS = {
    "btree": BTree,
    "bstar": BStarTree,
    "bplus": BPlusTree,
}


@dataclass
class BTreeWorkload:
    """One B-Tree query experiment instance."""

    variant: str
    tree: object
    image: TreeImage
    queries: List[int]
    golden: List[bool]
    space: AddressSpace
    query_buf: int
    result_buf: int
    # Job lowering is pure per (tree, queries, flavor); cache it across
    # repeated runs of the same workload object.
    _jobs_cache: Dict[str, List[TraversalJob]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _stream_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def kernel_args(self, jobs: Sequence[TraversalJob] = ()) -> BTreeKernelArgs:
        return BTreeKernelArgs(
            tree=self.tree,
            queries=self.queries,
            query_buf=self.query_buf,
            result_buf=self.result_buf,
            jobs=list(jobs),
            stream_cache=self._stream_cache,
        )

    def jobs(self, flavor: str) -> List[TraversalJob]:
        cached = self._jobs_cache.get(flavor)
        if cached is None:
            cached = self._jobs_cache[flavor] = build_btree_jobs(
                self.tree, self.queries, flavor=flavor)
        return cached

    @property
    def n_queries(self) -> int:
        return len(self.queries)


def make_btree_workload(variant: str = "btree", n_keys: int = 16_384,
                        n_queries: int = 8_192, seed: int = 0,
                        hit_fraction: float = 0.5,
                        churn: Optional[str] = None) -> BTreeWorkload:
    """Build a tree of ``n_keys`` random keys plus a random query stream.

    ``hit_fraction`` of the queries are present keys; the rest miss, as
    with the paper's uniformly random key queries.  ``churn`` (a
    ``<mix>@<writes>`` spec, see :func:`repro.mutation.parse_churn`)
    pre-ages the tree with a seeded write burst — the campaign axis for
    measuring decayed-index serving.
    """
    if variant not in VARIANTS:
        raise ConfigurationError(
            f"variant must be one of {sorted(VARIANTS)}, got {variant!r}"
        )
    if not 0 <= hit_fraction <= 1:
        raise ConfigurationError("hit_fraction must be in [0, 1]")
    rng = random.Random(seed)
    key_space = max(4 * n_keys, n_keys + n_queries + 1)
    keys = rng.sample(range(key_space), n_keys)
    tree = VARIANTS[variant].bulk_load(sorted(keys), seed=seed)

    present = set(keys)
    queries: List[int] = []
    for _ in range(n_queries):
        if rng.random() < hit_fraction:
            queries.append(keys[rng.randrange(n_keys)])
        else:
            while True:
                q = rng.randrange(key_space)
                if q not in present:
                    queries.append(q)
                    break
    golden = [q in present for q in queries]

    space = AddressSpace()
    image = space.place_tree(tree.nodes())
    query_buf = space.alloc(4 * n_queries, align=128)
    result_buf = space.alloc(4 * n_queries, align=128)
    workload = BTreeWorkload(variant, tree, image, queries, golden, space,
                             query_buf, result_buf)
    if churn is not None:
        from repro.mutation import apply_churn
        apply_churn(workload, "point", churn, seed=seed + 7)
    return workload


def verify_results(workload: BTreeWorkload, results: Dict[int, bool]) -> None:
    """Raise AssertionError unless results match the golden membership."""
    assert len(results) == workload.n_queries, (
        f"expected {workload.n_queries} results, got {len(results)}"
    )
    for tid, expected in enumerate(workload.golden):
        assert results[tid] == expected, (
            f"query {tid} ({workload.queries[tid]}): "
            f"got {results[tid]}, expected {expected}"
        )
