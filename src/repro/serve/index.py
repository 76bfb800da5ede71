"""Resident indexes: warm trees serving query batches.

A :class:`ResidentIndex` wraps one built workload object — tree, memory
image, canonical query stream — and keeps it alive across an unbounded
number of query batches, the way a production index server holds its
B-Tree or R-Tree in memory between requests.  Each *query class* maps
onto one of the repo's workload families:

==========  =========  ==========================================
``point``   btree      key membership lookup (Algorithm 1)
``range``   rtree      rectangular window scan
``knn``     knn        k-nearest-neighbour search (k-d tree)
``radius``  rtnn       fixed-radius neighbour search (BVH)
==========  =========  ==========================================

Indexes are always built in process from their construction
parameters; nothing is read from or written to disk.  One build serves
every platform the loadtest sweeps (each leg forks it).

The index also owns per-query *job lowering* memoization: lowering a
query's traversal into accelerator steps is pure per (tree, query,
flavor), so a query that appears in many batches lowers once and only
the per-batch :class:`~repro.rta.traversal.TraversalJob` wrapper (which
carries the batch-local thread id) is rebuilt.
"""

import copy
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.rta.traversal import TraversalJob

#: Platforms every query class can serve.  ``radius`` additionally
#: accepts ``rta`` (stock ray accelerator with intersection shaders).
SERVE_PLATFORMS = ("gpu", "tta", "ttaplus")


@dataclass(frozen=True)
class QueryClassSpec:
    """How one query class builds, lowers, and launches."""

    name: str
    kind: str                       # workload family (exec KINDS member)
    platforms: Tuple[str, ...]
    make_workload: Callable[..., Any]
    baseline_kernel: Callable
    accel_kernel: Callable
    payloads: Callable[[Any], Sequence[Any]]      # canonical query stream
    build_jobs: Callable[[Any, Sequence[Any], str], List[TraversalJob]]
    make_args: Callable[[Any, Sequence[Any], List[TraversalJob]], Any]


def _specs() -> Dict[str, QueryClassSpec]:
    from repro.kernels.btree_search import (
        BTreeKernelArgs,
        btree_accel_kernel,
        btree_baseline_kernel,
        build_btree_jobs,
    )
    from repro.kernels.knn_search import (
        KNNKernelArgs,
        build_knn_jobs,
        knn_accel_kernel,
        knn_baseline_kernel,
    )
    from repro.kernels.radius_search import (
        RadiusKernelArgs,
        build_radius_jobs,
        radius_accel_kernel,
        radius_baseline_kernel,
    )
    from repro.kernels.rtree_query import (
        RTreeKernelArgs,
        build_rtree_jobs,
        rtree_accel_kernel,
        rtree_baseline_kernel,
    )
    from repro.workloads import (
        make_btree_workload,
        make_knn_workload,
        make_rtnn_workload,
        make_rtree_workload,
    )

    return {
        "point": QueryClassSpec(
            name="point", kind="btree", platforms=SERVE_PLATFORMS,
            make_workload=make_btree_workload,
            baseline_kernel=btree_baseline_kernel,
            accel_kernel=btree_accel_kernel,
            payloads=lambda wl: wl.queries,
            build_jobs=lambda wl, qs, flavor: build_btree_jobs(
                wl.tree, qs, flavor=flavor),
            make_args=lambda wl, qs, jobs: BTreeKernelArgs(
                tree=wl.tree, queries=qs, query_buf=wl.query_buf,
                result_buf=wl.result_buf, jobs=jobs),
        ),
        "range": QueryClassSpec(
            name="range", kind="rtree", platforms=SERVE_PLATFORMS,
            make_workload=make_rtree_workload,
            baseline_kernel=rtree_baseline_kernel,
            accel_kernel=rtree_accel_kernel,
            payloads=lambda wl: wl.windows,
            build_jobs=lambda wl, qs, flavor: build_rtree_jobs(
                wl.tree, qs, flavor=flavor),
            make_args=lambda wl, qs, jobs: RTreeKernelArgs(
                tree=wl.tree, windows=qs, query_buf=wl.query_buf,
                result_buf=wl.result_buf, jobs=jobs),
        ),
        "knn": QueryClassSpec(
            name="knn", kind="knn", platforms=SERVE_PLATFORMS,
            make_workload=make_knn_workload,
            baseline_kernel=knn_baseline_kernel,
            accel_kernel=knn_accel_kernel,
            payloads=lambda wl: wl.queries,
            build_jobs=lambda wl, qs, flavor: build_knn_jobs(
                wl.tree, qs, wl.k, flavor=flavor),
            make_args=lambda wl, qs, jobs: KNNKernelArgs(
                tree=wl.tree, queries=qs, k=wl.k, query_buf=wl.query_buf,
                result_buf=wl.result_buf, jobs=jobs),
        ),
        "radius": QueryClassSpec(
            name="radius", kind="rtnn",
            platforms=SERVE_PLATFORMS + ("rta",),
            make_workload=make_rtnn_workload,
            baseline_kernel=radius_baseline_kernel,
            accel_kernel=radius_accel_kernel,
            payloads=lambda wl: wl.queries,
            build_jobs=lambda wl, qs, flavor: build_radius_jobs(
                wl.bvh, qs, wl.radius, flavor=flavor),
            make_args=lambda wl, qs, jobs: RadiusKernelArgs(
                bvh=wl.bvh, queries=qs, radius=wl.radius,
                query_buf=wl.query_buf, result_buf=wl.result_buf,
                jobs=jobs),
        ),
    }


_SPEC_CACHE: Dict[str, QueryClassSpec] = {}


def query_class_spec(query_class: str) -> QueryClassSpec:
    if not _SPEC_CACHE:
        _SPEC_CACHE.update(_specs())
    spec = _SPEC_CACHE.get(query_class)
    if spec is None:
        raise ConfigurationError(
            f"unknown query class {query_class!r}; "
            f"known: {sorted(_SPEC_CACHE)}"
        )
    return spec


QUERY_CLASSES = ("point", "range", "knn", "radius")

#: Per query class, the workload containers besides the tree that the
#: write path changes in place (see :mod:`repro.mutation.mutators`).
_WRITTEN: Dict[str, Tuple[str, ...]] = {
    "point": ("golden",),
    "range": ("entries",),
    "knn": (),
    "radius": ("points", "_dead_points"),
}

#: Per-scale construction parameters for the CLI/loadtest presets.
#: ``n_queries`` doubles as the canonical stream length *and* the
#: query/result buffer capacity — the largest batch one launch can hold.
SERVE_SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "smoke": {
        "point": dict(n_keys=2048, n_queries=512),
        "range": dict(n_rects=2048, n_queries=256),
        "knn": dict(n_points=2048, n_queries=256, k=4),
        "radius": dict(n_points=2048, n_queries=256),
    },
    "small": {
        "point": dict(n_keys=16384, n_queries=2048),
        "range": dict(n_rects=8192, n_queries=1024),
        "knn": dict(n_points=8192, n_queries=1024, k=8),
        "radius": dict(n_points=8192, n_queries=1024),
    },
    "large": {
        "point": dict(n_keys=65536, n_queries=4096),
        "range": dict(n_rects=16384, n_queries=2048),
        "knn": dict(n_points=16384, n_queries=2048, k=8),
        "radius": dict(n_points=16384, n_queries=2048),
    },
}


class ResidentIndex:
    """One warm index: built once, serving batches until shutdown."""

    def __init__(self, query_class: str, workload: Any,
                 params: Optional[Dict[str, Any]] = None,
                 build_seconds: float = 0.0):
        self.spec = query_class_spec(query_class)
        self.query_class = query_class
        self.workload = workload
        self.params = dict(params or {})
        self.build_seconds = build_seconds
        self._canonical: Sequence[Any] = self.spec.payloads(workload)
        # (flavor, canonical qid) -> (steps, functional result); the
        # TraversalJob wrapper is rebuilt per batch with the batch-local
        # thread id.
        self._lowered: Dict[Tuple[str, int], Tuple[list, Any]] = {}

    # -- canonical query stream ------------------------------------------------
    @property
    def capacity(self) -> int:
        """Largest batch one launch can hold (buffer sizing)."""
        return len(self._canonical)

    @property
    def n_canonical(self) -> int:
        return len(self._canonical)

    def payload(self, qid: int) -> Any:
        return self._canonical[qid]

    # -- batch assembly --------------------------------------------------------
    def batch_jobs(self, qids: Sequence[int], flavor: str
                   ) -> List[TraversalJob]:
        """Lower canonical queries ``qids`` for ``flavor``, memoized
        per query so repeat appearances across batches lower once."""
        missing = [qid for qid in qids
                   if (flavor, qid) not in self._lowered]
        if missing:
            fresh = self.spec.build_jobs(
                self.workload, [self._canonical[qid] for qid in missing],
                flavor)
            for qid, job in zip(missing, fresh):
                self._lowered[(flavor, qid)] = (job.steps, job.result)
        jobs = []
        for slot, qid in enumerate(qids):
            steps, result = self._lowered[(flavor, qid)]
            jobs.append(TraversalJob(slot, steps, result))
        return jobs

    def batch_args(self, payloads: Sequence[Any],
                   jobs: List[TraversalJob]) -> Any:
        if len(payloads) > self.capacity:
            raise ConfigurationError(
                f"batch of {len(payloads)} exceeds the {self.query_class} "
                f"index's buffer capacity ({self.capacity}); raise the "
                f"index's n_queries or lower the batching policy's "
                f"max_batch"
            )
        return self.spec.make_args(self.workload, payloads, jobs)

    # -- forking --------------------------------------------------------------
    def fork(self) -> "ResidentIndex":
        """An independent twin, as warm as this index, made eagerly.

        The twin copies every container that a write, a refresh or a
        launch changes in place: the tree's nodes and their lists, the
        workload's write-path containers (:data:`_WRITTEN`), its address
        space and image, its job/stream caches and this lowering memo.
        It shares what nothing changes in place: points, boxes,
        primitives, query payloads, the lowered ``Step`` lists and
        results, and the numpy columns of a BVH's SoA view.
        """
        memo: Dict[int, Any] = {}
        workload = copy.copy(self.workload)
        tree_attr = "bvh" if self.query_class == "radius" else "tree"
        setattr(workload, tree_attr,
                getattr(self.workload, tree_attr).fork(memo))
        for name in _WRITTEN[self.query_class]:
            setattr(workload, name, copy.copy(getattr(workload, name)))
        workload.space = self.workload.space.fork(memo)
        workload.image = memo[id(self.workload.image)]
        workload._jobs_cache = dict(workload._jobs_cache)
        workload._stream_cache = dict(workload._stream_cache)
        twin = copy.copy(self)
        twin.workload = workload
        twin.params = dict(self.params)
        twin._lowered = dict(self._lowered)
        return twin

    def __deepcopy__(self, memo: Dict[int, Any]) -> "ResidentIndex":
        # Every deep copy of an index, alone or inside a container, is
        # a fork.
        twin = memo[id(self)] = self.fork()
        return twin

    def __repr__(self) -> str:
        return (f"ResidentIndex({self.query_class}/{self.spec.kind}, "
                f"capacity={self.capacity}, "
                f"built in {self.build_seconds:.2f}s)")


def build_resident_index(query_class: str,
                         params: Optional[Dict[str, Any]] = None
                         ) -> ResidentIndex:
    """Build one resident index in process from its parameters."""
    spec = query_class_spec(query_class)
    params = dict(params or {})
    started = time.monotonic()
    workload = spec.make_workload(**params)
    return ResidentIndex(query_class, workload, params,
                         build_seconds=time.monotonic() - started)
