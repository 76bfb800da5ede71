"""B-Tree / B*Tree / B+Tree search kernels (Algorithm 1).

``btree_baseline_kernel`` is the CUDA-style while-loop search executed
on the SIMT cores, built warp by warp from the queries' search paths
(a :func:`~repro.gpu.replay.warp_builder`).  ``btree_accel_kernel``
offloads the whole traversal with one ``traverseTreeTTA`` instruction.
``build_btree_jobs`` lowers the functional search paths into
accelerator step sequences:

* TTA — every node (inner and leaf) is one 9-wide Query-Key comparison
  on the modified Ray-Box unit;
* TTA+ — inner nodes run the 12-µop program and leaves the 3-µop
  program of Table III.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, List, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.gpu.isa import AccelCall, Compute
from repro.gpu.replay import WarpTrace, launch_replayable, warp_builder
from repro.kernels import common
from repro.kernels.common import (
    LOOP_HEAD,
    StepTable,
    compute_steps,
    epilogue,
    epilogue_steps,
    load_step,
    prologue,
    prologue_steps,
)
from repro.rta.traversal import TraversalJob
from repro.trees.layout import NODE_STRIDE

#: instructions per key-scan iteration (load key, compare, two branches)
_PER_KEY_ALU = 6
#: child-pointer arithmetic after routing
_CHILD_SELECT_ALU = 5
#: found/miss bookkeeping on a leaf
_LEAF_EXIT_CONTROL = 3

# One key-scan iteration (tagged TAG_INNER/TAG_LEAF + k for key k) and
# the inner and leaf tails after the scan.
_KEY_SCAN = (Compute(_PER_KEY_ALU, common.TAG_INNER, kind="alu"),
             Compute(2, common.TAG_INNER, kind="control"))
_INNER_TAIL = Compute(_CHILD_SELECT_ALU, common.TAG_INNER_NEXT, kind="alu")
_LEAF_TAIL = Compute(_LEAF_EXIT_CONTROL, common.TAG_LEAF_HIT,
                     kind="control")
#: Scan depths whose tags stay below the tails' (TAG_INNER + k <
#: TAG_INNER_NEXT, TAG_LEAF + k < TAG_LEAF_HIT).
_SCAN_SLOTS = common.TAG_INNER_NEXT - common.TAG_INNER


@dataclass
class BTreeKernelArgs:
    """Everything one launch of the B-Tree search kernel needs."""

    tree: Any
    queries: Sequence[int]
    query_buf: int
    result_buf: int
    jobs: List[TraversalJob] = field(default_factory=list)
    results: dict = field(default_factory=dict)
    #: workload-owned recording cache for gpu/replay.py (None = keep
    #: nothing; the baseline's warp traces are pure per workload)
    stream_cache: dict = None


def _keys_scanned(node, query: int) -> int:
    """How many keys Algorithm 1's loop touches before routing/exiting."""
    for i, key in enumerate(node.keys):
        if query <= key:
            return i + 1
    return max(1, len(node.keys))


@launch_replayable
@warp_builder
def btree_baseline_kernel(thread_ids: Sequence[int], args: BTreeKernelArgs,
                          sector_size: int) -> WarpTrace:
    """One thread = one query, searched with the software while-loop.

    Each lane runs the prologue, then per node of its search path the
    loop head and node fetch, a second load for the separate key and
    child-pointer arrays, one compare and one branch op per scanned key
    (tag ``TAG_INNER``/``TAG_LEAF`` + k: Algorithm 1's loop breaks at a
    data-dependent iteration, so a warp serializes on its longest scan
    while shorter lanes idle — the divergence of Fig. 1), and the inner
    or leaf tail; then the epilogue.

    Under the lowest-tag-first rule of :meth:`Warp.schedule
    <repro.gpu.warp.Warp.schedule>` the lanes at a loop head issue it
    together, inner-node scans and tails run before any leaf scan, and
    lanes that leave the loop wait at the epilogue.  So the warp's
    trace is a few groups per pass of the loop, emitted here from the
    search paths without running the lanes.
    """
    search = args.tree.search
    queries = [args.queries[tid] for tid in thread_ids]
    paths = [search(query) for query in queries]
    steps = list(prologue_steps([args.query_buf + 4 * tid
                                 for tid in thread_ids], sector_size))
    # Every lane at a loop head visits its path's node at the same
    # depth: lanes only reach a loop head from an inner node's tail.
    live = [(query, trace.path) for query, trace in zip(queries, paths)]
    leaf_scans: List[int] = []
    depth = 0
    while live:
        active = len(live)
        nodes = [path[depth] for _, path in live]
        addresses = {node.address for node in nodes}
        steps += compute_steps(LOOP_HEAD, active)
        # The key and child-pointer arrays are separate structures in
        # CUDA B-Tree layouts: a second divergent load per visit.
        steps.append(load_step(active, [(addr, NODE_STRIDE)
                                        for addr in addresses], sector_size))
        half = NODE_STRIDE // 2
        steps.append(load_step(active, [(addr + half, half)
                                        for addr in addresses], sector_size))
        inner_scans = []
        deeper = []
        for lane, node in zip(live, nodes):
            scanned = _keys_scanned(node, lane[0])
            if node.is_leaf:
                leaf_scans.append(scanned)
                continue
            inner_scans.append(scanned)
            if len(lane[1]) > depth + 1:
                deeper.append(lane)
        if inner_scans:
            _scan(steps, inner_scans)
            steps += compute_steps((_INNER_TAIL,), len(inner_scans))
        live = deeper
        depth += 1
    if leaf_scans:
        _scan(steps, leaf_scans)
        steps += compute_steps((_LEAF_TAIL,), len(leaf_scans))
    steps += epilogue_steps([args.result_buf + 4 * tid for tid in thread_ids],
                            sector_size)
    return WarpTrace(steps, tuple((tid, trace.found)
                                  for tid, trace in zip(thread_ids, paths)))


def _scan(steps: list, scanned: List[int]) -> None:
    """Append the key-scan groups of lanes that scan ``scanned`` keys:
    depth ``k`` issues one compare/branch pair over the lanes with more
    than ``k`` keys to scan."""
    deepest = max(scanned)
    if deepest > _SCAN_SLOTS:
        raise SimulationError(
            f"a node scan of {deepest} keys overruns the kernel's "
            f"{_SCAN_SLOTS} scan tags; B-Tree orders above {_SCAN_SLOTS} "
            "are not modelled"
        )
    ending = Counter(scanned)
    active = len(scanned)
    for k in range(deepest):
        steps += compute_steps(_KEY_SCAN, active)
        active -= ending[k + 1]


@launch_replayable
def btree_accel_kernel(tid: int, args: BTreeKernelArgs):
    """Setup + one traverseTreeTTA + writeback (the TTA programming model)."""
    yield from prologue(args.query_buf + tid * 4)
    yield Compute(2, common.TAG_SETUP + 1, kind="alu")  # pack ray payload
    found = yield AccelCall(args.jobs[tid], tag=common.TAG_SETUP + 2)
    yield from epilogue(args.result_buf + tid * 4)
    args.results[tid] = found


def build_btree_jobs(tree, queries: Sequence[int],
                     flavor: str = "tta") -> List[TraversalJob]:
    """Lower each query's search path into accelerator steps (one
    shared step per node and op, see :class:`StepTable`)."""
    if flavor not in ("tta", "ttaplus"):
        raise ConfigurationError(
            f"B-Tree search needs Query-Key support; baseline RTAs cannot "
            f"run it (got flavor {flavor!r})"
        )
    step = StepTable().step
    jobs = []
    for qid, query in enumerate(queries):
        trace = tree.search(query)
        steps = []
        for node in trace.path:
            if flavor == "tta":
                op = "query_key"
            else:
                op = "uop:btree_leaf" if node.is_leaf else "uop:btree_inner"
            steps.append(step(node.address, NODE_STRIDE, op))
        jobs.append(TraversalJob(qid, steps, trace.found))
    return jobs
