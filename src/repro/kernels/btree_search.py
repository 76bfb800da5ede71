"""B-Tree / B*Tree / B+Tree search kernels (Algorithm 1).

``btree_baseline_kernel`` is the CUDA-style while-loop search executed
on the SIMT cores.  ``btree_accel_kernel`` offloads the whole traversal
with one ``traverseTreeTTA`` instruction.  ``build_btree_jobs`` lowers
the functional search paths into accelerator step sequences:

* TTA — every node (inner and leaf) is one 9-wide Query-Key comparison
  on the modified Ray-Box unit;
* TTA+ — inner nodes run the 12-µop program and leaves the 3-µop
  program of Table III.
"""

from dataclasses import dataclass, field
from typing import Any, List, Sequence

from repro.errors import ConfigurationError
from repro.gpu.isa import AccelCall, Compute, Load
from repro.gpu.replay import launch_replayable, value_independent
from repro.kernels import common
from repro.kernels.common import StepTable, epilogue, prologue, visit_header
from repro.rta.traversal import TraversalJob
from repro.trees.layout import NODE_STRIDE

#: instructions per key-scan iteration (load key, compare, two branches)
_PER_KEY_ALU = 6
#: child-pointer arithmetic after routing
_CHILD_SELECT_ALU = 5
#: found/miss bookkeeping on a leaf
_LEAF_EXIT_CONTROL = 3


@dataclass
class BTreeKernelArgs:
    """Everything one launch of the B-Tree search kernel needs."""

    tree: Any
    queries: Sequence[int]
    query_buf: int
    result_buf: int
    jobs: List[TraversalJob] = field(default_factory=list)
    results: dict = field(default_factory=dict)
    #: workload-owned recording cache for gpu/replay.py (None = record
    #: nothing; the baseline kernel is value-independent, so replay is
    #: byte-identical to generating)
    stream_cache: dict = None


def _keys_scanned(node, query: int) -> int:
    """How many keys Algorithm 1's loop touches before routing/exiting."""
    for i, key in enumerate(node.keys):
        if query <= key:
            return i + 1
    return max(1, len(node.keys))


@launch_replayable
@value_independent
def btree_baseline_kernel(tid: int, args: BTreeKernelArgs):
    """One thread = one query, searched with the software while-loop."""
    query = args.queries[tid]
    trace = args.tree.search(query)
    yield from prologue(args.query_buf + tid * 4)
    for node in trace.path:
        yield from visit_header(node.address, NODE_STRIDE)
        # The key and child-pointer arrays are separate structures in
        # CUDA B-Tree layouts: a second divergent load per visit.
        yield Load(node.address + NODE_STRIDE // 2, NODE_STRIDE // 2,
                   common.TAG_LOAD_NODE + 1)
        scanned = _keys_scanned(node, query)
        # Algorithm 1's key loop breaks at a data-dependent iteration:
        # one tagged compare op plus one branch-resolution op per key, so
        # warps serialize on the longest scan while shorter lanes idle
        # (the SIMT divergence the paper measures in Fig. 1).
        base = common.TAG_LEAF if node.is_leaf else common.TAG_INNER
        for k in range(scanned):
            yield Compute(_PER_KEY_ALU, base + k, kind="alu")
            yield Compute(2, base + k, kind="control")
        if node.is_leaf:
            yield Compute(_LEAF_EXIT_CONTROL, common.TAG_LEAF_HIT,
                          kind="control")
        else:
            yield Compute(_CHILD_SELECT_ALU, common.TAG_INNER_NEXT,
                          kind="alu")
    yield from epilogue(args.result_buf + tid * 4)
    args.results[tid] = trace.found


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
