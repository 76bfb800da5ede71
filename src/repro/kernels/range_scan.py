"""B+Tree range-scan kernels (extension: database range queries).

A range query descends to the first qualifying leaf (a point-lookup
TTA accelerates) and then walks the chained leaves sequentially (a
streaming scan the SIMT cores already do well).  The accelerated
version offloads only the descent, so the achievable speedup shrinks as
ranges grow — an honest negative control for the offload: TTA helps
traversal, not streaming.
"""

from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.gpu.isa import AccelCall, Compute, Load
from repro.kernels import common
from repro.kernels.common import StepTable, epilogue, prologue, visit_header
from repro.rta.traversal import TraversalJob
from repro.trees.layout import NODE_STRIDE

#: per-key compare+append while scanning a leaf
_SCAN_PER_KEY_ALU = 3
#: leaf-chain advance (pointer load handled as a Load op)
_CHAIN_CONTROL = 3


def _descend_path(tree, lo: int):
    path = []
    node = tree.root
    while not node.is_leaf:
        path.append(node)
        idx = tree._route_index(node.keys, lo)
        node = node.children[idx]
    path.append(node)
    return path


def _scan_leaves(tree, lo: int, hi: int):
    """Leaves touched by the scan, starting at the descent target."""
    node = _descend_path(tree, lo)[-1]
    leaves = []
    while node is not None:
        leaves.append(node)
        if node.keys and node.keys[-1] > hi:
            break
        node = node.next
    return leaves


@dataclass
class RangeScanKernelArgs:
    tree: Any
    ranges: Sequence[Tuple[int, int]]
    query_buf: int
    result_buf: int
    jobs: List[TraversalJob] = field(default_factory=list)
    results: dict = field(default_factory=dict)


def range_scan_baseline_kernel(tid: int, args: RangeScanKernelArgs):
    lo, hi = args.ranges[tid]
    path = _descend_path(args.tree, lo)
    yield from prologue(args.query_buf + tid * 8, setup_alu=4)
    # Descent: the divergent part (same cost model as the B-Tree search
    # kernel: per-key compare plus branch resolution, serialized).
    for node in path[:-1]:
        yield from visit_header(node.address, NODE_STRIDE)
        # Second structure load, as in the B-Tree search kernel.
        yield Load(node.address + NODE_STRIDE // 2, NODE_STRIDE // 2,
                   common.TAG_LOAD_NODE + 1)
        scanned = 1
        for i, key in enumerate(node.keys):
            scanned = i + 1
            if lo <= key:
                break
        for k in range(scanned):
            yield Compute(6, common.TAG_INNER + k, kind="alu")
            yield Compute(2, common.TAG_INNER + k, kind="control")
        yield Compute(5, common.TAG_INNER_NEXT, kind="alu")
    # Scan: stream the chained leaves.
    for leaf in _scan_leaves(args.tree, lo, hi):
        yield Load(leaf.address, NODE_STRIDE, common.TAG_LEAF)
        yield Compute(_SCAN_PER_KEY_ALU * max(1, len(leaf.keys)),
                      common.TAG_LEAF + 1, kind="alu")
        yield Compute(_CHAIN_CONTROL, common.TAG_LEAF + 2, kind="control")
    yield from epilogue(args.result_buf + tid * 4)
    args.results[tid] = args.tree.range_scan(lo, hi)


def range_scan_accel_kernel(tid: int, args: RangeScanKernelArgs):
    lo, hi = args.ranges[tid]
    yield from prologue(args.query_buf + tid * 8, setup_alu=4)
    first_leaf_keys = yield AccelCall(args.jobs[tid],
                                      tag=common.TAG_SETUP + 1)
    # The scan still runs on the cores.
    for leaf in _scan_leaves(args.tree, lo, hi):
        yield Load(leaf.address, NODE_STRIDE, common.TAG_LEAF)
        yield Compute(_SCAN_PER_KEY_ALU * max(1, len(leaf.keys)),
                      common.TAG_LEAF + 1, kind="alu")
        yield Compute(_CHAIN_CONTROL, common.TAG_LEAF + 2, kind="control")
    yield from epilogue(args.result_buf + tid * 4)
    args.results[tid] = args.tree.range_scan(lo, hi)


def build_range_scan_jobs(tree, ranges: Sequence[Tuple[int, int]],
                          flavor: str = "tta") -> List[TraversalJob]:
    """Offload the descent-to-first-leaf as Query-Key steps."""
    if flavor not in ("tta", "ttaplus"):
        raise ConfigurationError(
            f"range scans need Query-Key support (got {flavor!r})"
        )
    step = StepTable().step
    jobs = []
    for qid, (lo, _hi) in enumerate(ranges):
        path = _descend_path(tree, lo)
        steps = []
        for node in path:
            if flavor == "tta":
                op = "query_key"
            else:
                op = "uop:btree_leaf" if node.is_leaf else "uop:btree_inner"
            steps.append(step(node.address, NODE_STRIDE, op))
        jobs.append(TraversalJob(qid, steps, tuple(path[-1].keys)))
    return jobs
