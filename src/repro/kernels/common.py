"""Shared instruction-cost model for the software kernels.

The per-step instruction counts below describe what a compiled CUDA
while-loop traversal spends at each node, consistent with the paper's
measurement that offloading to the RTA eliminates ~91% of dynamic
ALU/control instructions (Fig. 20).  Tags define the static program
order used by the SIMT divergence model; kinds feed the Fig. 20
breakdown.
"""

from typing import Iterator

from repro.gpu.isa import Compute, Load, Store
from repro.rta.traversal import Step

# -- program-order tags (shared skeleton across kernels) -----------------------
# Gaps leave room for per-key / per-primitive scan tags: a data-dependent
# inner loop is modelled as one tagged op per iteration, so threads that
# scan different numbers of keys serialize exactly as a SIMT stack would.
TAG_SETUP = 1
TAG_LOAD_QUERY = 2
TAG_LOOP_HEAD = 10      # stack pop + empty check + node-type decode
TAG_LOAD_NODE = 11
TAG_INNER = 20          # inner-node test body (+k per scanned key)
TAG_INNER_NEXT = 36     # child select / stack pushes
TAG_LEAF = 40           # leaf-node test body (+k per scanned key/prim)
TAG_LEAF_HIT = 56       # hit bookkeeping
TAG_EPILOGUE = 90

# -- instruction budgets ------------------------------------------------------------
#: stack pop, bounds check, node-type decode, loop branch
LOOP_OVERHEAD_CONTROL = 8
#: address arithmetic for the node fetch
FETCH_ADDR_ALU = 2
#: result writeback bookkeeping
EPILOGUE_ALU = 3


def prologue(query_addr: int, setup_alu: int = 4) -> Iterator:
    """Kernel entry: thread-id math and the query load."""
    yield Compute(setup_alu, TAG_SETUP, kind="alu")
    yield Load(query_addr, 4, TAG_LOAD_QUERY)


#: the per-iteration loop overhead (ISA ops are immutable and shared)
LOOP_HEAD = (Compute(LOOP_OVERHEAD_CONTROL, TAG_LOOP_HEAD, kind="control"),
             Compute(FETCH_ADDR_ALU, TAG_LOOP_HEAD, kind="alu"))


def visit_header(node_address: int, node_size: int = 64) -> Iterator:
    """The per-iteration loop overhead plus the node fetch."""
    yield from LOOP_HEAD
    yield Load(node_address, node_size, TAG_LOAD_NODE)


def epilogue(result_addr: int) -> Iterator:
    """Result writeback."""
    yield Compute(EPILOGUE_ALU, TAG_EPILOGUE, kind="alu")
    yield Store(result_addr, 4, TAG_EPILOGUE)


class StepTable(dict):
    """One shared :class:`Step` per distinct field tuple.

    A node's step has the same value for every query that visits it,
    so a lowering call hands out one ``Step`` per distinct
    ``(address, size, op, count, shader_insts)`` instead of one per
    (query, node) visit.  Keyed on those values, not on node identity.
    A table lives for one lowering call; it is not a memo.
    """

    __slots__ = ()

    def __missing__(self, key: tuple) -> Step:
        step = self[key] = Step._make(key)
        return step

    def step(self, address: int, size: int, op: str, count: int = 1,
             shader_insts: int = 0) -> Step:
        return self[(address, size, op, count, shader_insts)]
