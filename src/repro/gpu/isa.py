"""Abstract warp-level ISA for the behavioral SIMT model.

Kernels are per-thread Python generators that yield these descriptors.
Each descriptor carries a ``tag`` — a static program location with a
global order — which the warp executor uses to regroup threads: at any
step the live threads are bucketed by tag and the lowest tag issues
first, reproducing SIMT-stack serialization and reconvergence for the
structured control flow of tree traversals.  A kernel may also yield a
tuple of Compute/Load/Store descriptors, an *op run*, which issues as
if its ops were yielded one by one (see :mod:`repro.gpu.warp`).  A
warp-builder kernel (:func:`repro.gpu.replay.warp_builder`) runs no
generators: it emits the macro steps its ops would schedule to.

``Compute.kind`` feeds the Fig. 20 dynamic-instruction breakdown
("alu", "control", "sfu"); loads/stores count as "mem" and accelerator
launches as "tta".
"""

from typing import Any, NamedTuple


class Compute(NamedTuple):
    """``n`` back-to-back scalar instructions at program point ``tag``."""

    n: int
    tag: int
    kind: str = "alu"


class Load(NamedTuple):
    """A per-lane load; addresses differ per thread and are coalesced."""

    addr: int
    size: int
    tag: int


class Store(NamedTuple):
    """A per-lane store; modelled as fire-and-forget write-through."""

    addr: int
    size: int
    tag: int


class AccelCall(NamedTuple):
    """Hand a whole traversal to the attached accelerator (traceRay /
    traverseTreeTTA).  The executor resumes the thread with the
    accelerator's per-query result."""

    payload: Any
    tag: int


OP_TYPES = (Compute, Load, Store, AccelCall)
