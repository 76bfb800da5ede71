"""Ray-tracing kernels: software traversal, RTA traceRay, TTA+ ports.

One thread traces one primary ray (plus any secondary rays its workload
profile prescribes) and then runs a shading block on the SIMT cores.
``build_rt_jobs`` lowers functional BVH visit traces into accelerator
steps for the three hardware design points; procedural (sphere)
geometry routes leaf tests to an intersection shader on the baseline
RTA and naive TTA+, and to the µop Ray-Sphere program on optimized
TTA+ (*WKND_PT).
"""

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.gpu.isa import AccelCall, Compute
from repro.gpu.replay import launch_replayable, value_independent
from repro.kernels import common
from repro.kernels.common import StepTable, epilogue, prologue
from repro.rta.traversal import Step, TraversalJob
from repro.trees.layout import NODE_STRIDE

#: scalarized slab test on the cores
_BOX_TEST_ALU = 14
#: scalarized Möller-Trumbore per primitive on the cores
_TRI_TEST_ALU = 28
#: one ray-sphere intersection-shader invocation
SPHERE_SHADER_INSTS = 70
#: shading block after a traversal completes (material + accumulate)
SHADE_ALU = 24


@dataclass
class RayTraceKernelArgs:
    """One launch: per-thread lists of traversal jobs (primary + bounces)."""

    jobs_per_thread: List[List[TraversalJob]]
    visits_per_thread: List[List[Any]] = field(default_factory=list)
    ray_buf: int = 0
    frame_buf: int = 0
    shade_insts: int = SHADE_ALU
    results: dict = field(default_factory=dict)
    #: workload-owned recording cache for gpu/replay.py
    stream_cache: dict = None


@launch_replayable
@value_independent
def rt_baseline_kernel(tid: int, args: RayTraceKernelArgs):
    """Software while-while BVH traversal on the SIMT cores (no RTA)."""
    yield from prologue(args.ray_buf + tid * 32, setup_alu=8)
    for bounce, visits in enumerate(args.visits_per_thread[tid]):
        base_tag = common.TAG_LOOP_HEAD + bounce * 100
        for visit in visits:
            yield Compute(common.LOOP_OVERHEAD_CONTROL, base_tag,
                          kind="control")
            yield from _load_at(visit.node.address, base_tag + 1)
            if visit.kind == "inner":
                yield Compute(_BOX_TEST_ALU, base_tag + 2, kind="alu")
                yield Compute(3, base_tag + 3, kind="control")
            else:
                yield Compute(_TRI_TEST_ALU * visit.tests, base_tag + 4,
                              kind="alu")
                yield Compute(2, base_tag + 5, kind="control")
        yield Compute(args.shade_insts, base_tag + 90, kind="alu")
    yield from epilogue(args.frame_buf + tid * 4)
    args.results[tid] = True


def _load_at(address: int, tag: int):
    yield Compute(common.FETCH_ADDR_ALU, tag, kind="alu")
    from repro.gpu.isa import Load
    yield Load(address, NODE_STRIDE, tag)


@launch_replayable
def rt_accel_kernel(tid: int, args: RayTraceKernelArgs):
    """traceRay per bounce, shading on the cores in between."""
    yield from prologue(args.ray_buf + tid * 32, setup_alu=8)
    result = None
    for bounce, job in enumerate(args.jobs_per_thread[tid]):
        result = yield AccelCall(job, tag=common.TAG_SETUP + 1 + bounce * 10)
        yield Compute(args.shade_insts, common.TAG_SETUP + 2 + bounce * 10,
                      kind="alu")
    yield from epilogue(args.frame_buf + tid * 4)
    args.results[tid] = result


_FLAVORS = ("rta", "ttaplus", "ttaplus_opt")


def build_rt_jobs(visits: Sequence, result: Any, query_id: int,
                  flavor: str = "rta", leaf_geometry: str = "triangle",
                  xforms: int = 0,
                  table: Optional[StepTable] = None) -> TraversalJob:
    """Lower one ray's visit trace into a traversal job.

    ``leaf_geometry`` is "triangle" (fixed-function / µop Ray-Tri) or
    "sphere" (procedural: shader on rta/ttaplus, µop Ray-Sphere on
    ttaplus_opt).  ``xforms`` charges TLAS->BLAS ray transforms.
    Rays lowered with one ``table`` share their equal steps.
    """
    if flavor not in _FLAVORS:
        raise ConfigurationError(f"unknown ray-tracing flavor {flavor!r}")
    if leaf_geometry not in ("triangle", "sphere"):
        raise ConfigurationError(f"unknown geometry {leaf_geometry!r}")
    plus = flavor.startswith("ttaplus")
    inner_op = "uop:raybox" if plus else "box"
    xform_op = "uop:xform" if plus else "xform"
    step = (table if table is not None else StepTable()).step
    steps: List[Step] = [step(-1, 0, xform_op) for _ in range(xforms)]
    for visit in visits:
        if visit.kind == "inner":
            steps.append(step(visit.node.address, NODE_STRIDE, inner_op))
        elif leaf_geometry == "triangle":
            leaf_op = "uop:raytri" if plus else "tri"
            steps.append(step(visit.node.address, NODE_STRIDE, leaf_op,
                              count=visit.tests))
        elif flavor == "ttaplus_opt":
            steps.append(step(visit.node.address, NODE_STRIDE,
                              "uop:raysphere", count=visit.tests))
        else:  # sphere geometry without the optimization: shader bounce
            steps.append(step(visit.node.address, NODE_STRIDE, "shader",
                              count=visit.tests,
                              shader_insts=SPHERE_SHADER_INSTS))
    return TraversalJob(query_id, steps, result)
