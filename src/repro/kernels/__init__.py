"""Software kernels: the CUDA-baseline instruction streams.

Each module pairs a *baseline* kernel (the full traversal executed on
the SIMT cores, instruction by instruction) with an *accelerated*
kernel (setup + a single ``traverseTreeTTA``/``traceRay`` AccelCall +
result writeback).  Both replay the same functional traversal, so the
speedups measured between them isolate exactly the three RTA advantages
the paper identifies.  The B-Tree and N-Body baselines are warp
builders (:func:`repro.gpu.replay.warp_builder`): they emit each warp's
schedule directly instead of running one generator per thread.
"""

from repro.kernels.btree_search import (
    btree_accel_kernel,
    btree_baseline_kernel,
)
from repro.kernels.nbody_walk import nbody_accel_kernel, nbody_baseline_kernel
from repro.kernels.radius_search import (
    radius_accel_kernel,
    radius_baseline_kernel,
)
from repro.kernels.ray_trace import rt_accel_kernel, rt_baseline_kernel

__all__ = [
    "btree_baseline_kernel",
    "btree_accel_kernel",
    "nbody_baseline_kernel",
    "nbody_accel_kernel",
    "radius_baseline_kernel",
    "radius_accel_kernel",
    "rt_baseline_kernel",
    "rt_accel_kernel",
]
