"""WKND_PT: the procedurally generated sphere path tracer (§IV-A).

The original workload is the "Ray Tracing in One Weekend" scene — a
large ground sphere plus a field of small random spheres — path traced
with hardware ray tracing.  Spheres are *procedural geometry*: the RTA
traverses the BVH of their bounding boxes, but the Ray-Sphere test runs
in an intersection shader on the SIMT cores (the baseline), or as the
18-µop Ray-Sphere program on optimized TTA+ (*WKND_PT, Fig. 16/17).
"""

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.geometry.ray import Ray
from repro.geometry.sphere import Sphere, ray_sphere_intersect
from repro.geometry.vec import Vec3, dot
from repro.kernels.common import StepTable
from repro.kernels.ray_trace import RayTraceKernelArgs, build_rt_jobs
from repro.memsys.memory_image import AddressSpace
from repro.trees.bvh import BVH
from repro.workloads.scenes import Camera

_EPS = 1e-3


def make_wknd_scene(n_spheres: int = 120, seed: int = 0) -> List[Sphere]:
    """Ground sphere + a field of small random spheres."""
    rng = random.Random(seed)
    spheres: List[Sphere] = [Sphere(Vec3(0, -1000, 0), 1000.0, prim_id=0)]
    for i in range(1, n_spheres):
        x = rng.uniform(-11, 11)
        z = rng.uniform(-11, 11)
        r = rng.uniform(0.18, 0.3)
        spheres.append(Sphere(Vec3(x, r, z), r, prim_id=i))
    return spheres


def _sphere_normal(sphere: Sphere, p: Vec3) -> Vec3:
    return (p - sphere.center) / sphere.radius


def _diffuse_dir(normal: Vec3, rng: random.Random) -> Vec3:
    while True:
        v = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        if 1e-6 < v.length_squared() <= 1.0:
            d = normal + v.normalized()
            if d.length_squared() > 1e-9:
                return d.normalized()


@dataclass
class WKNDWorkload:
    bvh: BVH
    rays: List[Ray]
    visits_per_thread: List[List[tuple]]
    space: AddressSpace
    ray_buf: int
    frame_buf: int
    name: str = "WKND_PT"
    leaf_geometry: str = "sphere"

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def kernel_args(self, flavor: str = "rta") -> RayTraceKernelArgs:
        table = StepTable()
        jobs = [
            [build_rt_jobs(trace, result=True, query_id=tid, flavor=flavor,
                           leaf_geometry="sphere",
                           table=table)
             for trace in traces]
            for tid, traces in enumerate(self.visits_per_thread)
        ]
        return RayTraceKernelArgs(
            jobs_per_thread=jobs,
            visits_per_thread=self.visits_per_thread,
            ray_buf=self.ray_buf,
            frame_buf=self.frame_buf,
        )

    def total_visits(self) -> int:
        return sum(len(t) for traces in self.visits_per_thread
                   for t in traces)


def make_wknd_workload(width: int = 16, height: int = 16,
                       n_spheres: int = 120, bounces: int = 2,
                       seed: int = 0) -> WKNDWorkload:
    spheres = make_wknd_scene(n_spheres, seed=seed)
    bvh = BVH(spheres, max_leaf_size=2, method="sah")
    camera = Camera(Vec3(13, 2, 3), Vec3(0, 0.5, 0), fov_deg=25)
    rays = camera.rays(width, height)

    per_thread: List[List[tuple]] = []
    for rid, ray in enumerate(rays):
        rng = random.Random((seed << 16) ^ rid)
        traces: List[tuple] = []
        current: Optional[Ray] = ray
        for _bounce in range(1 + bounces):
            result = bvh.traverse(current, ray_sphere_intersect)
            traces.append(result.visits)
            if result.closest_prim is None:
                break
            sphere = bvh.primitives[result.closest_prim]
            p = current.point_at(result.closest_t)
            n = _sphere_normal(sphere, p)
            if dot(n, current.direction) > 0:
                n = -n
            current = Ray(p + n * _EPS, _diffuse_dir(n, rng))
        per_thread.append(traces)

    space = AddressSpace()
    space.place_tree(bvh.nodes())
    ray_buf = space.alloc(32 * len(rays), align=128)
    frame_buf = space.alloc(4 * len(rays), align=128)
    return WKNDWorkload(bvh, rays, per_thread, space, ray_buf, frame_buf)
