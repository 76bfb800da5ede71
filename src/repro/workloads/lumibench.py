"""LumiBench-substitute ray-tracing workloads (Fig. 16).

The representative LumiBench subset covers path tracing, ambient
occlusion, shadows, reflections, procedural geometry and alpha masking.
Each entry here pairs a procedural scene (see
:mod:`repro.workloads.scenes`) with the matching ray-behaviour profile;
``SHIP_SH`` additionally supports the SATO traversal order that TTA+'s
programmability enables (*SHIP_SH in the paper).  The procedural-sphere
workload (WKND_PT) lives in :mod:`repro.workloads.wknd`.
"""

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.geometry.ray import Ray
from repro.geometry.triangle import Triangle, ray_triangle_intersect
from repro.geometry.vec import Vec3, cross, dot
from repro.kernels.common import StepTable
from repro.kernels.ray_trace import RayTraceKernelArgs, build_rt_jobs
from repro.memsys.memory_image import AddressSpace
from repro.trees.bvh import BVH
from repro.workloads import scenes
from repro.workloads.scenes import Camera, traverse_any_sato

_EPS = 1e-3


def _normal(tri: Triangle) -> Vec3:
    n = cross(tri.v1 - tri.v0, tri.v2 - tri.v0)
    length = n.length()
    return n / length if length > 1e-12 else Vec3(0, 1, 0)


def _diffuse_dir(normal: Vec3, rng: random.Random) -> Vec3:
    while True:
        v = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        if 1e-6 < v.length_squared() <= 1.0:
            d = (normal + v.normalized())
            if d.length_squared() > 1e-9:
                return d.normalized()


def _reflect(d: Vec3, n: Vec3) -> Vec3:
    return (d - n * (2.0 * dot(d, n))).normalized()


@dataclass
class LumiWorkload:
    """One ray-tracing workload instance ready to run on any platform."""

    name: str
    kind: str
    bvh: BVH
    rays: List[Ray]
    visits_per_thread: List[List[tuple]]
    space: AddressSpace
    ray_buf: int
    frame_buf: int
    sato_visits_per_thread: Optional[List[List[tuple]]] = None
    leaf_geometry: str = "triangle"
    # The baseline op stream depends on which visit set is used: one
    # recording cache (gpu/replay.py) per sato flag.
    _stream_caches: Dict[bool, dict] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def kernel_args(self, flavor: str = "rta",
                    sato: bool = False) -> RayTraceKernelArgs:
        visits = self._pick_visits(sato)
        table = StepTable()
        jobs = [
            [build_rt_jobs(trace, result=True, query_id=tid, flavor=flavor,
                           leaf_geometry=self.leaf_geometry,
                           table=table)
             for trace in traces]
            for tid, traces in enumerate(visits)
        ]
        return RayTraceKernelArgs(
            jobs_per_thread=jobs,
            visits_per_thread=visits,
            ray_buf=self.ray_buf,
            frame_buf=self.frame_buf,
            stream_cache=self._stream_caches.setdefault(sato, {}),
        )

    def _pick_visits(self, sato: bool) -> List[List[tuple]]:
        if not sato:
            return self.visits_per_thread
        if self.sato_visits_per_thread is None:
            raise ConfigurationError(
                f"{self.name} has no SATO variant (only shadow-ray "
                "workloads on thin geometry benefit)"
            )
        return self.sato_visits_per_thread

    def total_visits(self, sato: bool = False) -> int:
        return sum(len(t) for traces in self._pick_visits(sato)
                   for t in traces)


# -- trace generation -----------------------------------------------------------------
def _shadow_trace(bvh, origin: Vec3, light: Vec3, any_traverse) -> tuple:
    to_light = light - origin
    dist = to_light.length()
    ray = Ray(origin, to_light / dist, tmin=_EPS, tmax=dist)
    return any_traverse(bvh, ray).visits


def _trace_profile(bvh: BVH, rays: Sequence[Ray], kind: str, light: Vec3,
                   bounces: int, seed: int,
                   sato: bool = False) -> List[List[tuple]]:
    """Generate per-ray visit-trace lists for one ray-behaviour profile."""
    if sato:
        def any_traverse(b, r):
            return traverse_any_sato(b, r, ray_triangle_intersect)
    else:
        def any_traverse(b, r):
            return b.traverse(r, ray_triangle_intersect, mode="any")

    per_thread: List[List[tuple]] = []
    for rid, ray in enumerate(rays):
        rng = random.Random((seed << 20) ^ rid)
        traces: List[tuple] = []
        primary = bvh.traverse(ray, ray_triangle_intersect)
        traces.append(primary.visits)
        hit_id = primary.closest_prim
        if hit_id is None:
            per_thread.append(traces)
            continue
        hit_point = ray.point_at(primary.closest_t)
        tri = bvh.primitives[hit_id]
        normal = _normal(tri)
        if dot(normal, ray.direction) > 0:
            normal = -normal

        if kind == "sh":
            traces.append(_shadow_trace(bvh, hit_point + normal * _EPS,
                                        light, any_traverse))
        elif kind == "ao":
            for _ in range(2):
                d = _diffuse_dir(normal, rng)
                ao_ray = Ray(hit_point + normal * _EPS, d, tmax=3.0)
                traces.append(any_traverse(bvh, ao_ray).visits)
        elif kind == "pt":
            current_point, current_normal = hit_point, normal
            for _ in range(bounces):
                d = _diffuse_dir(current_normal, rng)
                bounce = Ray(current_point + current_normal * _EPS, d)
                result = bvh.traverse(bounce, ray_triangle_intersect)
                traces.append(result.visits)
                if result.closest_prim is None:
                    break
                current_point = bounce.point_at(result.closest_t)
                tri = bvh.primitives[result.closest_prim]
                current_normal = _normal(tri)
                if dot(current_normal, bounce.direction) > 0:
                    current_normal = -current_normal
        elif kind == "refl":
            d = _reflect(ray.direction, normal)
            refl = Ray(hit_point + normal * _EPS, d)
            traces.append(bvh.traverse(refl, ray_triangle_intersect).visits)
        elif kind == "alpha":
            # Alpha masking: the any-hit shader rejects the first hits, so
            # the ray re-traverses past each rejected surface.
            t_past = primary.closest_t + _EPS
            for _ in range(2):
                cont = Ray(ray.origin, ray.direction, tmin=t_past)
                result = bvh.traverse(cont, ray_triangle_intersect)
                traces.append(result.visits)
                if result.closest_prim is None:
                    break
                t_past = result.closest_t + _EPS
        else:
            raise ConfigurationError(f"unknown ray profile {kind!r}")
        per_thread.append(traces)
    return per_thread


# -- the suite --------------------------------------------------------------------
@dataclass(frozen=True)
class LumiSpec:
    name: str
    kind: str
    scene: Callable[[], List[Triangle]]
    camera: Camera
    light: Vec3
    bounces: int = 0
    sato_capable: bool = False


LUMIBENCH_SUITE: List[LumiSpec] = [
    LumiSpec("CORNELL_PT", "pt", scenes.make_cornell_scene,
             Camera(Vec3(5, 5, -12), Vec3(5, 5, 5)), Vec3(5, 9.5, 5),
             bounces=2),
    LumiSpec("SPONZA_AO", "ao",
             lambda: scenes.make_soup_scene(600),
             Camera(Vec3(0, 5, -35), Vec3(0, 0, 0)), Vec3(0, 30, 0)),
    LumiSpec("BUNNY_SH", "sh", scenes.make_shell_scene,
             Camera(Vec3(0, 3, -14), Vec3(0, 0, 0)), Vec3(8, 15, -8)),
    LumiSpec("SHIP_SH", "sh", scenes.make_thin_strips_scene,
             Camera(Vec3(0, 5, -35), Vec3(0, 0, 0)), Vec3(10, 30, -10),
             sato_capable=True),
    LumiSpec("GRID_RF", "refl",
             lambda: scenes.make_soup_scene(400, seed=7),
             Camera(Vec3(0, 0, -32), Vec3(0, 0, 0)), Vec3(0, 25, 0)),
    LumiSpec("SHELL_AM", "alpha", scenes.make_shell_scene,
             Camera(Vec3(0, 0, -16), Vec3(0, 0, 0)), Vec3(0, 12, -12)),
]


def spec_named(name: str) -> LumiSpec:
    for spec in LUMIBENCH_SUITE:
        if spec.name == name:
            return spec
    raise ConfigurationError(
        f"unknown LumiBench workload {name!r}; "
        f"available: {[s.name for s in LUMIBENCH_SUITE]}"
    )


def make_lumibench_workload(name: str, width: int = 16, height: int = 16,
                            seed: int = 0) -> LumiWorkload:
    """Instantiate one suite workload at the given resolution."""
    spec = spec_named(name)
    tris = spec.scene()
    bvh = BVH(tris, max_leaf_size=2, method="sah")
    rays = spec.camera.rays(width, height)
    visits = _trace_profile(bvh, rays, spec.kind, spec.light, spec.bounces,
                            seed)
    sato_visits = None
    if spec.sato_capable:
        sato_visits = _trace_profile(bvh, rays, spec.kind, spec.light,
                                     spec.bounces, seed, sato=True)
    space = AddressSpace()
    space.place_tree(bvh.nodes())
    ray_buf = space.alloc(32 * len(rays), align=128)
    frame_buf = space.alloc(4 * len(rays), align=128)
    return LumiWorkload(name, spec.kind, bvh, rays, visits, space,
                        ray_buf, frame_buf, sato_visits_per_thread=sato_visits)
