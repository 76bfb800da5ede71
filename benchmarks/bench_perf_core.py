#!/usr/bin/env python3
"""Performance benchmark of the repro.sim fast core → ``BENCH_core.json``.

Three sections:

1. **Engine microbenchmark** — raw events/sec of the fast integer-cycle
   calendar-queue :class:`~repro.sim.engine.Simulator` against the seed
   heap engine (:class:`~repro.sim.engine_ref.HeapSimulator`) on a pure
   process workload (no timing models), isolating the scheduler itself.

2. **Geometry microbenchmark** — tests/sec of the vectorized batch
   kernels (:mod:`repro.geometry.batch`) against the scalar references
   they are bit-identical to, per kernel family (slab, point-distance,
   ray-sphere, ray-triangle).  ``--assert-geometry-speedup X`` exits
   nonzero when the geomean falls below ``X`` (CI smoke check).

3. **Fig. 12 workload points** — end-to-end wall clock of the paper's
   speedup-figure workload set under three regimes:

   * ``legacy_s`` — the seed configuration: heap engine
     (``REPRO_SIM_CORE=legacy``), per-job generator processes, live
     kernel generators, and a *fresh workload object per repetition* so
     every per-workload cache is cold.  This is the code path the seed
     repository executed for every run.
   * ``fast_cold_s`` — fast engine, fresh workload per repetition: the
     first-run cost including warp-trace building (each warp's live
     schedule drained into the workload's stream cache) and job
     lowering.
   * ``fast_s`` — fast engine at steady state (persistent workload,
     warm replay/lowering caches): the parameter-sweep regime the
     ROADMAP's "interactive sweeps" north star is about.

   Regimes are interleaved within each repetition and the minimum over
   repetitions is reported, so slow machine drift cannot bias the
   comparison.  The headline ``speedup`` is ``legacy_s / fast_s``;
   ``speedup_cold`` tracks the first-run ratio.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_core.py \
        --out BENCH_core.json --scale smoke --reps 3
"""

import argparse
import json
import math
import os
import pathlib
import platform
import random
import sys
import time

import numpy as np

_ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(_ROOT / "src") not in sys.path:  # allow running without PYTHONPATH
    sys.path.insert(0, str(_ROOT / "src"))

from repro import __version__  # noqa: E402
from repro.geometry import (  # noqa: E402
    AABB,
    Ray,
    Sphere,
    Triangle,
    Vec3,
    aabbs_soa,
    point_distance_below,
    point_distance_below_batch,
    points_soa,
    ray_aabb_intersect,
    ray_aabb_slab_batch,
    ray_sphere_batch,
    ray_sphere_intersect,
    ray_triangle_batch,
    ray_triangle_intersect,
    spheres_soa,
    triangles_soa,
)
from repro.sim import CORE_ENV, scheduler_fingerprint  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.engine_ref import HeapSimulator  # noqa: E402
from repro.harness.runner import run_btree, run_nbody, run_rtnn  # noqa: E402
from repro.workloads import (  # noqa: E402
    make_btree_workload,
    make_nbody_workload,
    make_rtnn_workload,
)

#: Workload sizes per --scale (Fig. 12's set: B-Tree, N-Body 3D, RTNN).
SCALES = {
    "smoke": {"btree": (2048, 2048), "nbody": 384, "rtnn": (2048, 384)},
    "small": {"btree": (8192, 8192), "nbody": 768, "rtnn": (8192, 1024)},
}


# -- section 1: engine microbenchmark -----------------------------------------
def _events_per_sec(sim_cls, n_procs: int, events_per_proc: int) -> float:
    sim = sim_cls()

    def proc():
        for _ in range(events_per_proc):
            yield 1

    for _ in range(n_procs):
        sim.spawn(proc())
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return n_procs * events_per_proc / elapsed


def engine_microbench(n_procs: int, events_per_proc: int, reps: int) -> dict:
    fast = max(_events_per_sec(Simulator, n_procs, events_per_proc)
               for _ in range(reps))
    heap = max(_events_per_sec(HeapSimulator, n_procs, events_per_proc)
               for _ in range(reps))
    return {
        "n_procs": n_procs,
        "events_per_proc": events_per_proc,
        "fast_events_per_sec": fast,
        "heap_events_per_sec": heap,
        "speedup": fast / heap,
    }


# -- section 2: geometry microbenchmark ---------------------------------------
def _geom_dataset(n: int, seed: int = 7):
    """Deterministic scalar objects + their SoA views for the microbench."""
    rng = random.Random(seed)

    def vec(scale=10.0):
        return Vec3(rng.uniform(-scale, scale), rng.uniform(-scale, scale),
                    rng.uniform(-scale, scale))

    ray = Ray(vec(2.0), vec(1.0), tmin=0.0, tmax=50.0)
    boxes = []
    for _ in range(n):
        a, b = vec(), vec()
        boxes.append(AABB(a.min_with(b), a.max_with(b)))
    points = [vec() for _ in range(n)]
    spheres = [Sphere(vec(), rng.uniform(0.1, 3.0), prim_id=i)
               for i in range(n)]
    triangles = [Triangle(vec(), vec(), vec(), prim_id=i) for i in range(n)]
    return ray, boxes, points, spheres, triangles


def geometry_microbench(n: int, reps: int) -> dict:
    """Scalar-vs-batch tests/sec for every kernel family, min over reps."""
    ray, boxes, points, spheres, triangles = _geom_dataset(n)
    query = Vec3(0.0, 0.0, 0.0)
    radius = 5.0
    lo, hi = aabbs_soa(boxes)
    pts = points_soa(points)
    centers, radii = spheres_soa(spheres)
    v0, v1, v2 = triangles_soa(triangles)
    origin = np.array((ray.origin.x, ray.origin.y, ray.origin.z))
    inv = np.array((ray.inv_direction.x, ray.inv_direction.y,
                    ray.inv_direction.z))
    direction = np.array((ray.direction.x, ray.direction.y, ray.direction.z))
    q = np.array((query.x, query.y, query.z))

    def scalar_slab():
        for box in boxes:
            ray_aabb_intersect(ray, box)

    def scalar_dist():
        for p in points:
            point_distance_below(query, p, radius)

    def scalar_sphere():
        for s in spheres:
            ray_sphere_intersect(ray, s)

    def scalar_triangle():
        for t in triangles:
            ray_triangle_intersect(ray, t)

    kernels = {
        "ray_aabb_slab": (scalar_slab, lambda: ray_aabb_slab_batch(
            origin, inv, ray.tmin, ray.tmax, lo, hi)),
        "point_distance": (scalar_dist, lambda: point_distance_below_batch(
            q, pts, radius)),
        "ray_sphere": (scalar_sphere, lambda: ray_sphere_batch(
            origin, direction, ray.tmin, ray.tmax, centers, radii)),
        "ray_triangle": (scalar_triangle, lambda: ray_triangle_batch(
            origin, direction, ray.tmin, ray.tmax, v0, v1, v2)),
    }
    out = {"n": n}
    speedups = []
    for name, (scalar, batch) in kernels.items():
        scalar_s = min(_timed(scalar) for _ in range(reps))
        batch_s = min(_timed(batch) for _ in range(reps))
        entry = {
            "scalar_s": scalar_s,
            "batch_s": batch_s,
            "scalar_ns_per_test": scalar_s / n * 1e9,
            "batch_ns_per_test": batch_s / n * 1e9,
            "batch_tests_per_sec": n / batch_s,
            "speedup": scalar_s / batch_s,
        }
        speedups.append(entry["speedup"])
        out[name] = entry
        print(f"geometry {name:16s} scalar {entry['scalar_ns_per_test']:8.1f}"
              f" ns/test  batch {entry['batch_ns_per_test']:6.1f} ns/test"
              f"  ({entry['speedup']:.1f}x)", file=sys.stderr)
    out["speedup_geomean"] = math.exp(
        sum(math.log(s) for s in speedups) / len(speedups))
    return out


# -- section 3: Fig. 12 workload points ---------------------------------------
def _points(params: dict):
    """(name, workload factory, runner) for every Fig. 12 point."""
    keys, queries = params["btree"]
    bodies = params["nbody"]
    pts, rtq = params["rtnn"]

    def btree():
        return make_btree_workload("btree", n_keys=keys, n_queries=queries,
                                   seed=1)

    def nbody():
        return make_nbody_workload(n_bodies=bodies, dims=3, seed=2,
                                   theta=0.6)

    def rtnn():
        return make_rtnn_workload(n_points=pts, n_queries=rtq, radius=1.0,
                                  seed=3)

    return [
        ("btree/gpu", btree, lambda w: run_btree(w, "gpu", verify=False)),
        ("btree/tta", btree, lambda w: run_btree(w, "tta", verify=False)),
        ("btree/ttaplus", btree,
         lambda w: run_btree(w, "ttaplus", verify=False)),
        ("nbody3d/gpu", nbody, lambda w: run_nbody(w, "gpu", verify=False)),
        ("nbody3d/tta", nbody, lambda w: run_nbody(w, "tta", verify=False)),
        ("rtnn/rta", rtnn, lambda w: run_rtnn(w, "rta", verify=False)),
        ("rtnn/tta", rtnn, lambda w: run_rtnn(w, "tta", verify=False)),
    ]


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def bench_points(scale: str, reps: int) -> dict:
    out = {}
    for name, make, run in _points(SCALES[scale]):
        warm_wl = make()
        run(warm_wl)  # populate the replay/lowering caches
        legacy, cold, warm = [], [], []
        for _ in range(reps):
            fresh = make()  # construction is untimed; only the run counts
            os.environ[CORE_ENV] = "legacy"
            try:
                legacy.append(_timed(lambda: run(fresh)))
            finally:
                os.environ[CORE_ENV] = "fast"
            fresh = make()
            cold.append(_timed(lambda: run(fresh)))
            warm.append(_timed(lambda: run(warm_wl)))
        entry = {
            "legacy_s": min(legacy),
            "fast_cold_s": min(cold),
            "fast_s": min(warm),
            "legacy_reps": legacy,
            "fast_cold_reps": cold,
            "fast_reps": warm,
        }
        entry["speedup"] = entry["legacy_s"] / entry["fast_s"]
        entry["speedup_cold"] = entry["legacy_s"] / entry["fast_cold_s"]
        out[name] = entry
        print(f"{name:16s} legacy {entry['legacy_s']:.3f}s  "
              f"fast {entry['fast_s']:.3f}s  "
              f"({entry['speedup']:.2f}x, cold {entry['speedup_cold']:.2f}x)",
              file=sys.stderr)
    return out


def aggregate(points: dict) -> dict:
    legacy = sum(p["legacy_s"] for p in points.values())
    fast = sum(p["fast_s"] for p in points.values())
    cold = sum(p["fast_cold_s"] for p in points.values())
    n = len(points)
    return {
        "legacy_total_s": legacy,
        "fast_total_s": fast,
        "fast_cold_total_s": cold,
        "speedup_total": legacy / fast,
        "speedup_cold_total": legacy / cold,
        "speedup_geomean": math.exp(
            sum(math.log(p["speedup"]) for p in points.values()) / n),
        "speedup_cold_geomean": math.exp(
            sum(math.log(p["speedup_cold"]) for p in points.values()) / n),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(_ROOT / "BENCH_core.json"),
                        help="output JSON path (default: repo root)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke")
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions per regime (min is reported)")
    parser.add_argument("--events", type=int, default=200_000,
                        help="microbenchmark event count per engine")
    parser.add_argument("--geom-n", type=int, default=16384,
                        help="geometry microbenchmark batch width")
    parser.add_argument("--assert-geometry-speedup", type=float, default=None,
                        metavar="X",
                        help="exit nonzero unless the geometry batch/scalar "
                             "speedup geomean is at least X")
    args = parser.parse_args(argv)

    os.environ[CORE_ENV] = "fast"
    micro = engine_microbench(n_procs=256,
                              events_per_proc=args.events // 256,
                              reps=args.reps)
    print(f"engine microbench: fast {micro['fast_events_per_sec']:,.0f} ev/s"
          f"  heap {micro['heap_events_per_sec']:,.0f} ev/s"
          f"  ({micro['speedup']:.2f}x)", file=sys.stderr)
    geom = geometry_microbench(args.geom_n, args.reps)
    print(f"geometry microbench: {geom['speedup_geomean']:.1f}x geomean "
          f"batch over scalar (n={args.geom_n})", file=sys.stderr)
    points = bench_points(args.scale, args.reps)
    agg = aggregate(points)
    report = {
        "schema": 1,
        "generated_unix": time.time(),
        "package_version": __version__,
        "scheduler_fingerprint": scheduler_fingerprint(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scale": args.scale,
        "reps": args.reps,
        "engine_microbench": micro,
        "geometry_microbench": geom,
        "fig12_points": points,
        "aggregate": agg,
    }
    pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"total: legacy {agg['legacy_total_s']:.3f}s  "
          f"fast {agg['fast_total_s']:.3f}s  "
          f"speedup {agg['speedup_total']:.2f}x total / "
          f"{agg['speedup_geomean']:.2f}x geomean "
          f"(cold {agg['speedup_cold_total']:.2f}x)", file=sys.stderr)
    print(f"wrote {args.out}", file=sys.stderr)
    if args.assert_geometry_speedup is not None and \
            geom["speedup_geomean"] < args.assert_geometry_speedup:
        print(f"FAIL: geometry speedup geomean {geom['speedup_geomean']:.1f}x"
              f" < required {args.assert_geometry_speedup:.1f}x",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
