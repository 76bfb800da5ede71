"""Procedural triangle scenes and cameras (the LumiBench substitution).

LumiBench [54] ships binary scene assets; what TTA+'s slowdown depends
on is the *traversal behaviour* — BVH depth, leaf density, ray-type mix
— so these generators produce scenes with matched structure:

* ``make_cornell_scene`` — an enclosed box with interior occluders
  (CORNELL-style path tracing: rays always hit, deep secondary rays);
* ``make_soup_scene`` — a large unstructured triangle soup
  (SPONZA-style: wide BVH, midrange depth);
* ``make_shell_scene`` — a dense tessellated blob
  (BUNNY-style: compact, deep BVH);
* ``make_thin_strips_scene`` — long, thin primitives whose AABBs
  overlap badly (SHIP-style: the pathological case SATO [65] fixes for
  shadow rays).

``traverse_any_sato`` implements the SATO surface-area traversal order
for shadow rays, which TTA+'s programmability enables (*SHIP_SH).
"""

import math
import random
from typing import Callable, List

from repro.errors import ConfigurationError
from repro.geometry.intersect import ray_aabb_intersect
from repro.geometry.ray import Ray
from repro.geometry.triangle import Triangle
from repro.geometry.vec import Vec3, cross
from repro.trees.bvh import BVH, TraversalResult, VisitEvent


# -- scene builders -----------------------------------------------------------------
def _quad(tris: List[Triangle], a: Vec3, b: Vec3, c: Vec3, d: Vec3,
          subdiv: int = 1) -> None:
    """Tessellate quad abcd into 2*subdiv^2 triangles."""
    for i in range(subdiv):
        for j in range(subdiv):
            u0, u1 = i / subdiv, (i + 1) / subdiv
            v0, v1 = j / subdiv, (j + 1) / subdiv

            def lerp(u, v):
                ab = a + (b - a) * u
                dc = d + (c - d) * u
                return ab + (dc - ab) * v

            p00, p10, p01, p11 = lerp(u0, v0), lerp(u1, v0), lerp(u0, v1), \
                lerp(u1, v1)
            tris.append(Triangle(p00, p10, p11, prim_id=len(tris)))
            tris.append(Triangle(p00, p11, p01, prim_id=len(tris)))


def make_cornell_scene(subdiv: int = 4, seed: int = 0) -> List[Triangle]:
    """Enclosed box with two interior blocks (path-tracing friendly)."""
    tris: List[Triangle] = []
    s = 10.0
    corners = {
        "flb": Vec3(0, 0, 0), "frb": Vec3(s, 0, 0),
        "flt": Vec3(0, s, 0), "frt": Vec3(s, s, 0),
        "blb": Vec3(0, 0, s), "brb": Vec3(s, 0, s),
        "blt": Vec3(0, s, s), "brt": Vec3(s, s, s),
    }
    c = corners
    _quad(tris, c["flb"], c["frb"], c["brb"], c["blb"], subdiv)  # floor
    _quad(tris, c["flt"], c["frt"], c["brt"], c["blt"], subdiv)  # ceiling
    _quad(tris, c["blb"], c["brb"], c["brt"], c["blt"], subdiv)  # back
    _quad(tris, c["flb"], c["blb"], c["blt"], c["flt"], subdiv)  # left
    _quad(tris, c["frb"], c["brb"], c["brt"], c["frt"], subdiv)  # right
    rng = random.Random(seed)
    for _ in range(2):  # interior blocks
        base = Vec3(rng.uniform(1, 7), 0, rng.uniform(3, 7))
        w, h, d = rng.uniform(1.5, 3), rng.uniform(2, 5), rng.uniform(1.5, 3)
        p = [base, base + Vec3(w, 0, 0), base + Vec3(w, 0, d),
             base + Vec3(0, 0, d)]
        q = [v + Vec3(0, h, 0) for v in p]
        _quad(tris, p[0], p[1], p[2], p[3], 1)
        _quad(tris, q[0], q[1], q[2], q[3], 1)
        for i in range(4):
            j = (i + 1) % 4
            _quad(tris, p[i], p[j], q[j], q[i], 1)
    return tris


def make_soup_scene(n_triangles: int = 600, seed: int = 1,
                    span: float = 20.0) -> List[Triangle]:
    """Unstructured triangle soup filling a volume (SPONZA-like)."""
    rng = random.Random(seed)
    tris: List[Triangle] = []
    for i in range(n_triangles):
        base = Vec3(rng.uniform(-span, span), rng.uniform(-span, span),
                    rng.uniform(-span, span))
        e1 = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)) * 1.5
        e2 = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)) * 1.5
        tris.append(Triangle(base, base + e1, base + e2, prim_id=i))
    return tris


def make_shell_scene(rings: int = 14, seed: int = 2) -> List[Triangle]:
    """A tessellated, perturbed sphere shell (BUNNY-like blob)."""
    rng = random.Random(seed)
    tris: List[Triangle] = []

    def vert(i, j):
        theta = math.pi * i / rings
        phi = 2 * math.pi * j / (2 * rings)
        r = 5.0 * (1.0 + 0.15 * math.sin(3 * theta) * math.cos(4 * phi))
        return Vec3(r * math.sin(theta) * math.cos(phi),
                    r * math.cos(theta),
                    r * math.sin(theta) * math.sin(phi))

    for i in range(rings):
        for j in range(2 * rings):
            a, b = vert(i, j), vert(i + 1, j)
            c, d = vert(i + 1, j + 1), vert(i, j + 1)
            tris.append(Triangle(a, b, c, prim_id=len(tris)))
            tris.append(Triangle(a, c, d, prim_id=len(tris)))
    return tris


def make_thin_strips_scene(n_strips: int = 250, seed: int = 3,
                           span: float = 20.0) -> List[Triangle]:
    """Long thin strips (SHIP rigging-like, bad for AABBs).

    The scene has two layers: a "deck" of strips around y in [-span, 0]
    that the camera sees, and a dense "rigging" canopy of near-horizontal
    strips at y in [6, 12] between the deck and the light.  Shadow rays
    from deck hits toward an overhead light are therefore usually
    occluded by some rigging strip — the situation where the SATO
    traversal order [65] pays off, because visiting the child more likely
    to contain an occluder first lets the any-hit ray terminate early.
    """
    rng = random.Random(seed)
    tris: List[Triangle] = []

    def strip(base: Vec3, direction: Vec3, thickness: float = 0.08) -> None:
        width = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        width = width.normalized() * thickness
        tris.append(Triangle(base, base + direction, base + width,
                             prim_id=len(tris)))
        tris.append(Triangle(base + direction, base + direction + width,
                             base + width, prim_id=len(tris)))

    # A solid deck below the rigging so primary rays hit something and
    # spawn shadow rays toward the light.
    _quad(tris, Vec3(-span, 0, -span), Vec3(span, 0, -span),
          Vec3(span, 0, span), Vec3(-span, 0, span), subdiv=6)
    n_deck = n_strips // 2
    for _ in range(n_deck):
        base = Vec3(rng.uniform(-span, span), rng.uniform(0.2, 4.0),
                    rng.uniform(-span, span))
        direction = Vec3(rng.gauss(0, 1), rng.gauss(0, 0.3), rng.gauss(0, 1))
        if direction.length_squared() < 1e-9:
            direction = Vec3(1, 0, 1)
        strip(base, direction.normalized() * rng.uniform(10, 25))
    # Rigging canopy: long sail/spar strips wide enough to occlude.
    for _ in range(n_strips - n_deck):
        base = Vec3(rng.uniform(-span, span), rng.uniform(6, 12),
                    rng.uniform(-span, span))
        direction = Vec3(rng.gauss(0, 1), rng.gauss(0, 0.1), rng.gauss(0, 1))
        if direction.length_squared() < 1e-9:
            direction = Vec3(1, 0, -1)
        strip(base, direction.normalized() * rng.uniform(15, 30),
              thickness=rng.uniform(0.8, 2.5))
    return tris


# -- camera ---------------------------------------------------------------------
class Camera:
    """Pinhole camera generating one primary ray per pixel."""

    def __init__(self, position: Vec3, look_at: Vec3, fov_deg: float = 60.0):
        self.position = position
        forward = (look_at - position).normalized()
        world_up = Vec3(0, 1, 0)
        if abs(forward.y) > 0.99:
            world_up = Vec3(1, 0, 0)
        right = cross(forward, world_up).normalized()
        up = cross(right, forward)
        self.forward, self.right, self.up = forward, right, up
        self.half_extent = math.tan(math.radians(fov_deg) / 2)

    def rays(self, width: int, height: int) -> List[Ray]:
        if width < 1 or height < 1:
            raise ConfigurationError("image must be at least 1x1")
        out: List[Ray] = []
        for y in range(height):
            for x in range(width):
                u = (2 * (x + 0.5) / width - 1) * self.half_extent
                v = (1 - 2 * (y + 0.5) / height) * self.half_extent
                direction = (self.forward + self.right * u + self.up * v)
                out.append(Ray(self.position, direction.normalized()))
        return out


# -- SATO traversal order (enabled by TTA+ programmability, *SHIP_SH) -----------
def traverse_any_sato(bvh: BVH, ray: Ray,
                      intersector: Callable) -> TraversalResult:
    """Any-hit traversal visiting the larger-surface-area child first.

    For shadow rays through scenes of long thin primitives, descending
    into the child more likely to contain *some* occluder first lets the
    traversal terminate far sooner [65].  The baseline RTA's traversal
    order is fixed; TTA+'s programmable dest tables can encode this.
    """
    soa = bvh.soa()
    nodes, boxes = soa.nodes, soa.boxes
    left, right = soa.left_list, soa.right_list
    first, count = soa.first_list, soa.count_list
    prims, order = bvh.primitives, bvh._prim_order
    visits: List[VisitEvent] = []
    all_hits: List[int] = []
    stack = [0]
    closest_t, closest_prim = math.inf, None
    while stack:
        i = stack.pop()
        if left[i] < 0:
            hit_any = False
            for k in range(first[i], first[i] + count[i]):
                prim = prims[order[k]]
                hit = intersector(ray, prim)
                if hit is not None:
                    hit_any = True
                    all_hits.append(prim.prim_id)
                    if hit.t < closest_t:
                        closest_t, closest_prim = hit.t, prim.prim_id
            visits.append(VisitEvent(nodes[i], "leaf", count[i], hit_any))
            if hit_any:
                break
        else:
            span = ray_aabb_intersect(ray, boxes[i])
            visits.append(VisitEvent(nodes[i], "inner", 1, span is not None))
            if span is not None:
                # Ordered descent: visit the child the ray enters first,
                # weighting by surface area on ties — the SATO-style
                # occluder-likelihood order a programmable dest table can
                # encode but a fixed-function traversal cannot.
                def entry(child):
                    child_span = ray_aabb_intersect(ray, boxes[child])
                    if child_span is None:
                        return (1e30, 0.0)
                    return (child_span[0], -boxes[child].surface_area())

                children = sorted((left[i], right[i]), key=entry,
                                  reverse=True)
                # Stack: push the later-entered child first so the
                # earlier-entered one pops first.
                stack.extend(children)
    return TraversalResult(closest_t, closest_prim, tuple(all_hits),
                           tuple(visits))
