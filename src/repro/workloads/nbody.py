"""Barnes-Hut N-Body workloads (2D and 3D, §IV-A).

Bodies are drawn from a Plummer-like clustered distribution (as in
cosmological N-Body codes) and sorted along a Morton curve so that
adjacent threads walk similar tree paths — the warp coherence that
gives N-Body its high SIMT efficiency in Fig. 1.  The golden reference
is direct O(n^2) summation on a sample of bodies.
"""

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.geometry.vec import Vec3
from repro.kernels.nbody_walk import (
    NBodyKernelArgs,
    UnionWalk,
    build_nbody_jobs,
    build_union_walk,
)
from repro.memsys.memory_image import AddressSpace
from repro.rta.traversal import TraversalJob
from repro.trees.layout import TreeImage
from repro.trees.octree import BarnesHutTree, Body, make_body


def _plummer_position(rng: random.Random, dims: int, scale: float) -> Vec3:
    """Sample a Plummer-sphere radius with isotropic direction."""
    m = rng.uniform(0.05, 0.95)
    r = scale / math.sqrt(m ** (-2.0 / 3.0) - 1.0)
    if dims == 2:
        phi = rng.uniform(0, 2 * math.pi)
        return Vec3(r * math.cos(phi), r * math.sin(phi), 0.0)
    cos_t = rng.uniform(-1, 1)
    sin_t = math.sqrt(1 - cos_t * cos_t)
    phi = rng.uniform(0, 2 * math.pi)
    return Vec3(r * sin_t * math.cos(phi), r * sin_t * math.sin(phi),
                r * cos_t)


def _morton_key(p: Vec3, lo: Vec3, inv_extent: Vec3, dims: int) -> int:
    bits = 10
    scale = (1 << bits) - 1
    xi = int(max(0.0, min(1.0, (p.x - lo.x) * inv_extent.x)) * scale)
    yi = int(max(0.0, min(1.0, (p.y - lo.y) * inv_extent.y)) * scale)
    zi = (int(max(0.0, min(1.0, (p.z - lo.z) * inv_extent.z)) * scale)
          if dims == 3 else 0)
    key = 0
    for b in range(bits):
        key |= ((xi >> b) & 1) << (dims * b)
        key |= ((yi >> b) & 1) << (dims * b + 1)
        if dims == 3:
            key |= ((zi >> b) & 1) << (3 * b + 2)
    return key


@dataclass
class NBodyWorkload:
    dims: int
    tree: BarnesHutTree
    image: TreeImage
    space: AddressSpace
    body_buf: int
    accel_buf: int
    # Lowering is pure per (tree, flavor); cache it across repeated runs
    # of the same workload object (the union walk is never written, so
    # sharing it across args instances is safe).
    _union_walk: Optional[UnionWalk] = field(
        default=None, init=False, repr=False, compare=False)
    _jobs_cache: Dict[str, tuple] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # The baseline op stream depends on fused_post_insts: one recording
    # cache per value.
    _stream_caches: Dict[int, dict] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def kernel_args(self, jobs: Sequence[TraversalJob] = (),
                    interactions: Sequence[int] = (),
                    fused_post_insts: int = 0) -> NBodyKernelArgs:
        """Arguments of one launch: accelerated if ``jobs`` are given.

        Only the baseline kernel (no jobs) reads the warp union walks,
        so accelerated launches never build them.
        """
        if not jobs and self._union_walk is None:
            self._union_walk = build_union_walk(self.tree)
        return NBodyKernelArgs(
            tree=self.tree,
            body_buf=self.body_buf,
            accel_buf=self.accel_buf,
            union_walk=None if jobs else self._union_walk,
            jobs=list(jobs),
            interactions=list(interactions),
            fused_post_insts=fused_post_insts,
            stream_cache=self._stream_caches.setdefault(fused_post_insts, {}),
        )

    def jobs(self, flavor: str):
        cached = self._jobs_cache.get(flavor)
        if cached is None:
            cached = self._jobs_cache[flavor] = build_nbody_jobs(
                self.tree, flavor=flavor)
        return cached

    @property
    def n_bodies(self) -> int:
        return len(self.tree.bodies)

    def golden_sample(self, k: int = 16) -> List[Vec3]:
        """Direct-summation forces for the first k bodies."""
        return [self.tree.direct_force_on(b) for b in self.tree.bodies[:k]]


def make_nbody_workload(n_bodies: int = 2048, dims: int = 3, seed: int = 0,
                        theta: float = 0.5, n_clusters: int = 4,
                        scale: float = 5.0) -> NBodyWorkload:
    """Plummer clusters, Morton-sorted, built into a Barnes-Hut tree."""
    if dims not in (2, 3):
        raise ConfigurationError("dims must be 2 or 3")
    if n_bodies < 2:
        raise ConfigurationError("need at least two bodies")
    rng = random.Random(seed)
    centers = [
        Vec3(rng.uniform(-4, 4) * scale, rng.uniform(-4, 4) * scale,
             rng.uniform(-4, 4) * scale if dims == 3 else 0.0)
        for _ in range(n_clusters)
    ]
    positions: List[Vec3] = []
    for _ in range(n_bodies):
        center = centers[rng.randrange(n_clusters)]
        positions.append(center + _plummer_position(rng, dims, scale))

    lo = Vec3(min(p.x for p in positions), min(p.y for p in positions),
              min(p.z for p in positions))
    hi = Vec3(max(p.x for p in positions), max(p.y for p in positions),
              max(p.z for p in positions))
    extent = hi - lo
    inv = Vec3(1.0 / max(extent.x, 1e-9), 1.0 / max(extent.y, 1e-9),
               1.0 / max(extent.z, 1e-9))
    positions.sort(key=lambda p: _morton_key(p, lo, inv, dims))

    bodies: List[Body] = [
        make_body(p, rng.uniform(0.5, 2.0), i) for i, p in enumerate(positions)
    ]
    tree = BarnesHutTree(bodies, dims=dims, theta=theta,
                         softening=0.05 * scale)
    space = AddressSpace()
    image = space.place_tree(tree.nodes())
    body_buf = space.alloc(16 * n_bodies, align=128)
    accel_buf = space.alloc(12 * n_bodies, align=128)
    return NBodyWorkload(dims, tree, image, space, body_buf, accel_buf)
