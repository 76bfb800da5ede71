#!/usr/bin/env python3
"""Galaxy simulation: Barnes-Hut N-Body with accelerated tree walks.

Builds a clustered 3D galaxy, runs leapfrog integration steps where the
force computation's tree traversal is offloaded (per the paper's N-Body
evaluation), and reports both physics quality (Barnes-Hut vs direct
summation error) and simulated-hardware speedups, including the
kernel-fusion optimization of §V-A.

Run:  python examples/galaxy_simulation.py
"""

from repro.geometry.vec import Vec3
from repro.harness.runner import run_nbody, scaled_config_for
from repro.trees.octree import BarnesHutTree, make_body
from repro.workloads import make_nbody_workload

N_BODIES = 1024
DT = 0.01


def leapfrog_step(tree: BarnesHutTree, dt: float) -> BarnesHutTree:
    """One kick-drift integration step; rebuilds the tree afterwards."""
    accelerations = tree.body_walk().accelerations  # all bodies in one walk
    new_bodies = []
    for body, acc in zip(tree.bodies, accelerations):
        vel = body.vel + acc * dt
        pos = body.position + vel * dt
        new_bodies.append(make_body(pos, body.mass, body.body_id, vel=vel))
    return BarnesHutTree(new_bodies, dims=tree.dims, theta=tree.theta,
                         softening=tree.softening)


def main() -> None:
    wl = make_nbody_workload(n_bodies=N_BODIES, dims=3, seed=11, theta=0.6)
    cfg = scaled_config_for(wl.image.size_bytes)

    # Physics quality: Barnes-Hut against direct summation.
    worst = 0.0
    accelerations = wl.tree.body_walk().accelerations
    for body, approx in zip(wl.tree.bodies[:32], accelerations):
        exact = wl.tree.direct_force_on(body)
        worst = max(worst, (approx - exact).length()
                    / max(exact.length(), 1e-12))
    print(f"Barnes-Hut force error vs direct summation (theta=0.6): "
          f"worst {worst:.1%} over 32 sampled bodies")

    # Hardware comparison for the force-computation kernel.
    base = run_nbody(wl, "gpu", config=cfg)
    tta = run_nbody(wl, "tta", config=cfg)
    plus = run_nbody(wl, "ttaplus", config=cfg)
    fused = run_nbody(wl, "ttaplus", config=cfg, fused_post_insts=120)
    base_fused = run_nbody(wl, "gpu", config=cfg, fused_post_insts=120)
    print(f"baseline GPU : {base.cycles:9.0f} cycles "
          f"(SIMT eff {base.simt_efficiency:.2f} — warp-voting walk)")
    print(f"TTA          : {tta.cycles:9.0f} cycles "
          f"({tta.speedup_over(base):.2f}x)")
    print(f"TTA+         : {plus.cycles:9.0f} cycles "
          f"({plus.speedup_over(base):.2f}x)")
    print(f"TTA+ fused   : {fused.cycles:9.0f} cycles "
          f"({base_fused.cycles / fused.cycles:.2f}x incl. post-processing)")

    # A few real integration steps to show the library end to end.
    tree = wl.tree
    momentum0 = Vec3()
    for body in tree.bodies:
        momentum0 = momentum0 + body.vel * body.mass
    for step in range(3):
        tree = leapfrog_step(tree, DT)
    momentum1 = Vec3()
    for body in tree.bodies:
        momentum1 = momentum1 + body.vel * body.mass
    print(f"integrated 3 leapfrog steps; |momentum drift| = "
          f"{(momentum1 - momentum0).length():.3e}")


if __name__ == "__main__":
    main()
