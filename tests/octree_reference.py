"""Reference walks for the Barnes-Hut tree's differential tests.

:func:`warp_walk` is the object-at-a-time warp-voting traversal
:class:`repro.trees.BarnesHutTree` used before the level-synchronous
:meth:`~repro.trees.BarnesHutTree.union_walk`, kept as the oracle the
array walk must match visit for visit.  (The scalar per-body walk,
``BarnesHutTree.force_on``, stays in the library as the golden check.)

:func:`unblocked_body_walk` and :func:`unblocked_union_walk` are the
array walks as they were before they went block by block: one descent
over every body (or warp) at once.  The blocked walks must equal them
bit for bit.
"""

from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry.intersect import point_distance_below
from repro.geometry.vec import Vec3
from repro.trees.octree import (BarnesHutTree, BHNode, Body, BodyWalk,
                                VisitCSR, WalkEvent, _visit_csr)


def warp_walk(tree: BarnesHutTree,
              bodies: Sequence[Body]) -> Tuple[WalkEvent, ...]:
    """One traversal for a whole warp: a cell opens if any lane votes."""
    visits: List[WalkEvent] = []
    _warp_walk(tree, tree.root, list(bodies), visits)
    return tuple(visits)


def _warp_walk(tree: BarnesHutTree, node: BHNode, bodies: List[Body],
               visits: List[WalkEvent]) -> None:
    if node.mass == 0.0:
        return
    if node.is_leaf:
        if node.bodies:
            visits.append(WalkEvent(node, "leaf", False))
        return
    threshold = node.size / tree.theta
    open_cell = any(
        point_distance_below(b.position, node.com, threshold)
        for b in bodies
    )
    visits.append(WalkEvent(node, "inner", open_cell))
    if not open_cell:
        return
    for child in node.children:
        if child is not None:
            _warp_walk(tree, child, bodies, visits)


def unblocked_body_walk(tree: BarnesHutTree) -> BodyWalk:
    """Every body's walk from one descent over all bodies."""
    flat = tree.flat()
    n = len(tree.bodies)
    levels = tree._descend(flat, np.arange(n).reshape(n, 1),
                           np.ones((n, 1), dtype=bool))
    values, visits = [], []
    for level in levels:
        group, node = level.group, level.node
        value = np.zeros((len(node), 3))
        inner = level.live & ~flat.is_leaf[node]
        closed = inner & ~level.opened
        value[closed] = tree._pair_forces(
            flat.body_pos[group[closed]], flat.com[node[closed]],
            flat.mass[node[closed]])
        visits.append((group[inner], node[inner], False,
                       level.opened[inner]))
        leaves = np.flatnonzero(level.live & flat.is_leaf[node])
        if leaves.size:
            value[leaves], interacted = tree._leaf_forces(
                flat, group[leaves], node[leaves])
            hit = leaves[interacted]
            visits.append((group[hit], node[hit], True, False))
        values.append(value)
    for depth in range(len(levels) - 1, 0, -1):
        level, parent_value = levels[depth], values[depth - 1]
        for k in range(int(level.slot.max()) + 1):
            sel = level.slot == k
            parent_value[level.parent[sel]] += values[depth][sel]
    accelerations = tuple(Vec3(x, y, z) for x, y, z in values[0].tolist())
    return BodyWalk(accelerations, _visit_csr(flat, n, visits))


def unblocked_union_walk(tree: BarnesHutTree,
                         warp_size: int = 32) -> VisitCSR:
    """Every warp's union walk from one descent over all warps."""
    flat = tree.flat()
    n = len(tree.bodies)
    n_warps = -(-n // warp_size)
    lanes = np.arange(n_warps * warp_size).reshape(n_warps, warp_size)
    levels = tree._descend(flat, np.minimum(lanes, n - 1), lanes < n)
    visits = []
    for level in levels:
        node = level.node
        leaf = flat.is_leaf[node]
        inner = level.live & ~leaf
        visits.append((level.group[inner], node[inner], False,
                       level.opened[inner]))
        hit = level.live & leaf
        visits.append((level.group[hit], node[hit], True, False))
    return _visit_csr(flat, n_warps, visits)
