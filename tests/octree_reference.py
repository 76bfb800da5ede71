"""Scalar reference warp walk for the array union walk's differential test.

This is the object-at-a-time warp-voting traversal
:class:`repro.trees.BarnesHutTree` used before the level-synchronous
:meth:`~repro.trees.BarnesHutTree.union_walk`, kept as the oracle the
array walk must match visit for visit.  (The scalar per-body walk,
``BarnesHutTree.force_on``, stays in the library as the golden check.)
"""

from typing import List, Sequence, Tuple

from repro.geometry.intersect import point_distance_below
from repro.trees.octree import BarnesHutTree, BHNode, Body, WalkEvent


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
