"""k-d trees and k-nearest-neighbor search.

k-d trees are the other spatial structure the paper's introduction
cites for physics simulation and nearest-neighbor search ([22], [30],
[35], [76], [80], [104]).  A kNN query is a guided depth-first descent
with distance-based pruning: the inner-node test compares the query's
coordinate against the splitting plane (a 1-wide Query-Key comparison on
TTA) plus a prune test against the current k-th best distance (a
Point-to-Point distance test) — both operations TTA already provides,
which is exactly the generality argument of §II-C.
"""

import copy
import heapq
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.geometry.vec import Vec3


class KDNode:
    """An inner node splits on ``axis`` at ``split``; leaves hold points."""

    __slots__ = ("axis", "split", "left", "right", "points", "point_ids",
                 "address")

    def __init__(self):
        self.axis = -1
        self.split = 0.0
        self.left: Optional["KDNode"] = None
        self.right: Optional["KDNode"] = None
        self.points: List[Vec3] = []
        self.point_ids: List[int] = []
        self.address = -1

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def children(self) -> List["KDNode"]:
        return [] if self.is_leaf else [self.left, self.right]

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"KDNode(leaf, n={len(self.points)})"
        return f"KDNode(axis={self.axis}, split={self.split:.2f})"


class KDVisit(NamedTuple):
    node: KDNode
    kind: str      # "inner" (plane + prune tests) | "leaf" (distances)
    tests: int
    pruned: bool   # inner only: was the far subtree skipped


class KNNResult(NamedTuple):
    ids: Tuple[int, ...]        # nearest first
    distances: Tuple[float, ...]
    visits: Tuple[KDVisit, ...]


class KDTree:
    """A balanced k-d tree over 3D points (use z=0 for planar data)."""

    def __init__(self, points: Sequence[Vec3], max_leaf_size: int = 8,
                 dims: int = 3):
        if not points:
            raise ConfigurationError("k-d tree needs at least one point")
        if dims not in (2, 3):
            raise ConfigurationError("dims must be 2 or 3")
        if max_leaf_size < 1:
            raise ConfigurationError("max_leaf_size must be >= 1")
        self.points = list(points)
        self.dims = dims
        self.max_leaf_size = max_leaf_size
        order = list(range(len(self.points)))
        self.root = self._build(order, depth=0)
        #: tombstoned point ids — slots in ``points`` no leaf references.
        self._deleted: set = set()
        self._leaf_of: Optional[dict] = None

    def _build(self, order: List[int], depth: int) -> KDNode:
        node = KDNode()
        if len(order) <= self.max_leaf_size:
            node.points = [self.points[i] for i in order]
            node.point_ids = list(order)
            return node
        axis = depth % self.dims
        order.sort(key=lambda i: self.points[i].component(axis))
        mid = len(order) // 2
        node.axis = axis
        node.split = self.points[order[mid]].component(axis)
        node.left = self._build(order[:mid], depth + 1)
        node.right = self._build(order[mid:], depth + 1)
        return node

    @classmethod
    def rebuilt(cls, points: Sequence[Vec3], live_ids: Sequence[int],
                max_leaf_size: int = 8, dims: int = 3) -> "KDTree":
        """A fresh balanced build over the live subset of ``points``.

        Point ids stay stable across the rebuild: the new tree shares
        the full (tombstoned) point list and only threads the live ids
        through ``_build``, so callers' ids survive arbitrarily many
        churn/rebuild cycles.
        """
        live = sorted(set(live_ids))
        if not live:
            raise ConfigurationError("rebuild needs at least one live point")
        tree = cls.__new__(cls)
        tree.points = list(points)
        tree.dims = dims
        tree.max_leaf_size = max_leaf_size
        tree.root = tree._build(live, depth=0)
        tree._deleted = set(range(len(tree.points))) - set(live)
        tree._leaf_of = None
        return tree

    # -- online mutation --------------------------------------------------------
    #
    # Inserts route ``component <= split -> left``, matching the build's
    # ``order[:mid]`` partition, so the kNN prune invariant (far-side
    # points are at least ``|delta|`` away along the split axis) is
    # preserved.  Leaves overgrow ``max_leaf_size`` instead of
    # splitting — the decay a rebuild later repairs.

    def _deleted_set(self) -> set:
        if getattr(self, "_deleted", None) is None:
            self._deleted = set()
        return self._deleted

    def _leaf_map(self) -> dict:
        if getattr(self, "_leaf_of", None) is None:
            self._leaf_of = {}
            for node in self.nodes():
                if node.is_leaf:
                    for pid in node.point_ids:
                        self._leaf_of[pid] = node
        return self._leaf_of

    def insert_point(self, point: Vec3) -> int:
        """Online insert; returns the new point's stable id."""
        pid = len(self.points)
        self.points.append(point)
        node = self.root
        depth_touched = 1
        while not node.is_leaf:
            node = (node.left if point.component(node.axis) <= node.split
                    else node.right)
            depth_touched += 1
        node.points.append(point)
        node.point_ids.append(pid)
        self._leaf_map()[pid] = node
        return pid

    def delete_point(self, pid: int) -> int:
        """Online delete; the slot in ``points`` becomes a tombstone."""
        if pid in self._deleted_set() or not 0 <= pid < len(self.points):
            raise KeyError(f"point id {pid} not live in k-d tree")
        leaf = self._leaf_map().get(pid)
        if leaf is None:
            raise KeyError(f"point id {pid} not live in k-d tree")
        at = leaf.point_ids.index(pid)
        leaf.point_ids.pop(at)
        leaf.points.pop(at)
        del self._leaf_of[pid]
        self._deleted_set().add(pid)
        return 1

    def live_point_ids(self) -> List[int]:
        dead = self._deleted_set()
        return [i for i in range(len(self.points)) if i not in dead]

    @property
    def n_live(self) -> int:
        return len(self.points) - len(self._deleted_set())

    def refit(self) -> int:
        """Structural maintenance pass (k-d nodes store no bounds).

        k-d inner nodes hold split planes, which stay exact under
        insert/delete, so there is nothing to recompute — the pass
        exists so the scheduler charges the same bookkeeping sweep the
        other trees pay; only a rebuild restores balance/fill quality.
        Returns the number of nodes touched.
        """
        touched = len(self.nodes())
        return touched

    def nodes(self) -> List[KDNode]:
        out, frontier = [], [self.root]
        while frontier:
            node = frontier.pop(0)
            out.append(node)
            frontier.extend(node.children)
        return out

    def depth(self) -> int:
        def rec(node):
            if node.is_leaf:
                return 1
            return 1 + max(rec(node.left), rec(node.right))
        return rec(self.root)

    def fork(self, memo: dict) -> "KDTree":
        """A twin that writes cannot reach through: every node, its
        point lists, the point list and the tombstone set are copied,
        points are shared.  ``memo`` gains ``id(node) -> twin`` for
        each node, and a built leaf map is kept, on the twins."""
        nodes = self.nodes()
        for node in nodes:
            twin = memo[id(node)] = KDNode()
            twin.axis, twin.split = node.axis, node.split
            twin.points = list(node.points)
            twin.point_ids = list(node.point_ids)
            twin.address = node.address
        for node in nodes:
            if not node.is_leaf:
                twin = memo[id(node)]
                twin.left = memo[id(node.left)]
                twin.right = memo[id(node.right)]
        tree = copy.copy(self)
        tree.root = memo[id(self.root)]
        tree.points = list(self.points)
        # getattr guards trees unpickled from caches written before
        # tombstones and the leaf map existed.
        if getattr(self, "_deleted", None) is not None:
            tree._deleted = set(self._deleted)
        if getattr(self, "_leaf_of", None) is not None:
            tree._leaf_of = {pid: memo[id(leaf)]
                             for pid, leaf in self._leaf_of.items()}
        return tree

    # -- kNN search -----------------------------------------------------------
    def knn(self, query: Vec3, k: int) -> KNNResult:
        """The k nearest points to ``query`` with a visit trace."""
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        #: max-heap of (-dist2, point_id); len <= k
        best: List[Tuple[float, int]] = []
        visits: List[KDVisit] = []

        def kth_dist2() -> float:
            return -best[0][0] if len(best) == k else float("inf")

        def descend(node: KDNode) -> None:
            if node.is_leaf:
                for pid, point in zip(node.point_ids, node.points):
                    d2 = (point - query).length_squared()
                    if len(best) < k:
                        heapq.heappush(best, (-d2, pid))
                    elif d2 < kth_dist2():
                        heapq.heapreplace(best, (-d2, pid))
                visits.append(KDVisit(node, "leaf", len(node.points), False))
                return
            delta = query.component(node.axis) - node.split
            near, far = ((node.left, node.right) if delta <= 0
                         else (node.right, node.left))
            descend(near)
            # Prune: visit the far side only if the splitting plane is
            # closer than the current k-th neighbor.
            prune = delta * delta >= kth_dist2()
            visits.append(KDVisit(node, "inner", 2, prune))
            if not prune:
                descend(far)

        descend(self.root)
        ordered = sorted(((-negd2, pid) for negd2, pid in best))
        return KNNResult(tuple(pid for _d, pid in ordered),
                         tuple(d ** 0.5 for d, _p in ordered),
                         tuple(visits))

    def brute_force_knn(self, query: Vec3, k: int) -> Tuple[int, ...]:
        """Golden reference: full scan over the live points."""
        # getattr guards trees unpickled from caches written before
        # tombstones existed; the empty tuple keeps the unmutated path
        # identical to the historical full scan.
        dead = getattr(self, "_deleted", None) or ()
        scored = sorted(
            ((p - query).length_squared(), i)
            for i, p in enumerate(self.points) if i not in dead
        )
        return tuple(i for _d, i in scored[:k])
