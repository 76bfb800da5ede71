"""Quadtree/octree with mass aggregates for Barnes-Hut N-Body.

Inner nodes carry total mass and center of mass.  During a force walk
the opening decision at an inner node is exactly the paper's
Point-to-Point distance test (Algorithm 2): the cell is *opened* when
the query body is closer to the cell's center of mass than
``cell_size / theta`` — i.e. when ``point_distance_below(body, com,
size/theta)`` holds — and otherwise approximated as a single particle.
Leaf interactions perform the force computation, which on TTA+ maps to
the 5-µop program in Table III (3 MUL + SQRT + R-XFORM).

Every simulator path reads one level-synchronous array walk over a flat
view of the tree (:meth:`BarnesHutTree.body_walk`): all (body, cell)
pairs of a level take their opening decision from the batched
Algorithm 2 kernel, and forces are summed bottom-up in the scalar
recursion's order, so accelerations and visit lists are bit-identical
to :meth:`BarnesHutTree.force_on`, which stays as the uncached golden
reference.  :meth:`BarnesHutTree.union_walk` is the same descent for
warps of bodies, the baseline kernel's warp-voting traversal.
"""

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.batch import point_distance_below_batch, points_soa
from repro.geometry.intersect import point_distance_below
from repro.geometry.vec import Vec3

_MAX_DEPTH = 48  # beyond this, coincident bodies share a leaf


class Body(NamedTuple):
    """A point mass; ``vel`` is carried for integration steps."""

    position: Vec3
    mass: float
    vel: Vec3
    body_id: int


def make_body(position: Vec3, mass: float, body_id: int,
              vel: Vec3 = None) -> Body:
    return Body(position, float(mass), vel if vel is not None else Vec3(),
                body_id)


class BHNode:
    """One Barnes-Hut cell (2**dims children when subdivided).

    Leaves hold a small list of bodies (normally one; more only when
    bodies coincide beyond the maximum subdivision depth).
    """

    __slots__ = ("center", "half", "mass", "com", "children", "bodies",
                 "count", "address")

    def __init__(self, center: Vec3, half: float):
        self.center = center
        self.half = half
        self.mass = 0.0
        self.com = Vec3()
        self.children: Optional[List[Optional["BHNode"]]] = None
        self.bodies: List[Body] = []
        self.count = 0
        self.address = -1

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    @property
    def size(self) -> float:
        return 2.0 * self.half

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else "inner"
        return f"BHNode({kind}, n={self.count})"


class WalkEvent(NamedTuple):
    node: BHNode
    kind: str      # "inner" (distance test) | "leaf" (force computation)
    opened: bool   # inner only: did the distance test force descent


class ForceResult(NamedTuple):
    acceleration: Vec3
    visits: Tuple[WalkEvent, ...]


class FlatTree(NamedTuple):
    """Array view of a built tree; nodes in breadth-first (layout) order.

    Leaf bodies form a CSR: leaf ``i`` holds entries
    ``leaf_offsets[i]:leaf_offsets[i + 1]`` of the ``leaf_*`` columns.
    """

    nodes: List[BHNode]
    com: np.ndarray           # (N, 3)
    mass: np.ndarray          # (N,)
    size: np.ndarray          # (N,) cell edge length
    is_leaf: np.ndarray       # (N,) bool
    children: np.ndarray      # (N, 2**dims) node index, -1 where empty
    leaf_offsets: np.ndarray  # (N + 1,)
    leaf_pos: np.ndarray      # (M, 3)
    leaf_mass: np.ndarray     # (M,)
    leaf_id: np.ndarray       # (M,) body ids
    rank: np.ndarray          # (N,) pre-order rank (the scalar visit order)
    body_pos: np.ndarray      # (n, 3) positions of ``tree.bodies``
    body_id: np.ndarray       # (n,)

    @property
    def address(self) -> np.ndarray:
        """Per-node address column, read from the nodes' current layout."""
        return np.array([node.address for node in self.nodes],
                        dtype=np.int64)


class VisitCSR(NamedTuple):
    """Visit lists of several walks, each sorted by pre-order rank.

    Walk ``i`` visited ``node[offsets[i]:offsets[i + 1]]``; ``leaf``
    marks force computations, ``opened`` inner cells whose distance
    test forced descent.
    """

    offsets: np.ndarray
    node: np.ndarray
    leaf: np.ndarray
    opened: np.ndarray


class BodyWalk(NamedTuple):
    """Every body's walk: its acceleration and its visits."""

    accelerations: Tuple[Vec3, ...]
    visits: VisitCSR


class _Level(NamedTuple):
    """One depth of a level-synchronous descent."""

    group: np.ndarray    # body or warp per (group, node) pair
    node: np.ndarray
    parent: np.ndarray   # pair index in the previous level
    slot: np.ndarray     # order among the parent's children
    live: np.ndarray     # cell mass is non-zero
    opened: np.ndarray   # inner live pairs whose distance test held


def _visit_csr(flat: FlatTree, n_groups: int, parts: list) -> VisitCSR:
    """Concatenate per-level ``(group, node, leaf, opened)`` visits."""
    group = np.concatenate([p[0] for p in parts])
    node = np.concatenate([p[1] for p in parts])
    leaf = np.concatenate([np.full(len(p[0]), p[2]) for p in parts])
    opened = np.concatenate([np.broadcast_to(p[3], len(p[0]))
                             for p in parts])
    order = np.lexsort((flat.rank[node], group))
    offsets = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(group, minlength=n_groups), out=offsets[1:])
    return VisitCSR(offsets, node[order], leaf[order], opened[order])


class BarnesHutTree:
    """Barnes-Hut tree over bodies in ``dims`` (2 or 3) dimensions."""

    def __init__(self, bodies: Sequence[Body], dims: int = 3,
                 theta: float = 0.5, softening: float = 1e-2,
                 gravity: float = 1.0):
        if dims not in (2, 3):
            raise ConfigurationError("Barnes-Hut supports 2D and 3D only")
        if not bodies:
            raise ConfigurationError("need at least one body")
        if theta <= 0:
            raise ConfigurationError("theta must be positive")
        self.dims = dims
        self.theta = theta
        self.softening = softening
        self.gravity = gravity
        self.bodies = list(bodies)
        self.root = self._build()
        # The tree is immutable once built: its flat view ("flat") and
        # all-body walk ("walk") are computed once, on first use.
        self._memo: dict = {}

    # -- construction ---------------------------------------------------------
    def _build(self) -> BHNode:
        n = len(self.bodies)
        cx = sum(b.position.x for b in self.bodies) / n
        cy = sum(b.position.y for b in self.bodies) / n
        cz = (sum(b.position.z for b in self.bodies) / n
              if self.dims == 3 else 0.0)
        center = Vec3(cx, cy, cz)
        half = 1e-9
        for b in self.bodies:
            half = max(half,
                       abs(b.position.x - center.x),
                       abs(b.position.y - center.y),
                       abs(b.position.z - center.z) if self.dims == 3 else 0.0)
        root = BHNode(center, half * 1.001)
        for body in self.bodies:
            self._insert(root, body, depth=0)
        self._aggregate(root)
        return root

    def _child_index(self, node: BHNode, p: Vec3) -> int:
        idx = 0
        if p.x >= node.center.x:
            idx |= 1
        if p.y >= node.center.y:
            idx |= 2
        if self.dims == 3 and p.z >= node.center.z:
            idx |= 4
        return idx

    def _child_center(self, node: BHNode, idx: int) -> Vec3:
        q = node.half * 0.5
        return Vec3(
            node.center.x + (q if idx & 1 else -q),
            node.center.y + (q if idx & 2 else -q),
            node.center.z + ((q if idx & 4 else -q) if self.dims == 3 else 0.0),
        )

    def _insert(self, node: BHNode, body: Body, depth: int) -> None:
        node.count += 1
        if node.is_leaf:
            if not node.bodies or depth >= _MAX_DEPTH:
                node.bodies.append(body)
                return
            # Split: re-home the residents, then place the new body.
            residents, node.bodies = node.bodies, []
            node.children = [None] * (2 ** self.dims)
            for resident in residents:
                self._insert_into_child(node, resident, depth)
            self._insert_into_child(node, body, depth)
            return
        self._insert_into_child(node, body, depth)

    def _insert_into_child(self, node: BHNode, body: Body, depth: int) -> None:
        idx = self._child_index(node, body.position)
        if node.children[idx] is None:
            node.children[idx] = BHNode(self._child_center(node, idx),
                                        node.half * 0.5)
        self._insert(node.children[idx], body, depth + 1)

    def _aggregate(self, node: BHNode) -> None:
        if node.is_leaf:
            node.mass = sum(b.mass for b in node.bodies)
            if node.mass > 0:
                weighted = Vec3()
                for b in node.bodies:
                    weighted = weighted + b.position * b.mass
                node.com = weighted / node.mass
            return
        total_mass = 0.0
        weighted = Vec3()
        for child in node.children:
            if child is None:
                continue
            self._aggregate(child)
            total_mass += child.mass
            weighted = weighted + child.com * child.mass
        node.mass = total_mass
        node.com = weighted / total_mass if total_mass > 0 else node.center

    def nodes(self) -> List[BHNode]:
        """Every node in breadth-first order (the memory layout order)."""
        out = [self.root]
        for node in out:
            if not node.is_leaf:
                out.extend(c for c in node.children if c is not None)
        return out

    def depth(self) -> int:
        def rec(node: BHNode) -> int:
            if node.is_leaf:
                return 1
            return 1 + max(rec(c) for c in node.children if c is not None)
        return rec(self.root)

    # -- flat view and array walks --------------------------------------------
    def flat(self) -> "FlatTree":
        """The tree's array view (built once; the tree is immutable)."""
        flat = self._memo.get("flat")
        if flat is None:
            flat = self._memo["flat"] = self._flatten()
        return flat

    def _flatten(self) -> "FlatTree":
        nodes = self.nodes()
        index_of = {id(node): i for i, node in enumerate(nodes)}
        fanout = 2 ** self.dims
        children = np.full((len(nodes), fanout), -1, dtype=np.int64)
        leaf_offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
        leaf_bodies: List[Body] = []
        for i, node in enumerate(nodes):
            if node.is_leaf:
                leaf_bodies.extend(node.bodies)
            else:
                for slot, child in enumerate(node.children):
                    if child is not None:
                        children[i, slot] = index_of[id(child)]
            leaf_offsets[i + 1] = len(leaf_bodies)
        rank = np.empty(len(nodes), dtype=np.int64)
        stack, order = [0], 0
        while stack:
            i = stack.pop()
            rank[i] = order
            order += 1
            stack.extend(int(c) for c in children[i, ::-1] if c >= 0)
        return FlatTree(
            nodes=nodes,
            com=points_soa([node.com for node in nodes]),
            mass=np.array([node.mass for node in nodes], dtype=np.float64),
            size=np.array([node.size for node in nodes], dtype=np.float64),
            is_leaf=np.array([node.is_leaf for node in nodes], dtype=bool),
            children=children,
            leaf_offsets=leaf_offsets,
            leaf_pos=points_soa([b.position for b in leaf_bodies]),
            leaf_mass=np.array([b.mass for b in leaf_bodies],
                               dtype=np.float64),
            leaf_id=np.array([b.body_id for b in leaf_bodies]),
            rank=rank,
            body_pos=points_soa([b.position for b in self.bodies]),
            body_id=np.array([b.body_id for b in self.bodies]),
        )

    def body_walk(self) -> "BodyWalk":
        """Every body's Barnes-Hut walk at once (memoized on the tree).

        Accelerations and visits are bit-identical to :meth:`force_on`
        for each body of :attr:`bodies`, in list order.
        """
        walk = self._memo.get("walk")
        if walk is None:
            walk = self._memo["walk"] = self._body_walk()
        return walk

    def _body_walk(self) -> "BodyWalk":
        flat = self.flat()
        n = len(self.bodies)
        levels = self._descend(flat, np.arange(n).reshape(n, 1),
                               np.ones((n, 1), dtype=bool))
        values, visits = [], []
        for level in levels:
            group, node = level.group, level.node
            value = np.zeros((len(node), 3))
            inner = level.live & ~flat.is_leaf[node]
            closed = inner & ~level.opened
            value[closed] = self._pair_forces(
                flat.body_pos[group[closed]], flat.com[node[closed]],
                flat.mass[node[closed]])
            visits.append((group[inner], node[inner], False,
                           level.opened[inner]))
            leaves = np.flatnonzero(level.live & flat.is_leaf[node])
            if leaves.size:
                value[leaves], interacted = self._leaf_forces(
                    flat, group[leaves], node[leaves])
                hit = leaves[interacted]
                visits.append((group[hit], node[hit], True, False))
            values.append(value)
        # Bottom-up: an opened cell sums its children from zero in
        # child-slot order, exactly as the scalar recursion does.
        for depth in range(len(levels) - 1, 0, -1):
            level, parent_value = levels[depth], values[depth - 1]
            for k in range(int(level.slot.max()) + 1):
                sel = level.slot == k
                parent_value[level.parent[sel]] += values[depth][sel]
        accelerations = tuple(Vec3(x, y, z) for x, y, z in values[0].tolist())
        return BodyWalk(accelerations, _visit_csr(flat, n, visits))

    def _leaf_forces(self, flat: "FlatTree", group: np.ndarray,
                     node: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Each (body, leaf) pair's summed force and whether it interacted.

        Bodies with the query's id are skipped; the rest add from zero
        in leaf order.
        """
        lo = flat.leaf_offsets[node]
        count = flat.leaf_offsets[node + 1] - lo
        pair = np.repeat(np.arange(len(node)), count)
        k = np.arange(len(pair)) - np.repeat(np.cumsum(count) - count, count)
        other = lo[pair] + k
        keep = flat.leaf_id[other] != flat.body_id[group[pair]]
        pair, k, other = pair[keep], k[keep], other[keep]
        forces = self._pair_forces(flat.body_pos[group[pair]],
                                   flat.leaf_pos[other], flat.leaf_mass[other])
        total = np.zeros((len(node), 3))
        for j in range(int(count.max())):
            sel = k == j
            total[pair[sel]] += forces[sel]
        interacted = np.zeros(len(node), dtype=bool)
        interacted[pair] = True
        return total, interacted

    def _pair_forces(self, at: np.ndarray, source: np.ndarray,
                     mass: np.ndarray) -> np.ndarray:
        """Batched :meth:`_pair_force` with the scalar operation order."""
        d = source - at
        dist2 = (d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
                 + self.softening * self.softening)
        inv_dist = 1.0 / np.sqrt(dist2)
        scale = self.gravity * mass * inv_dist * inv_dist * inv_dist
        return d * scale[:, None]

    def union_walk(self, warp_size: int = 32) -> "VisitCSR":
        """Warp-voting walks, one per warp of consecutive bodies.

        Real CUDA Barnes-Hut kernels keep warps converged by voting: a
        cell is opened if *any* lane needs it opened, and every lane
        executes every visit (predicated off where irrelevant).  This is
        the union traversal the baseline GPU kernel replays — more node
        visits than any single lane needs, but no control divergence,
        which is why N-Body shows high SIMT efficiency in Fig. 1.  Every
        leaf reached is visited, the lane's own body included.
        """
        flat = self.flat()
        n = len(self.bodies)
        n_warps = -(-n // warp_size)
        lanes = np.arange(n_warps * warp_size).reshape(n_warps, warp_size)
        levels = self._descend(flat, np.minimum(lanes, n - 1), lanes < n)
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

    def _descend(self, flat: "FlatTree", lanes: np.ndarray,
                 lane_ok: np.ndarray) -> List["_Level"]:
        """Level-synchronous descent of groups of bodies.

        ``lanes[g]`` lists group ``g``'s body indices (``lane_ok`` masks
        padding).  A live inner cell opens when Algorithm 2 holds for
        any lane of its group; each level holds the (group, node) pairs
        one step below the previous level's opened cells, in child-slot
        order per parent.
        """
        lane_pos = flat.body_pos[lanes]
        threshold = flat.size / self.theta
        group = np.arange(len(lanes))
        node = np.zeros(len(lanes), dtype=np.int64)
        parent = slot = np.zeros(0, dtype=np.int64)
        levels = []
        while True:
            live = flat.mass[node] != 0.0
            opened = np.zeros(len(node), dtype=bool)
            inner = np.flatnonzero(live & ~flat.is_leaf[node])
            if inner.size:
                g, nd = group[inner], node[inner]
                below = point_distance_below_batch(
                    lane_pos[g], flat.com[nd][:, None, :],
                    threshold[nd][:, None])
                opened[inner] = (below & lane_ok[g]).any(axis=1)
            levels.append(_Level(group, node, parent, slot, live, opened))
            cells = np.flatnonzero(opened)
            if not cells.size:
                return levels
            kids = flat.children[node[cells]]
            row, col = np.nonzero(kids >= 0)
            count = np.bincount(row, minlength=len(cells))
            parent = cells[row]
            slot = np.arange(len(row)) - np.repeat(np.cumsum(count) - count,
                                                   count)
            group, node = group[parent], kids[row, col]

    def force_on(self, body: Body) -> ForceResult:
        """Scalar walk of one body: the uncached golden reference.

        Every simulator path reads :meth:`body_walk`; this object-at-a-
        time recursion is what it must match bit for bit.
        """
        visits: List[WalkEvent] = []
        acc = self._walk(self.root, body, visits)
        return ForceResult(acc, tuple(visits))

    def _walk(self, node: BHNode, body: Body, visits: List[WalkEvent]) -> Vec3:
        if node.mass == 0.0:
            return Vec3()
        if node.is_leaf:
            total = Vec3()
            interacted = False
            for other in node.bodies:
                if other.body_id == body.body_id:
                    continue
                interacted = True
                total = total + self._pair_force(body.position, other.position,
                                                 other.mass)
            if interacted:
                visits.append(WalkEvent(node, "leaf", False))
            return total
        # Inner node: Algorithm 2 decides open-vs-approximate.
        threshold = node.size / self.theta
        open_cell = point_distance_below(body.position, node.com, threshold)
        visits.append(WalkEvent(node, "inner", open_cell))
        if not open_cell:
            return self._pair_force(body.position, node.com, node.mass)
        total = Vec3()
        for child in node.children:
            if child is not None:
                total = total + self._walk(child, body, visits)
        return total

    def _pair_force(self, at: Vec3, source: Vec3, mass: float) -> Vec3:
        d = source - at
        dist2 = d.length_squared() + self.softening * self.softening
        inv_dist = 1.0 / math.sqrt(dist2)
        # a = G * m * d / |d|^3
        return d * (self.gravity * mass * inv_dist * inv_dist * inv_dist)

    def direct_force_on(self, body: Body) -> Vec3:
        """O(n) exact force — the golden reference for accuracy tests."""
        total = Vec3()
        for other in self.bodies:
            if other.body_id == body.body_id:
                continue
            total = total + self._pair_force(body.position, other.position,
                                             other.mass)
        return total
