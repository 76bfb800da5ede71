"""Per-flavor mutators: apply write ops to a resident workload while
keeping its golden reference consistent.

A mutator owns the *workload-level* consistency contract that makes
mixed read/write serving verifiable: every insert/delete/update updates
both the tree structure (via the trees' online mutation paths) and
whatever the workload's golden oracle reads (the B-Tree membership
list, the R-Tree entry list, the point-cloud tombstone set), so
``LaunchBackend``'s per-launch verification and the refit/rebuild
equivalence tests hold at any point in the write stream.

All randomness comes from the caller's ``random.Random`` — mutators are
deterministic transformers of (workload, op stream).
"""

import random
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.geometry.sphere import Sphere
from repro.geometry.vec import Vec3
from repro.mutation.quality import (
    btree_quality,
    bvh_quality,
    kdtree_quality,
    rtree_quality,
)
from repro.trees.bvh import BVH
from repro.trees.kdtree import KDTree
from repro.trees.rtree import RectEntry, RTree, make_rect


class _LivePool:
    """O(1) uniform pick / add / remove over the live id set.

    Swap-pop keeps selection deterministic under a seeded rng without
    per-op sorting — the trick loadgen uses for hit-key draws.
    """

    __slots__ = ("_items", "_pos")

    def __init__(self, items):
        self._items = list(items)
        self._pos = {x: i for i, x in enumerate(self._items)}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, x) -> bool:
        return x in self._pos

    def add(self, x) -> None:
        self._pos[x] = len(self._items)
        self._items.append(x)

    def remove(self, x) -> None:
        i = self._pos.pop(x)
        last = self._items.pop()
        if last != x:
            self._items[i] = last
            self._pos[last] = i

    def pick(self, rng: random.Random):
        return self._items[rng.randrange(len(self._items))]

    def items(self) -> List:
        return list(self._items)


class Mutator:
    """Base: op dispatch with a live-set floor.

    Below ``floor`` live items, deletes and updates degrade to inserts
    (deterministically — same decision for the same stream position),
    so churn can never starve an index below what its queries need.
    ``apply`` returns ``(effective_op, nodes_touched)``.
    """

    flavor = ""
    floor = 16

    def apply(self, op: str, rng: random.Random) -> Tuple[str, int]:
        if op not in ("insert", "delete", "update"):
            raise ConfigurationError(f"unknown write op {op!r}")
        if op != "insert" and self.live_size <= self.floor:
            op = "insert"
        return op, getattr(self, "_" + op)(rng)

    @property
    def live_size(self) -> int:
        raise NotImplementedError

    def refit(self) -> int:
        raise NotImplementedError

    def rebuild(self) -> None:
        raise NotImplementedError

    def fresh_tree(self):
        """A from-scratch bulk build over the current live set — the
        oracle the refit/rebuild equivalence tests compare against."""
        raise NotImplementedError

    def quality(self) -> Dict[str, float]:
        raise NotImplementedError


class BTreeMutator(Mutator):
    """Point class: key insert/delete/move against the B-Tree variants.

    The workload's ``golden`` list is membership per query, so the
    mutator keeps a key -> query-index map and flips entries as keys
    enter and leave the live set.
    """

    flavor = "point"

    def __init__(self, workload):
        self.wl = workload
        live = workload.tree.keys_in_order()
        self.pool = _LivePool(live)
        top = max(live) if live else 0
        self.key_space = max(4 * len(live), top + 1)
        self._qids: Dict[int, List[int]] = {}
        for qid, key in enumerate(workload.queries):
            self._qids.setdefault(key, []).append(qid)
        self._rebuild_seed = 1

    @property
    def live_size(self) -> int:
        return len(self.pool)

    def _set_golden(self, key: int, present: bool) -> None:
        for qid in self._qids.get(key, ()):
            self.wl.golden[qid] = present

    def _draw_new_key(self, rng: random.Random) -> int:
        while True:
            key = rng.randrange(self.key_space)
            if key not in self.pool:
                return key

    def _insert(self, rng: random.Random) -> int:
        key = self._draw_new_key(rng)
        self.wl.tree.insert(key)
        self.pool.add(key)
        self._set_golden(key, True)
        return self.wl.tree.height()

    def _delete(self, rng: random.Random) -> int:
        key = self.pool.pick(rng)
        self.wl.tree.delete(key)
        self.pool.remove(key)
        self._set_golden(key, False)
        return self.wl.tree.height()

    def _update(self, rng: random.Random) -> int:
        # A "move": one key leaves, a fresh one lands.
        return self._delete(rng) + self._insert(rng)

    def refit(self) -> int:
        # Fence keys are maintained exactly by insert/delete — there is
        # nothing to recompute, so a B-Tree refit is free.
        return 0

    def rebuild(self) -> None:
        tree = self.wl.tree
        self.wl.tree = type(tree).bulk_load(
            sorted(self.pool.items()), order=tree.order,
            seed=self._rebuild_seed)
        self._rebuild_seed += 1

    def fresh_tree(self):
        tree = self.wl.tree
        return type(tree).bulk_load(sorted(self.pool.items()),
                                    order=tree.order, seed=0)

    def quality(self) -> Dict[str, float]:
        return btree_quality(self.wl.tree)


class RTreeMutator(Mutator):
    """Range class: rectangle insert/delete/move.

    ``workload.entries`` is the brute-force golden set; the mutator
    keeps it in lockstep with the tree using the same swap-pop trick as
    the live pool (golden iterates the whole list, so order is free).
    """

    flavor = "range"

    def __init__(self, workload):
        self.wl = workload
        self._pos: Dict[int, int] = {
            e.data_id: i for i, e in enumerate(workload.entries)}
        self.next_id = 1 + max(
            (e.data_id for e in workload.entries), default=0)
        span = 0.0
        for e in workload.entries:
            span = max(span, e.rect.hi.x, e.rect.hi.y)
        self.span = max(span, 1.0)

    @property
    def live_size(self) -> int:
        return len(self.wl.entries)

    def _draw_rect(self, rng: random.Random):
        x, y = rng.uniform(0, self.span), rng.uniform(0, self.span)
        w, h = rng.uniform(0.2, 4.0), rng.uniform(0.2, 4.0)
        return make_rect(x, y, x + w, y + h)

    def _insert(self, rng: random.Random) -> int:
        rect = self._draw_rect(rng)
        data_id = self.next_id
        self.next_id += 1
        self.wl.tree.insert(rect, data_id)
        self._pos[data_id] = len(self.wl.entries)
        self.wl.entries.append(RectEntry(rect, data_id))
        return self.wl.tree.height()

    def _delete(self, rng: random.Random) -> int:
        entries = self.wl.entries
        i = rng.randrange(len(entries))
        entry = entries[i]
        self.wl.tree.delete(entry.data_id, entry.rect)
        last = entries.pop()
        if last.data_id != entry.data_id:
            entries[i] = last
            self._pos[last.data_id] = i
        del self._pos[entry.data_id]
        return self.wl.tree.height()

    def _update(self, rng: random.Random) -> int:
        entries = self.wl.entries
        i = rng.randrange(len(entries))
        old = entries[i]
        rect = self._draw_rect(rng)
        self.wl.tree.delete(old.data_id, old.rect)
        self.wl.tree.insert(rect, old.data_id)
        # delete() may have condensed/reinserted and moved other
        # entries — only the rect changes; position map is untouched.
        entries[self._pos[old.data_id]] = RectEntry(rect, old.data_id)
        return 2 * self.wl.tree.height()

    def refit(self) -> int:
        return self.wl.tree.refit()

    def rebuild(self) -> None:
        tree = self.wl.tree
        self.wl.tree = RTree.bulk_load(
            sorted(self.wl.entries, key=lambda e: e.data_id),
            max_entries=tree.max_entries)

    def fresh_tree(self):
        return RTree.bulk_load(
            sorted(self.wl.entries, key=lambda e: e.data_id),
            max_entries=self.wl.tree.max_entries)

    def quality(self) -> Dict[str, float]:
        return rtree_quality(self.wl.tree)


class KDTreeMutator(Mutator):
    """kNN class: point insert/delete/move with stable ids.

    The golden oracle (``brute_force_knn``) reads the tree's tombstone
    set directly, so consistency is free; the floor tracks ``k`` so a
    query can always fill its result list.
    """

    flavor = "knn"

    def __init__(self, workload):
        self.wl = workload
        self.pool = _LivePool(workload.tree.live_point_ids())
        self.floor = max(16, workload.k)
        pts = [workload.tree.points[i] for i in self.pool.items()]
        self.lo = Vec3(min(p.x for p in pts), min(p.y for p in pts),
                       min(p.z for p in pts))
        self.hi = Vec3(max(p.x for p in pts), max(p.y for p in pts),
                       max(p.z for p in pts))

    @property
    def live_size(self) -> int:
        return len(self.pool)

    def _draw_point(self, rng: random.Random) -> Vec3:
        return Vec3(rng.uniform(self.lo.x, self.hi.x),
                    rng.uniform(self.lo.y, self.hi.y),
                    rng.uniform(self.lo.z, self.hi.z))

    def _insert(self, rng: random.Random) -> int:
        point = self._draw_point(rng)
        depth = self.wl.tree.depth()
        pid = self.wl.tree.insert_point(point)
        self.pool.add(pid)
        return depth

    def _delete(self, rng: random.Random) -> int:
        pid = self.pool.pick(rng)
        self.wl.tree.delete_point(pid)
        self.pool.remove(pid)
        return self.wl.tree.depth()

    def _update(self, rng: random.Random) -> int:
        return self._delete(rng) + self._insert(rng)

    def refit(self) -> int:
        return self.wl.tree.refit()

    def rebuild(self) -> None:
        tree = self.wl.tree
        self.wl.tree = KDTree.rebuilt(
            tree.points, self.pool.items(),
            max_leaf_size=tree.max_leaf_size, dims=tree.dims)

    def fresh_tree(self):
        tree = self.wl.tree
        return KDTree.rebuilt(tree.points, self.pool.items(),
                              max_leaf_size=tree.max_leaf_size,
                              dims=tree.dims)

    def quality(self) -> Dict[str, float]:
        return kdtree_quality(self.wl.tree)


class BVHMutator(Mutator):
    """Radius class: sphere insert/delete/move over the RTNN cloud.

    Deletes tombstone the point both in the BVH (slice removal) and in
    the workload (``_dead_points``, which the brute-force golden
    filters); inserts and moves invalidate the memoized points SoA.
    """

    flavor = "radius"

    def __init__(self, workload):
        self.wl = workload
        self.pool = _LivePool(workload.bvh.live_prim_ids())
        root = workload.bvh.soa().box(0)
        self.lo, self.hi = root.lo, root.hi

    @property
    def live_size(self) -> int:
        return len(self.pool)

    def _draw_point(self, rng: random.Random) -> Vec3:
        return Vec3(rng.uniform(self.lo.x, self.hi.x),
                    rng.uniform(self.lo.y, self.hi.y),
                    rng.uniform(self.lo.z, self.hi.z))

    def _insert(self, rng: random.Random) -> int:
        point = self._draw_point(rng)
        pid = len(self.wl.points)
        self.wl.points.append(point)
        self.wl._points_soa = None
        touched = self.wl.bvh.insert(
            Sphere(point, self.wl.radius, prim_id=pid))
        self.pool.add(pid)
        return touched

    def _delete(self, rng: random.Random) -> int:
        pid = self.pool.pick(rng)
        touched = self.wl.bvh.remove(pid)
        self.pool.remove(pid)
        self.wl._dead_points.add(pid)
        return touched

    def _update(self, rng: random.Random) -> int:
        pid = self.pool.pick(rng)
        point = self._draw_point(rng)
        self.wl.points[pid] = point
        self.wl._points_soa = None
        return self.wl.bvh.update(
            pid, Sphere(point, self.wl.radius, prim_id=pid))

    def refit(self) -> int:
        return self.wl.bvh.refit()

    def rebuild(self) -> None:
        self.wl.bvh = self.fresh_tree()

    def fresh_tree(self):
        # The tree's live spheres are the pool's points at the workload
        # radius (every write puts a new sphere in), so they are reused.
        spheres = sorted(self.wl.bvh.live_prims(), key=lambda s: s.prim_id)
        return BVH(spheres, max_leaf_size=self.wl.bvh.max_leaf_size,
                   method="sah")

    def quality(self) -> Dict[str, float]:
        return bvh_quality(self.wl.bvh)


_MUTATORS = {
    "point": BTreeMutator,
    "range": RTreeMutator,
    "knn": KDTreeMutator,
    "radius": BVHMutator,
}


def make_mutator(query_class: str, workload) -> Mutator:
    """The mutator for one resident index's query class."""
    try:
        cls = _MUTATORS[query_class]
    except KeyError:
        raise ConfigurationError(
            f"no mutator for query class {query_class!r}; "
            f"choose from {sorted(_MUTATORS)}")
    return cls(workload)
