"""The 9-wide Query-Key comparison built on the Ray-Box min/max network.

This module implements Figs. 8-9 of the paper *literally*: the only
primitives used are the MINMAX/MAXMIN operations the Ray-Box unit
already has (Table I: ``MIN(a, MAX(b, c))`` / ``MAX(a, MIN(b, c))``,
degradable to 2-input min/max) and the equality comparators TTA adds —
three to detect a key match (Fig. 9 (3)) and three to produce the child
offset 0/1/2 (Fig. 9 (4)).  One min/max pair covers three keys, and the
unit has three such pairs (the x/y/z slab lanes), so a single issue
resolves a 9-wide node, which is why the paper evaluates 9-wide
B-Trees.

Correctness against Algorithm 1's scalar loop is a property test
(``tests/test_querykey.py``).
"""

import math
from typing import NamedTuple, Optional, Sequence

from repro.errors import ConfigurationError

_PAD = math.inf  # slot filler for nodes with fewer than 9 keys


def _minmax(a: float, b: float, c: float) -> float:
    """Table I MINMAX unit: MIN(a, MAX(b, c))."""
    return min(a, max(b, c))


def _maxmin(a: float, b: float, c: float) -> float:
    """Table I MAXMIN unit: MAX(a, MIN(b, c))."""
    return max(a, min(b, c))


def _eq(a: float, b: float) -> bool:
    """The equality comparator TTA adds after the min/max stages."""
    return a == b


class QueryKeyResult(NamedTuple):
    """Output of one Query-Key instruction (Algorithm 1's outputs).

    ``found`` — the query matched a key in this node.
    ``child`` — index of the child to descend into (None when the query
    exceeds every key: traversal continues with the next key group or,
    at the last group, terminates unsuccessfully).
    """

    found: bool
    child: Optional[int]


class QueryKeyComparator:
    """Functional model of the modified Ray-Box intersection unit."""

    GROUP = 3    # keys per min/max pair
    LANES = 3    # min/max pairs per unit (the x/y/z slab lanes)
    WIDTH = GROUP * LANES

    def compare_group(self, query: float, k1: float, k2: float,
                      k3: float) -> QueryKeyResult:
        """Compare the query against one sorted key triple.

        The (k1, k2, k3) triple must be ascending — B-Tree nodes store
        sorted keys, just as AABB slabs store ordered plane pairs.
        """
        if not (k1 <= k2 <= k3):
            raise ConfigurationError("key group must be sorted ascending")
        # Fig. 9 (2): route query and keys through the min/max sequences.
        # Table I's MAXMIN reduces to a 2-input max: MAXMIN(q, k, k) =
        # max(q, min(k, k)) = max(q, k); comparing the result with k by
        # equality answers "query <= k" using existing silicon.
        le_k1 = _eq(_maxmin(query, k1, k1), k1)
        le_k2 = _eq(_maxmin(query, k2, k2), k2)
        le_k3 = _eq(_maxmin(query, k3, k3), k3)
        # Fig. 9 (3): three equality checks for Found.
        found = _eq(query, k1) or _eq(query, k2) or _eq(query, k3)
        # Fig. 9 (4): one-hot child select -> offset 0/1/2.
        if le_k1:
            child = 0
        elif le_k2:
            child = 1
        elif le_k3:
            child = 2
        else:
            child = None  # query beyond this group
        return QueryKeyResult(found, child)

    def compare(self, query: float,
                keys: Sequence[float]) -> QueryKeyResult:
        """One Query-Key instruction over up to 9 sorted keys.

        Nodes with fewer keys pad unused slots; a padded slot can be
        selected as the route (query below the pad sentinel) but is
        reported as ``child=None`` because no child exists there.
        """
        n = len(keys)
        if n == 0 or n > self.WIDTH:
            raise ConfigurationError(
                f"Query-Key instruction handles 1..{self.WIDTH} keys, "
                f"got {n}"
            )
        if any(keys[i] > keys[i + 1] for i in range(n - 1)):
            raise ConfigurationError("node keys must be sorted")
        padded = list(keys) + [_PAD] * (self.WIDTH - n)
        found = False
        for lane in range(self.LANES):
            group = padded[lane * self.GROUP:(lane + 1) * self.GROUP]
            result = self.compare_group(query, *group)
            found = found or (result.found and not math.isinf(query))
            if result.child is not None:
                child = lane * self.GROUP + result.child
                if child >= n:
                    return QueryKeyResult(found, None)  # routed into padding
                return QueryKeyResult(found, child)
        return QueryKeyResult(found, None)

    def reference(self, query: float,
                  keys: Sequence[float]) -> QueryKeyResult:
        """Algorithm 1 verbatim (the scalar loop) — the golden model."""
        found = False
        for i, key in enumerate(keys):
            if key == query:
                return QueryKeyResult(True, i)
            if query < key:
                return QueryKeyResult(False, i)
        return QueryKeyResult(False, None)
