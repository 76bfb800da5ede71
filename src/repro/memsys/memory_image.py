"""A flat global address space shared by trees, query and result buffers.

``AddressSpace`` is a simple bump allocator with alignment plus a
registry of :class:`~repro.trees.layout.TreeImage` regions so the
functional side of a simulation can resolve a node address back to the
node object that lives there.  Regions never overlap (the bump cursor
only moves forward), so reverse lookup is a bisect over region bases
followed by arithmetic inside the matching image — no per-node tables.
"""

import copy
from bisect import bisect_right
from typing import List, Optional

from repro.errors import LayoutError
from repro.trees.layout import TreeImage


class AddressSpace:
    """Bump allocator + region registry for one simulation's memory."""

    def __init__(self, base: int = 0x1000):
        self._cursor = base
        self._images: List[TreeImage] = []
        self._bases: List[int] = []

    def alloc(self, size: int, align: int = 64) -> int:
        """Reserve ``size`` bytes aligned to ``align``; return the base."""
        if size <= 0:
            raise LayoutError("allocation size must be positive")
        if align <= 0 or (align & (align - 1)) != 0:
            raise LayoutError(f"alignment must be a power of two, got {align}")
        base = (self._cursor + align - 1) & ~(align - 1)
        self._cursor = base + size
        return base

    def place_tree(self, nodes, node_stride: int = 64) -> TreeImage:
        """Lay out a tree's nodes at the next free aligned region."""
        nodes = list(nodes)
        base = self.alloc(len(nodes) * node_stride, align=node_stride)
        image = TreeImage(nodes, base=base, node_stride=node_stride)
        self._images.append(image)
        self._bases.append(base)
        return image

    def node_at(self, address: int) -> Optional[object]:
        bases = getattr(self, "_bases", None)
        if bases is None:
            # Instances unpickled from caches written before the bisect
            # index existed rebuild it on first use.
            bases = self._bases = [image.base for image in self._images]
        i = bisect_right(bases, address) - 1
        if i >= 0:
            image = self._images[i]
            if image.contains(address):
                return image.node_at(address)
        return None

    def fork(self, memo: dict) -> "AddressSpace":
        """The same allocations with each image over the twins ``memo``
        maps its nodes to; ``memo`` gains ``id(image) -> twin``."""
        space = copy.copy(self)
        space._images = []
        for image in self._images:
            memo[id(image)] = twin = image.fork(memo)
            space._images.append(twin)
        space._bases = [image.base for image in space._images]
        return space

    @property
    def used_bytes(self) -> int:
        return self._cursor
