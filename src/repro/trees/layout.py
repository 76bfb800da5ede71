"""Address assignment: serialize a tree into a flat memory image.

The timing models need real addresses — cache behaviour, coalescing and
DRAM traffic all depend on where nodes live.  ``TreeImage`` lays a
tree's nodes out in breadth-first order (the order real tree builders
emit, giving siblings contiguity, which the paper's child-offset
encoding relies on) at a fixed per-node stride, writes each node's
``address``, and maps addresses back to node objects for the functional
side of the simulation.

Addresses are pure arithmetic — ``base + index * stride`` — so the
forward map is a lazily-materialized numpy column (one array per tree,
feeding batched sector math) and the reverse map is division, not a
per-node hash table: :meth:`TreeImage.address_of` reads the node's
``address`` and checks it with :meth:`TreeImage.node_at`.
"""

import copy
from typing import Iterable, List, Optional

import numpy as np

from repro.errors import LayoutError

NODE_STRIDE = 64  # bytes per node entry: 16 x 32-bit registers (Fig. 7)


class TreeImage:
    """A serialized tree: the node list, each node's ``address``
    (written on the node), the per-node address column, and the
    reverse lookup by division.

    ``base`` offsets the whole tree in the global address space so
    several structures (tree + query buffers + result buffers) can
    coexist in one memory image.
    """

    def __init__(self, nodes: Iterable, base: int = 0,
                 node_stride: int = NODE_STRIDE):
        if base % node_stride != 0:
            raise LayoutError(
                f"base {base} not aligned to node stride {node_stride}"
            )
        self.node_stride = node_stride
        self.base = base
        self.nodes: List = list(nodes)
        if not self.nodes:
            raise LayoutError("cannot lay out an empty tree")
        for index, node in enumerate(self.nodes):
            node.address = base + index * node_stride
        self._addresses: Optional[np.ndarray] = None

    @property
    def size_bytes(self) -> int:
        return len(self.nodes) * self.node_stride

    @property
    def end(self) -> int:
        return self.base + self.size_bytes

    @property
    def addresses(self) -> np.ndarray:
        """Per-node address column (int64, layout order), built once."""
        if self._addresses is None:
            self._addresses = (self.base + np.arange(len(self.nodes),
                                                     dtype=np.int64)
                               * self.node_stride)
        return self._addresses

    def sectors(self, sector_size: int) -> np.ndarray:
        """Per-node starting sector ids at the given sector granularity."""
        if sector_size <= 0 or (sector_size & (sector_size - 1)) != 0:
            raise LayoutError(
                f"sector size must be a power of two, got {sector_size}")
        return self.addresses // sector_size

    def address_of(self, node) -> int:
        """``node.address``, once :meth:`node_at` confirms ``node`` is
        the node this image holds there."""
        address = getattr(node, "address", -1)
        if not self.contains(address) or self.node_at(address) is not node:
            raise LayoutError(f"node {node!r} is not part of this image")
        return address

    def node_at(self, address: int) -> object:
        offset = address - self.base
        if 0 <= offset < self.size_bytes and offset % self.node_stride == 0:
            return self.nodes[offset // self.node_stride]
        raise LayoutError(f"no node at address {address:#x}")

    def contains(self, address: int) -> bool:
        offset = address - self.base
        return 0 <= offset < self.size_bytes and offset % self.node_stride == 0

    def first_child_address(self, node) -> Optional[int]:
        """Address of the node's first child (the paper's child-offset base)."""
        children = getattr(node, "children", None) or []
        children = [c for c in children if c is not None]
        if not children:
            return None
        return self.address_of(children[0])

    def fork(self, memo: dict) -> "TreeImage":
        """The same layout over the twins ``memo`` maps this image's
        nodes to (see the trees' ``fork``); the address column is
        shared.  A node the tree no longer holds, in an image not yet
        refreshed after a write, gets a shallow twin."""
        image = copy.copy(self)
        image.nodes = [memo.get(id(node)) or copy.copy(node)
                       for node in self.nodes]
        return image

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return (
            f"TreeImage(nodes={len(self.nodes)}, base={self.base:#x}, "
            f"stride={self.node_stride})"
        )
