"""Per-warp memory coalescing into sectors.

A warp-level load touches one address per active lane; the coalescer
merges them into the minimal set of aligned sectors (32B on modern
GPUs), which is the unit the L1/L2/DRAM hierarchy moves.  Divergent
tree traversals produce near-worst-case sector counts — the memory
divergence the paper's Fig. 1 highlights.
"""

from typing import Iterable, List, Tuple

SECTOR_SIZE = 32


def coalesce_sectors(requests: Iterable[Tuple[int, int]],
                     sector_size: int = SECTOR_SIZE) -> List[int]:
    """Coalesce ``(address, size)`` pairs into unique aligned sector addresses.

    Returns the sorted list of sector base addresses covering every
    requested byte.  The cover is minimal (only sectors that contain at
    least one requested byte) and complete (every requested byte is in
    some returned sector) — properties the tests verify.
    """
    sectors = set()
    for addr, size in requests:
        if size <= 0:
            raise ValueError(f"request size must be positive, got {size}")
        # Every aligned base from the first byte's sector up to the
        # last byte's.
        sectors.update(range(addr - addr % sector_size, addr + size,
                             sector_size))
    return sorted(sectors)
