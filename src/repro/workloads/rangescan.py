"""B+Tree range-scan workloads (the negative-control extension).

Unique random keys are bulk-loaded into a B+Tree; each query is a
``[lo, lo + width]`` key range.  The golden reference slices the
sorted key list, independently of the tree's leaf chain.
"""

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.kernels.range_scan import RangeScanKernelArgs, build_range_scan_jobs
from repro.memsys.memory_image import AddressSpace
from repro.trees.btree import BPlusTree
from repro.trees.layout import TreeImage


@dataclass
class RangeScanWorkload:
    tree: BPlusTree
    keys: List[int]
    ranges: List[Tuple[int, int]]
    width: int
    image: TreeImage
    query_buf: int
    result_buf: int

    def kernel_args(self, jobs: Sequence = ()) -> RangeScanKernelArgs:
        return RangeScanKernelArgs(self.tree, self.ranges, self.query_buf,
                                   self.result_buf, jobs=list(jobs))

    def jobs(self, flavor: str):
        return build_range_scan_jobs(self.tree, self.ranges, flavor=flavor)

    @property
    def n_queries(self) -> int:
        return len(self.ranges)

    def golden(self, lo: int, hi: int) -> List[int]:
        return self.keys[bisect_left(self.keys, lo):
                         bisect_right(self.keys, hi)]


def make_rangescan_workload(n_keys: int = 16384, n_ranges: int = 512,
                            width: int = 128,
                            seed: int = 11) -> RangeScanWorkload:
    """``n_keys`` unique keys drawn from ``[0, 4 * n_keys)`` and
    ``n_ranges`` ranges of ``width`` starting anywhere in that span."""
    if n_keys < 1 or n_ranges < 1 or width < 0:
        raise ConfigurationError(
            "range scans need keys, ranges and a width >= 0")
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(n_keys * 4), n_keys))
    tree = BPlusTree.bulk_load(keys, seed=seed)
    ranges = [(lo, lo + width)
              for lo in (rng.randrange(n_keys * 4) for _ in range(n_ranges))]
    space = AddressSpace()
    image = space.place_tree(tree.nodes())
    return RangeScanWorkload(tree, keys, ranges, width, image,
                             query_buf=space.alloc(8 * n_ranges, align=128),
                             result_buf=space.alloc(4 * n_ranges, align=128))
