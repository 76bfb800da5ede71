"""Workload generators with golden references.

Each module builds the data structures, queries, kernel argument blocks
and accelerator jobs for one of the paper's evaluated applications, and
exposes a brute-force golden reference so tests can verify that every
platform (baseline GPU, RTA, TTA, TTA+) computes identical results.
"""

from repro.workloads.btree_workload import BTreeWorkload, make_btree_workload
from repro.workloads.nbody import NBodyWorkload, make_nbody_workload
from repro.workloads.pointcloud import synth_lidar_cloud
from repro.workloads.rtnn import RTNNWorkload, make_rtnn_workload
from repro.workloads.rtree_workload import RTreeWorkload, make_rtree_workload
from repro.workloads.knn_workload import KNNWorkload, make_knn_workload
from repro.workloads.wknd import WKNDWorkload, make_wknd_workload
from repro.workloads.lumibench import LUMIBENCH_SUITE, make_lumibench_workload
from repro.workloads.rangescan import (
    RangeScanWorkload,
    make_rangescan_workload,
)

__all__ = [
    "BTreeWorkload",
    "make_btree_workload",
    "NBodyWorkload",
    "make_nbody_workload",
    "synth_lidar_cloud",
    "RTNNWorkload",
    "make_rtnn_workload",
    "RTreeWorkload",
    "make_rtree_workload",
    "KNNWorkload",
    "make_knn_workload",
    "WKNDWorkload",
    "make_wknd_workload",
    "LUMIBENCH_SUITE",
    "make_lumibench_workload",
    "RangeScanWorkload",
    "make_rangescan_workload",
]
