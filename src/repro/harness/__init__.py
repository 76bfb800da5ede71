"""Experiment harness: one entry point per paper figure/table.

``repro.harness.experiments.EXPERIMENTS`` registers every figure
(``fig01`` ... ``fig20``, ``nbody_fusion``), table (``table1``,
``table3``, ``table4``) and extension study; each entry's function runs
the relevant workloads on the relevant platforms at one scale and
returns a :class:`~repro.harness.results.Table` shaped like the paper's
figure, with the paper's reported values alongside, and its claims
check the paper's qualitative findings on that table.
"""

from repro.harness.results import Table, geomean
from repro.harness.runner import (
    RunResult,
    run_btree,
    run_knn,
    run_lumibench,
    run_nbody,
    run_rtnn,
    run_rtree,
    run_wknd,
    scaled_config_for,
)

__all__ = [
    "Table",
    "geomean",
    "RunResult",
    "run_btree",
    "run_nbody",
    "run_rtnn",
    "run_rtree",
    "run_knn",
    "run_wknd",
    "run_lumibench",
    "scaled_config_for",
]
