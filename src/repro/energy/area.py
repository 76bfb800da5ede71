"""Table IV: FreePDK45 synthesis areas, and the TTA Ray-Box delta (§V-C1).

All areas in µm² at 45nm.  These are the paper's synthesized values,
embedded as the reference the ``table4`` experiment regenerates.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Baseline RTA operation units (one set).
BASELINE_AREAS_UM2: Dict[str, float] = {
    "ray_box": 270779.1,
    "ray_tri": 331299.0,
}

#: TTA+ components (one set of operation units + the interconnect).
TTAPLUS_AREAS_UM2: Dict[str, float] = {
    "interconnect_16x16_120B": 177902.2,
    "vec3_addsub": 17424.2,
    "mul": 9551.7,
    "minmax": 2176.6,
    "maxmin": 1895.0,
    "cross": 74734.1,
    "dot": 40271.1,
    "rcp_x3": 212991.3,
}
SQRT_AREA_UM2 = 284367.2

#: §V-C1: the modified Ray-Box unit (added comparators + bypassing).
TTA_RAY_BOX_AREA_UM2 = 275600.0   # 0.2756 mm^2
TTA_RAY_BOX_DELTA_UM2 = TTA_RAY_BOX_AREA_UM2 - BASELINE_AREAS_UM2["ray_box"]


def baseline_rta_area_um2() -> float:
    """One set of baseline intersection units (Table IV left: 602078.1)."""
    return sum(BASELINE_AREAS_UM2.values())


@dataclass
class AreaReport:
    """An area comparison in the shape of Table IV."""

    rows: List[Tuple[str, float]]
    total_um2: float
    vs_baseline_pct: float

    def row(self, name: str) -> float:
        for row_name, area in self.rows:
            if row_name == name:
                return area
        raise KeyError(name)


def ttaplus_area_report(with_sqrt: bool = True) -> AreaReport:
    """Table IV right: TTA+ component areas and the baseline comparison.

    Without SQRT, TTA+ is *smaller* than the baseline (-10.8%) because
    the modular units are shared rather than replicated; the SQRT unit
    needed for the new optimized workloads brings it to +36.4%.
    """
    rows = list(TTAPLUS_AREAS_UM2.items())
    if with_sqrt:
        rows.append(("sqrt", SQRT_AREA_UM2))
    total = sum(area for _name, area in rows)
    baseline = baseline_rta_area_um2()
    return AreaReport(rows, total, 100.0 * (total - baseline) / baseline)


def tta_area_report() -> AreaReport:
    """§V-C1: TTA modifies only the Ray-Box unit (+1.8% of that unit)."""
    rows = [
        ("ray_box_modified", TTA_RAY_BOX_AREA_UM2),
        ("ray_tri", BASELINE_AREAS_UM2["ray_tri"]),
    ]
    total = sum(area for _name, area in rows)
    baseline = baseline_rta_area_um2()
    return AreaReport(rows, total, 100.0 * (total - baseline) / baseline)


def tta_ray_box_overhead_pct() -> float:
    """The +1.8% Ray-Box area increase reported in §V-C1."""
    return 100.0 * TTA_RAY_BOX_DELTA_UM2 / BASELINE_AREAS_UM2["ray_box"]
