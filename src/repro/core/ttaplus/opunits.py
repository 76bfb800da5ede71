"""Table I: the OP units of TTA+ with their latencies.

The paper implements one copy of each unit ("the most general
configuration") and reports per-unit utilization in Fig. 18 (top); the
``copies`` override supports the future-work exploration of wider
configurations.  µop latencies are the Agner-Fog-referenced values of
Table I.
"""

from typing import Dict, List, Optional

from repro.errors import ConfigurationError, ProgramError
from repro.sim.resources import PipelinedUnit
from repro.core.ttaplus.uop import UNIT_TYPES

#: Table I latencies, in cycles.
OP_UNIT_LATENCIES: Dict[str, int] = {
    "vec3_addsub": 4,   # Pipelined FP32 Vec3 +/- Vec3
    "mul": 4,           # Pipelined FP32 scalar multiply
    "rcp": 4,           # FP32 1/x (RCPSS-like)
    "cross": 5,         # Vec3 cross product
    "dot": 5,           # Vec3 dot product
    "vec3_cmp": 1,      # (a <= b) ? 1 : 0 per component
    "minmax": 1,        # MIN(a, MAX(b, c))
    "maxmin": 1,        # MAX(a, MIN(b, c))
    "logical": 1,       # AND/OR/XOR/NOT
    "sqrt": 11,         # square root
    "rxform": 4,        # ray transform matrix multiply
}


#: Unit type -> its index in :data:`UNIT_TYPES`: the OP-unit pool and
#: crossbar input port of that type.
UNIT_INDEX: Dict[str, int] = {unit: i for i, unit in enumerate(UNIT_TYPES)}


class OpUnitBank:
    """The physical OP units of one TTA+ instance.

    Pools are indexed in :data:`UNIT_TYPES` order, and a unit type's
    pool of copies is built on its first issue: a launch constructs
    units only for the types its programs use.  An unbuilt pool reports
    the statistics of never-issued units (:data:`_IDLE_STATS`).
    """

    def __init__(self, copies: Dict[str, int] = None,
                 latency_scale: float = 1.0):
        if latency_scale <= 0:
            raise ConfigurationError("latency scale must be positive")
        copies = copies or {}
        self.copies = [copies.get(unit_type, 1) for unit_type in UNIT_TYPES]
        short = [t for t, n in zip(UNIT_TYPES, self.copies) if n < 1]
        if short:
            raise ConfigurationError(f"need at least one {short[0]} unit")
        self.latency_scale = latency_scale
        #: per unit type: its list of copies, None until first issued
        self.pools: List[Optional[list]] = [None] * len(UNIT_TYPES)
        #: per unit type: the copy the next µop issues on (round robin)
        self.rr = [0] * len(UNIT_TYPES)

    def pool(self, index: int) -> list:
        """The copies of unit type ``UNIT_TYPES[index]`` (built once)."""
        pool = self.pools[index]
        if pool is None:
            unit_type = UNIT_TYPES[index]
            latency = max(1.0,
                          OP_UNIT_LATENCIES[unit_type] * self.latency_scale)
            pool = self.pools[index] = [
                PipelinedUnit(f"{unit_type}[{i}]", latency=latency,
                              strict=False)
                for i in range(self.copies[index])
            ]
        return pool

    @property
    def units(self) -> Dict[str, list]:
        """Every unit type's pool, building those not issued yet."""
        return {unit_type: self.pool(index)
                for index, unit_type in enumerate(UNIT_TYPES)}

    def issue_run(self, index: int, n: int, at: float, issued: list) -> float:
        """Issue ``n`` µops at ``at`` round-robin over pool ``index``.

        Appends each unit issued on to ``issued`` and returns the last
        completion time.
        """
        pool = self.pool(index)
        rr = self.rr
        last_done = at
        for _ in range(n):
            idx = rr[index]
            rr[index] = (idx + 1) % len(pool)
            unit = pool[idx]
            done = unit.issue(at)[1]
            issued.append(unit)
            if done > last_done:
                last_done = done
        return last_done

    def issue(self, unit_type: str, at: float):
        """Issue on the next copy of ``unit_type``; returns (unit, start, done)."""
        index = UNIT_INDEX.get(unit_type)
        if index is None:
            raise ProgramError(f"unknown OP unit type {unit_type!r}")
        pool = self.pool(index)
        idx = self.rr[index]
        self.rr[index] = (idx + 1) % len(pool)
        unit = pool[idx]
        start, done = unit.issue(at)
        return unit, start, done

    def snapshot(self, end: float) -> Dict[str, dict]:
        out = {}
        for unit_type, pool in zip(UNIT_TYPES, self.pools):
            if pool is None:
                out[unit_type] = dict(_IDLE_STATS)
                continue
            out[unit_type] = {
                "ops": sum(u.ops for u in pool),
                "busy_cycles": sum(u.busy_cycles for u in pool),
                "utilization": (sum(u.busy_cycles for u in pool)
                                / (end * len(pool)) if end > 0 else 0.0),
                "occupancy_avg": sum(u.occupancy.average(end) for u in pool),
                "occupancy_peak": sum(u.occupancy.peak for u in pool),
            }
        return out


#: What :meth:`OpUnitBank.snapshot` reports for a pool of never-issued
#: units, value for value and type for type.
_IDLE_STATS = {"ops": 0, "busy_cycles": 0.0, "utilization": 0.0,
               "occupancy_avg": 0.0, "occupancy_peak": 0}
