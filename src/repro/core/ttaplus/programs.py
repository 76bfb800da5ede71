"""The µop intersection-test programs of Table III.

Every row of Table III is reproduced here as a named
:class:`UopProgram`; ``tests/test_ttaplus.py`` checks the per-unit µop
counts against the table, and the ``table3`` experiment
(``repro run table3``) regenerates it.  Programs execute serially through the OP units — the
modular design trades the fixed-function pipelines' internal
parallelism for programmability (§III-C).
"""

from typing import Dict, List, Sequence

from repro.errors import ProgramError
from repro.core.ttaplus.uop import Uop


class UopProgram:
    """A named, ordered µop sequence (one intersection test)."""

    def __init__(self, name: str, uops: Sequence[Uop]):
        if not uops:
            raise ProgramError(f"program {name!r} has no µops")
        self.name = name
        self.uops: List[Uop] = [Uop.validate(u.unit) for u in uops]

    def __len__(self) -> int:
        return len(self.uops)

    def unit_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for uop in self.uops:
            counts[uop.unit] = counts.get(uop.unit, 0) + 1
        return counts

    def __repr__(self) -> str:
        return f"UopProgram({self.name}, {len(self.uops)} µops)"


def _prog(name: str, *unit_sequence: str) -> UopProgram:
    return UopProgram(name, [Uop(u) for u in unit_sequence])


#: Table III, row by row.  Unit mix per row matches the table's columns;
#: the serial order is the natural dataflow order of each algorithm.
PROGRAMS: Dict[str, UopProgram] = {
    # B-Tree / B*Tree / B+Tree — Inner (Query-Key): 12 µops
    # 6 MIN/MAX + 3 Vec3 CMP + 3 Vec3 OR.  Same-unit µops are grouped so
    # they execute back-to-back inside the unit (one interconnect
    # crossing per run, §III-C).
    "btree_inner": _prog(
        "btree_inner",
        "minmax", "minmax", "minmax",
        "maxmin", "maxmin", "maxmin",
        "vec3_cmp", "vec3_cmp", "vec3_cmp",
        "logical", "logical", "logical",
    ),
    # B-Tree leaf (Query-Key equality scan): 3 µops, 3 Vec3 CMP
    "btree_leaf": _prog("btree_leaf", "vec3_cmp", "vec3_cmp", "vec3_cmp"),
    # N-Body inner (Point-to-Point distance): 3 µops — SUB, DOT, CMP
    "nbody_inner": _prog("nbody_inner", "vec3_addsub", "dot", "vec3_cmp"),
    # N-Body leaf (force computation): 5 µops — 3 MUL + SQRT + R-XFORM
    # (the paper folds three multiplies into one R-XFORM where possible)
    "nbody_leaf": _prog("nbody_leaf", "mul", "mul", "mul", "sqrt", "rxform"),
    # Ray-Box (RTNN / WKND_PT / LumiBench inner): 19 µops —
    # 2 Vec3 SUB + 6 MUL + 3 RCP + 6 MIN/MAX + 1 Vec3 CMP + 1 Vec3 OR
    "raybox": _prog(
        "raybox",
        "vec3_addsub", "vec3_addsub",
        "rcp", "rcp", "rcp",
        "mul", "mul", "mul", "mul", "mul", "mul",
        "minmax", "minmax", "minmax",
        "maxmin", "maxmin", "maxmin",
        "vec3_cmp", "logical",
    ),
    # RTNN leaf (Point-to-Point distance): 5 µops —
    # 1 Vec3 SUB + 1 MUL + 1 DOT + 1 Vec3 CMP + 1 Vec3 OR
    "rtnn_leaf": _prog(
        "rtnn_leaf", "vec3_addsub", "mul", "dot", "vec3_cmp", "logical",
    ),
    # WKND_PT leaf (Ray-Sphere): 18 µops —
    # 5 Vec3 SUB + 5 MUL + 1 SQRT + 1 RCP + 3 DOT + 2 Vec3 CMP + 1 Vec3 OR
    "raysphere": _prog(
        "raysphere",
        "vec3_addsub", "vec3_addsub", "vec3_addsub", "vec3_addsub",
        "vec3_addsub",
        "dot", "dot", "dot",
        "mul", "mul", "mul", "mul", "mul",
        "sqrt", "rcp",
        "vec3_cmp", "vec3_cmp", "logical",
    ),
    # LumiBench leaf (Ray-Tri, Möller-Trumbore): 17 µops —
    # 3 Vec3 SUB + 3 MUL + 1 RCP + 2 CROSS + 4 DOT + 2 Vec3 CMP + 2 Vec3 OR
    "raytri": _prog(
        "raytri",
        "vec3_addsub", "vec3_addsub", "vec3_addsub",
        "cross", "dot", "rcp",
        "cross", "dot", "dot", "dot",
        "mul", "mul", "mul",
        "vec3_cmp", "logical", "vec3_cmp", "logical",
    ),
    # Two-level BVH crossing: a single ray transform.
    "xform": _prog("xform", "rxform"),
    # --- extensions beyond Table III (enabled by TTA+ programmability) ---
    # k-d tree kNN inner test: plane delta, plane compare, prune compare.
    "knn_inner": _prog("knn_inner", "vec3_addsub", "vec3_cmp", "vec3_cmp"),
}


def program_named(name: str) -> UopProgram:
    try:
        return PROGRAMS[name]
    except KeyError:
        raise ProgramError(
            f"no µop program named {name!r}; known programs: "
            f"{sorted(PROGRAMS)}"
        )


def register_program(program: UopProgram, replace: bool = False) -> None:
    """Install a user-defined intersection test (the ConfigI/ConfigL path)."""
    if program.name in PROGRAMS and not replace:
        raise ProgramError(f"program {program.name!r} already registered")
    PROGRAMS[program.name] = program
