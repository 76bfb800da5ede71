"""OP Dest Tables and Config Regs: the routing state of TTA+.

Before a kernel launch, ``ConfigI``/``ConfigL`` compile the inner- and
leaf-node µop programs into per-unit routing entries: for each (node
type, µop PC) executed on a unit, the table names the next unit's input
port (Fig. 10).  Each program's stage plan is compiled by following
these hand-offs (:func:`~repro.core.ttaplus.ttaplus.compile_plan`); a
missing entry is a configuration error, which is exactly the hardware
failure mode of launching with stale Config Regs.
"""

from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.core.ttaplus.programs import UopProgram

WRITEBACK_PORT = "writeback"


class OpDestTable:
    """Routing entries: (node_type, pc) -> destination port."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, int], str] = {}
        self._first: Dict[str, str] = {}
        self.lookups = 0

    def load_program(self, node_type: str, program: UopProgram) -> None:
        """Compile one program's dataflow into table entries."""
        units = [uop.unit for uop in program.uops]
        if not units:
            raise ConfigurationError("cannot load an empty program")
        self._first[node_type] = units[0]
        for pc, unit in enumerate(units):
            nxt = units[pc + 1] if pc + 1 < len(units) else WRITEBACK_PORT
            self._entries[(node_type, pc)] = nxt

    def first_unit(self, node_type: str) -> str:
        try:
            return self._first[node_type]
        except KeyError:
            raise ConfigurationError(
                f"no program configured for node type {node_type!r}"
            )

    def next_port(self, node_type: str, pc: int) -> str:
        self.lookups += 1
        try:
            return self._entries[(node_type, pc)]
        except KeyError:
            raise ConfigurationError(
                f"OP Dest Table has no entry for ({node_type!r}, pc={pc}); "
                "ConfigI/ConfigL not run for this node type"
            )

    @property
    def size(self) -> int:
        return len(self._entries)
