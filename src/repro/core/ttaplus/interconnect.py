"""The 16x16 crosspoint interconnect joining TTA+ OP units.

Each µop hand-off pushes the 120B payload (node + ray + intermediates)
from the producing unit's output buffer to the consuming unit's input
port.  An input port accepts one payload per cycle; a hand-off costs
``hop_latency`` cycles of wire/switch traversal plus any queueing at
the destination port.  Port contention and the serialization of µop
chains are the latency overheads Fig. 18 (bottom) attributes to "ICNT".
"""

from typing import Dict, List

from repro.errors import ConfigurationError
from repro.core.ttaplus.uop import UNIT_TYPES
from repro.sim.resources import Timeline

CROSSBAR_PORTS = 16
PAYLOAD_BYTES = 120  # 64B node + 32B ray + 24B intermediates (§V-C2)
#: index of the writeback port in :attr:`Crossbar.ports`
WRITEBACK_INDEX = len(UNIT_TYPES)


class Crossbar:
    """Per-destination-port timelines modelling a 16x16 crosspoint switch."""

    def __init__(self, hop_latency: int = 2, perfect: bool = False,
                 ports_per_unit: int = 1):
        if hop_latency < 0:
            raise ConfigurationError("hop latency cannot be negative")
        if ports_per_unit < 1:
            raise ConfigurationError("need at least one port per unit")
        if len(UNIT_TYPES) + 1 > CROSSBAR_PORTS:
            raise ConfigurationError("more OP units than crossbar ports")
        self.hop_latency = 0 if perfect else hop_latency
        self.perfect = perfect
        # With S sets of OP units (Table II: 4 intersection-unit sets),
        # each unit type has S input ports; modelled as one timeline with
        # S-per-cycle acceptance.
        self._service = 1.0 / ports_per_unit
        #: input ports in ``UNIT_TYPES`` order, then the writeback port
        #: (index :data:`WRITEBACK_INDEX`)
        self.ports: List[Timeline] = [
            Timeline(f"icnt.{unit}") for unit in UNIT_TYPES
        ] + [Timeline("icnt.writeback")]
        self._ports: Dict[str, Timeline] = dict(
            zip(UNIT_TYPES + ("writeback",), self.ports))
        self.transfers = 0
        self.bytes_moved = 0

    def route(self, now: float, dst_unit: str) -> float:
        """Deliver one payload to ``dst_unit``; returns arrival time."""
        port = self._ports.get(dst_unit)
        if port is None:
            raise ConfigurationError(f"no crossbar port for {dst_unit!r}")
        return self.deliver(now, port)

    def deliver(self, now: float, port: Timeline) -> float:
        """Deliver one payload to input ``port``; returns arrival time."""
        self.transfers += 1
        self.bytes_moved += PAYLOAD_BYTES
        if self.perfect:
            return now
        start = port.acquire(now, self._service)
        return start + 1.0 + self.hop_latency

    def utilization(self, end: float) -> float:
        if end <= 0:
            return 0.0
        busy = sum(p.busy_cycles for p in self.ports)
        return min(1.0, busy / (end * len(self.ports)))

    def snapshot(self, end: float) -> dict:
        return {
            "icnt_transfers": self.transfers,
            "icnt_bytes": self.bytes_moved,
            "icnt_util": self.utilization(end),
        }
