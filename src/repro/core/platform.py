"""The evaluation platform description — the paper's Table 1."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..hardware import POWEREDGE_1750
from ..networks.params import ELAN_4, IB_4X


@dataclass(frozen=True)
class PlatformRow:
    """One Table 1 row: a system component and its description."""

    system: str
    description: str


def table1_rows() -> List[PlatformRow]:
    """The platform table: node, both interconnects, MPI stacks."""
    return [
        PlatformRow(
            "Node Type",
            "Dell PowerEdge 1750 Server: "
            f"Dual {POWEREDGE_1750.cpu_ghz:.2f} GHz Intel Xeon processors, "
            "533 MHz FSB, ServerWorks GC-LE chip set, "
            "133 MHz PCI-X bus for the high-speed interconnect",
        ),
        PlatformRow(
            "InfiniBand Interconnect",
            "Voltaire HCA 400 4X host channel adapter, ISR 9600 Switch "
            "Router, 4X copper cable. MPI: MVAPICH 0.9.2 (model); "
            f"wire {IB_4X.fabric.link_bandwidth:.0f} MB/s/dir, "
            f"eager threshold {IB_4X.eager_threshold} B",
        ),
        PlatformRow(
            "Quadrics Interconnect",
            "Quadrics QsNetII: QM-500 network adapter, QS5A node-level "
            "switch. MPI: Quadrics MPI over Tports (model); "
            f"wire {ELAN_4.fabric.link_bandwidth:.0f} MB/s/dir, "
            f"NIC-handshake threshold {ELAN_4.sync_threshold} B",
        ),
        PlatformRow(
            "Partitions",
            "InfiniBand partition: 96 nodes (32 modelled); "
            "Quadrics partition: 32 nodes; independent in operation, "
            "identical compute hardware",
        ),
    ]


def render_table1() -> str:
    """ASCII rendering of Table 1."""
    rows = table1_rows()
    width = max(len(r.system) for r in rows)
    lines = ["Table 1. Evaluation platform", "-" * 72]
    for r in rows:
        lines.append(f"{r.system:<{width}} | {r.description}")
    return "\n".join(lines)
