"""Wire-level fabric parameters and routing properties.

The topology implementations themselves live in :mod:`repro.topology`
(crossbar, fat trees, 3D torus) — this module keeps the technology
parameter set (:class:`FabricSpec`) they all consume, plus the
routing-determinism property check used by the tests.  The historical
names ``repro.fabric.CrossbarFabric`` and ``repro.fabric.TwoLevelFabric``
remain importable from the package (the former *is*
:class:`repro.topology.CrossbarTopology`; the latter is a deprecated
alias for a two-level :class:`repro.topology.FatTreeTopology`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

from ..errors import ConfigurationError


@dataclass(frozen=True)
class FabricSpec:
    """Wire-level parameters of a fabric technology.

    ``link_bandwidth`` is the usable payload bandwidth of one link
    direction in bytes/us (MB/s): 4X InfiniBand signals at 10 Gb/s with
    8b/10b coding for 8 Gb/s of data (1000 MB/s) less packet overheads;
    Elan-4 links carry about 1.3 GB/s of payload each way.
    """

    link_bandwidth: float
    #: Propagation + SerDes latency of one cable hop (us).
    cable_latency: float
    #: Switch crossing latency (us).
    switch_latency: float
    #: Packet/MTU size used as the pipelining chunk (bytes).
    mtu: int

    def __post_init__(self) -> None:
        if self.link_bandwidth <= 0:
            raise ConfigurationError("link bandwidth must be positive")
        if self.mtu < 64:
            raise ConfigurationError(f"unrealistic MTU: {self.mtu}")
        if self.cable_latency < 0 or self.switch_latency < 0:
            raise ConfigurationError("latencies must be non-negative")


def routes_are_deterministic(fabric: Any, pairs: List[Tuple[int, int]]) -> bool:
    """True when stage lookups return the resources a fresh route has.

    Used by property tests: deterministic routing is an invariant both of
    the real networks and of reproducible simulation.  Works on any
    :class:`~repro.topology.Topology`.  ``wire_stages`` serves cached
    routes, so each lookup is compared with a fresh ``_route`` (two
    lookups would just return the same cached list).  Same-node pairs
    have no route.
    """
    for src, dst in pairs:
        served = [s.resource for s in fabric.wire_stages(src, dst)]
        fresh = (
            [s.resource for s in fabric._route(src, dst)] if src != dst else []
        )
        if served != fresh:
            return False
    return True
