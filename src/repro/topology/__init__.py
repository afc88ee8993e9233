"""Multi-stage fabric topologies with per-hop routing and contention.

The paper's test beds hang every node off a single switch chassis, so
the repro's original fabric was a crossbar and the large-scale story
(Figure 8) was *extrapolated*.  This package turns the fabric seam into
a real topology model: every switch-to-switch link is a directed
:class:`~repro.sim.FifoResource`, routes are deterministic functions of
(src, dst), and a message contends on every link it traverses — output
contention, ISL hot spots and torus neighbor locality all emerge from
the event kernel rather than from closed-form guesses.

Concrete topologies:

* :class:`CrossbarTopology` — the original single-chassis model (still
  the default);
* :class:`FatTreeTopology` — folded-Clos fat tree of ``radix``-port
  switches, 1 to 3 levels, deterministic d-mod-k up-routing, with port
  arithmetic shared with :mod:`repro.cost.switchmath` so the cost and
  performance models agree switch-for-switch;
* :class:`TorusTopology` — 3D torus of point-to-point links (the
  lattice-QCD machine shape), dimension-ordered routing with
  per-dimension hop latencies.

:class:`TopologySpec` is the JSON-scalar campaign-sweepable description
(``topology.*`` dotted axes); :class:`TopologyScalingStudy` simulates
ping-pong / b_eff / sweep3d at 128-1024+ ranks and sets the result next
to the :mod:`repro.core.extrapolate` trend fit — the repro's first
number the 2004 paper could only guess at.  :class:`FabricSpec` is the
wire parameter set (link bandwidth, cable/switch latency, MTU) each
technology hands every topology.
"""

from .base import CrossbarTopology, FabricSpec, Topology
from .fattree import FatTreeTopology
from .spec import TopologySpec
from .study import TopologyScalingStudy, TopologyScalingResult
from .torus import TorusTopology

__all__ = [
    "CrossbarTopology",
    "FabricSpec",
    "FatTreeTopology",
    "Topology",
    "TopologyScalingResult",
    "TopologyScalingStudy",
    "TopologySpec",
    "TorusTopology",
]
