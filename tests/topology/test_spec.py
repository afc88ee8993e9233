"""TopologySpec validation, parsing, serialization and building."""

import pytest

from repro.campaign import RunSpec
from repro.errors import ConfigurationError
from repro.sim import Simulator
from repro.topology import (
    CrossbarTopology,
    FabricSpec,
    FatTreeTopology,
    TopologySpec,
    TorusTopology,
)

pytestmark = pytest.mark.topology

SPEC = FabricSpec(
    link_bandwidth=1000.0, cable_latency=0.1, switch_latency=0.2, mtu=2048
)


def test_default_is_crossbar():
    spec = TopologySpec()
    assert spec.kind == "crossbar"
    built = spec.build(Simulator(), 4, SPEC)
    assert type(built) is CrossbarTopology


def test_fattree_spec_builds():
    spec = TopologySpec(kind="fattree", radix=8, levels=2)
    built = spec.build(Simulator(), 16, SPEC)
    assert isinstance(built, FatTreeTopology)
    assert built.radix == 8
    assert built.levels == 2


def test_torus_spec_parses_dims_and_latencies():
    spec = TopologySpec(kind="torus", dims="2x2x4", dim_latency="0.1,0.1,0.3")
    assert spec.dims_tuple() == (2, 2, 4)
    assert spec.dim_latency_tuple() == (0.1, 0.1, 0.3)
    built = spec.build(Simulator(), 16, SPEC)
    assert isinstance(built, TorusTopology)
    assert built.dims == (2, 2, 4)
    assert built.dim_latency == (0.1, 0.1, 0.3)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "hypercube"},
        {"kind": "fattree", "radix": 3},
        {"kind": "fattree", "radix": 8, "levels": 4},
        {"kind": "crossbar", "radix": 8},
        {"kind": "crossbar", "dims": "2x2x2"},
        {"kind": "torus", "dims": "2x2"},
        {"kind": "torus", "dims": "axbxc"},
        {"kind": "torus", "dims": "2x2x2", "dim_latency": "0.1,0.1"},
        {"kind": "torus", "dim_latency": "0.1,-0.1,0.1", "dims": "2x2x2"},
    ],
)
def test_bad_specs_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        TopologySpec(**kwargs)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_torus_latency_rejected(bad):
    # float() parses these; a NaN hop latency would build and then
    # crash the run mid-flight.
    dim_latency = f"{bad},0.1,0.1"
    with pytest.raises(ConfigurationError, match="finite"):
        TopologySpec(kind="torus", dim_latency=dim_latency)
    with pytest.raises(ConfigurationError, match="finite"):
        RunSpec(
            app="pingpong", network="elan", nodes=8,
            topology=(("kind", "torus"), ("dim_latency", dim_latency)),
        )


@pytest.mark.parametrize("kwargs,field", [
    ({"kind": "torus", "dims": 444}, "dims"),
    ({"kind": "torus", "dim_latency": 5}, "dim_latency"),
    ({"kind": None}, "kind"),
    ({"kind": "fattree", "radix": "8"}, "radix"),
    ({"kind": "fattree", "radix": 8.0}, "radix"),
    ({"kind": "fattree", "radix": 8, "levels": True}, "levels"),
])
def test_mistyped_fields_rejected(kwargs, field):
    # dims=444 and dim_latency=5 used to raise AttributeError from the
    # string parsers (an HTTP 500), radix="8" a bare TypeError, and
    # levels=True ran as one level under a key of its own.
    with pytest.raises(ConfigurationError, match=f"{field}=.* must be"):
        TopologySpec(**kwargs)
    with pytest.raises(ConfigurationError, match=f"{field}=.* must be"):
        TopologySpec.from_dict(kwargs)


def test_round_trips_through_dict():
    spec = TopologySpec(kind="torus", dims="8x8x16")
    assert TopologySpec.from_dict(spec.to_dict()) == spec
    partial = TopologySpec.from_dict({"kind": "fattree", "radix": 16})
    assert partial.radix == 16 and partial.levels == 0


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigurationError):
        TopologySpec.from_dict({"kind": "torus", "shape": "8x8x16"})


def test_describe_shows_non_defaults():
    assert TopologySpec().describe() == "TopologySpec()"
    text = TopologySpec(kind="fattree", radix=16).describe()
    assert "fattree" in text and "radix=16" in text
