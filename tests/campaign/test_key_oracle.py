"""``RunSpec.key`` against the derivation it replaced.

:func:`reference_key` is the original key derivation, kept here as the
oracle: the sha256 of the spec's ``to_dict()`` under ``json.dumps`` with
sorted keys and compact separators.  ``RunSpec.key`` writes that text
itself, without an encoder, and must match it byte for byte on every
spec — otherwise every cached record silently misses.
"""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.campaign.spec as spec_mod
from repro.campaign import RunSpec
from repro.mpi.machine import NETWORKS


def reference_key(spec):
    payload = json.dumps(
        {"version": spec_mod.__version__, "run": spec.to_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


#: Ints as large as 2**40, every one exactly representable as a float.
BIG = 2 ** 40

#: Strings that need escaping (non-ASCII: é, ☃ and a character beyond
#: the BMP; a quote, a tab, a backslash, NUL), beside arbitrary text.
TEXT = st.one_of(
    st.sampled_from(["é", "☃", 'a"b', "a\tb", "back\\slash", "\x00", "😀", ""]),
    st.text(max_size=8),
)

FLOATS = st.one_of(
    st.sampled_from([1e16, 1e-7, -0.0, 2.0, 0.5, -3.25, 1e300, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)

SCALARS = st.one_of(TEXT, st.integers(-BIG, BIG), FLOATS, st.booleans(), st.none())

FAULTS = st.one_of(
    st.just({}),
    st.fixed_dictionaries({}, optional={
        "ber": st.sampled_from([0, 0.0, 1e-7, 0.25]),
        "nic_stall_rate": st.floats(0.0, 0.5),
        "nic_stall_us": st.one_of(st.floats(0.0, 1e6), st.integers(0, BIG)),
        "elan_rails": st.sampled_from([1, 2, 2.0]),
        "reg_retry_budget": st.integers(1, BIG),
        "hard_events": st.sampled_from(["", "link_down@250:isl:é"]),
    }),
    st.fixed_dictionaries({
        "link": TEXT.filter(bool),
        "link_ber": st.floats(1e-9, 0.5),
    }),
)

TOPOLOGIES = st.one_of(
    st.just({}),
    st.just({"kind": "crossbar"}),
    st.fixed_dictionaries(
        {"kind": st.just("fattree"), "radix": st.sampled_from([4, 8, 8.0, 36])},
        optional={"levels": st.sampled_from([0, 1, 2, 3, 2.0])},
    ),
    st.fixed_dictionaries({"kind": st.just("torus")}, optional={
        "dims": st.sampled_from(["", "4x4x4", "2X2x8"]),
        "dim_latency": st.sampled_from(["0.1,0.1,0.3", "0,0,0"]),
    }),
)


@st.composite
def spec_dicts(draw):
    """``RunSpec.from_dict`` input: every field, optional ones sometimes."""
    data = {
        "app": draw(TEXT),
        "network": draw(st.sampled_from(NETWORKS)),
        "nodes": draw(st.integers(1, BIG)),
        "app_args": draw(st.dictionaries(TEXT, SCALARS, max_size=4)),
        "faults": draw(FAULTS),
        "topology": draw(TOPOLOGIES),
    }
    if draw(st.booleans()):
        data["ppn"] = draw(st.integers(1, BIG))
    if draw(st.booleans()):
        data["seed"] = draw(st.integers(-BIG, BIG))
    if draw(st.booleans()):
        data["ib_progress_thread"] = draw(st.booleans())
    if not data["topology"] and draw(st.booleans()):
        data["fabric_radix"] = draw(st.sampled_from([None, 4, 8, 16.0]))
    return data


def with_float_noise(data):
    """``data`` with every int value written as the equal float."""
    def noisy(value):
        if isinstance(value, dict):
            return {k: noisy(v) for k, v in value.items()}
        if isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        return value

    return {k: noisy(v) for k, v in data.items()}


@settings(max_examples=400, deadline=None)
@given(spec_dicts())
@example({"app": "pingpong", "network": "ib", "nodes": 2,
          "faults": {"ber": 0.0}, "app_args": {"size": 1024}})
def test_key_matches_the_reference_derivation(data):
    spec = RunSpec.from_dict(data)
    assert spec.key == reference_key(spec)
    # Integral floats collapse onto ints, so a float-noised request has
    # the same key.  The reference alone cannot see a constructor that
    # keeps the floats: it derives its text from the same spec.
    twin = RunSpec.from_dict(with_float_noise(data))
    assert twin.key == spec.key


def test_repeated_pair_name_keys_like_to_dict():
    spec = RunSpec(app="pingpong", network="ib", nodes=2,
                   app_args=(("size", 16), ("reps", 2), ("size", 8)))
    assert spec.key == reference_key(spec)


#: Keys of perfbench's two scale-64 specs and one Figure 1 ping-pong
#: point under a fixed version string, recorded with the reference
#: derivation; a version bump does not move them.
PINNED = [
    ({"app": "sweep3d", "network": "ib", "nodes": 64, "app_args": {"n": 32},
      "topology": {"kind": "fattree", "radix": 8}},
     "7cc20987131de752c034e3cf8457cc53"),
    ({"app": "sweep3d", "network": "elan", "nodes": 64, "app_args": {"n": 32},
      "topology": {"kind": "torus", "dims": "4x4x4"}},
     "a886cc9bc203d0dfe4a985d24e251421"),
    ({"app": "pingpong", "network": "ib", "nodes": 2,
      "app_args": {"size": 1024}},
     "197add38fa899cd0b978fd6e352b803f"),
]


@pytest.mark.parametrize("data,key", PINNED,
                         ids=["scale64-ib-fattree", "scale64-elan-torus",
                              "fig1-pingpong-ib-1k"])
def test_pinned_keys(monkeypatch, data, key):
    monkeypatch.setattr(spec_mod, "__version__", "0.0.0+pinned")
    spec = RunSpec.from_dict(data)
    assert spec.key == key
    assert reference_key(spec) == key
