"""The protocol trace log a simulator carries as ``sim.trace``."""

import json

from repro.sim import Simulator
from repro.telemetry import NULL_TRACE, EventStream, Telemetry


class Unformattable:
    """An argument whose formatting fails the test if it ever happens."""

    def __format__(self, spec):
        raise AssertionError("message formatted but not stored")


def test_disabled_tracer_records_nothing():
    assert not Telemetry(metrics=False).enabled
    t = Simulator().trace
    assert t is NULL_TRACE and not t.enabled
    t.log(1.0, "x", "msg {}", Unformattable())
    assert len(t) == 0
    assert t.records == ()


def test_records_in_order():
    telemetry = Telemetry(metrics=False, trace=True)
    assert telemetry.enabled  # the trace log alone turns telemetry on
    t = Simulator(telemetry=telemetry).trace
    assert t.enabled
    t.log(1.0, "a", "first")
    t.log(2.0, "b", "{} {:.1f}", "second", 2)
    assert t.records == [(1.0, "a", "first"), (2.0, "b", "second 2.0")]


def test_category_filter():
    t = EventStream()
    t.log(1.0, "rndv", "kept")
    t.log(2.0, "eager", "other")
    t.log(3.0, "rndv", "kept again")
    assert t.select("rndv") == [(1.0, "rndv", "kept"), (3.0, "rndv", "kept again")]
    assert t.select("eager") == [(2.0, "eager", "other")]
    assert t.select("cts") == []


def test_limit_and_dropped_count():
    t = EventStream(limit=2)
    for i in range(5):
        t.log(float(i), "c", "m {}", i if i < 2 else Unformattable())
    assert len(t) == 2
    assert t.dropped == 3


def test_clear():
    t = EventStream()
    t.log(1.0, "c", "m")
    t.clear()
    assert len(t) == 0
    assert t.dropped == 0


def test_summary_counts_categories_and_dropped():
    t = EventStream(limit=4)
    for i in range(3):
        t.log(float(i), "rndv", "m")
    t.log(3.0, "eager", "m")
    t.log(4.0, "eager", "over limit")
    s = t.summary()
    assert s["total"] == 4
    assert s["dropped"] == 1
    assert s["by_category"] == {"eager": 1, "rndv": 3}


def test_summary_empty_tracer():
    empty = {
        "total": 0,
        "dropped": 0,
        "by_category": {},
        "dropped_by_category": {},
    }
    assert EventStream().summary() == empty
    assert NULL_TRACE.summary() == empty


def test_summary_reports_drops_per_category():
    t = EventStream(limit=2)
    t.log(0.0, "rndv", "kept")
    t.log(1.0, "eager", "kept")
    t.log(2.0, "rndv", "over limit")
    t.log(3.0, "rndv", "over limit")
    t.log(4.0, "eager", "over limit")
    s = t.summary()
    assert s["dropped"] == 3
    assert s["dropped_by_category"] == {"eager": 1, "rndv": 2}
    # Stored records are untouched by the overflow accounting.
    assert s["by_category"] == {"eager": 1, "rndv": 1}


def test_summary_is_json_ready():
    t = EventStream()
    t.log(1.0, "a", "m")
    assert json.loads(json.dumps(t.summary())) == t.summary()
