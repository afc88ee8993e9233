"""FaultPlan: validation, serialization, picklability."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultPlan

pytestmark = pytest.mark.faults


def test_default_plan_is_disabled():
    plan = FaultPlan()
    assert not plan.enabled


@pytest.mark.parametrize(
    "kwargs",
    [
        {"ber": 1e-9},
        {"nic_stall_rate": 0.01},
        {"reg_failure_rate": 0.1},
    ],
)
def test_any_nonzero_rate_enables(kwargs):
    assert FaultPlan(**kwargs).enabled


@pytest.mark.parametrize(
    "kwargs",
    [
        {"ber": -0.1},
        {"ber": 1.0},
        {"nic_stall_rate": 2.0},
        {"reg_failure_rate": -1e-9},
        {"nic_stall_us": -1.0},
        {"ib_retry_timeout_us": -5.0},
        {"elan_retry_turnaround_us": -0.1},
        {"reg_retry_budget": 0},
        {"ib_retry_count": -1},
        {"ib_timeout_multiplier": 0.5},
    ],
)
def test_invalid_plans_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        FaultPlan(**kwargs)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"hard_events": 5}, "hard_events=5 must be a string"),
        ({"link_down": 7, "link_down_at_us": 1.0}, "link_down=7 must be a string"),
        ({"ber": "0.1"}, "ber='0.1' must be a number"),
        ({"ber": True}, "ber=True must be a number"),
        ({"elan_rails": True}, "elan_rails=True must be an integer"),
        ({"ib_retry_count": 3.0}, "ib_retry_count=3.0 must be an integer"),
        ({"detect_delay_us": None}, "detect_delay_us=None must be a number"),
    ],
)
def test_field_types_are_checked_first(kwargs, message):
    with pytest.raises(ConfigurationError, match=message):
        FaultPlan(**kwargs)


def test_dict_roundtrip():
    plan = FaultPlan(ber=1e-7, nic_stall_rate=0.05, ib_retry_count=3)
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_from_partial_dict_fills_defaults():
    plan = FaultPlan.from_dict({"ber": 1e-6})
    assert plan.ber == 1e-6
    assert plan.ib_retry_count == FaultPlan().ib_retry_count


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigurationError):
        FaultPlan.from_dict({"bit_error_rate": 1e-6})


def test_plan_is_picklable_and_hashable():
    plan = FaultPlan(ber=1e-8)
    assert pickle.loads(pickle.dumps(plan)) == plan
    assert hash(plan) == hash(FaultPlan(ber=1e-8))


def test_describe_lists_only_non_defaults():
    assert FaultPlan().describe() == "FaultPlan()"
    text = FaultPlan(ber=1e-6).describe()
    assert "ber=1e-06" in text and "nic_stall" not in text
