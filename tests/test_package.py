"""The package namespace: seven exported names, every other type and
function imported from its own module."""

import importlib
import sys

import birelay

EXPORTED = {
    "FadingStatistics",
    "Thresholds",
    "fixed_power_policy",
    "proposed_policy",
    "run",
    "sample_trace",
    "tdbc_policy",
}

# names the package no longer re-exports, each with the module that keeps it
MODULE_ONLY = {
    "CalibrationResult": "calibrate",
    "ChannelTrace": "channel",
    "PreparedPolicy": "engine",
    "ProtocolPolicy": "engine",
    "RateReport": "engine",
    "TraceDecisions": "policy",
    "TraceGains": "policy",
    "decide_trace": "policy",
    "optimal_time_share": "policy",
    "threshold_region_scan": "oracle",
}


def test_package_exports_exactly_the_seven_names():
    assert sorted(birelay.__all__) == sorted(EXPORTED)
    for name in EXPORTED:
        assert getattr(birelay, name) is not None


def test_calibrate_name_is_the_module():
    assert birelay.calibrate is sys.modules["birelay.calibrate"]


def test_dropped_names_import_from_their_modules():
    for name, module in MODULE_ONLY.items():
        assert not hasattr(birelay, name)
        assert hasattr(importlib.import_module(f"birelay.{module}"), name)
