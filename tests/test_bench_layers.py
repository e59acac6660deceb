"""The benchmark tracer's targets: every function it wraps still exists."""

import importlib.util
from pathlib import Path

from birelay import calibrate, cli, policy

_LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", _LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_exactly_the_live_targets():
    # a live target that is deleted or renamed is skipped by the tracer and
    # its layer metrics read zero without a warning; this list pins them
    originals = (policy.decide_trace, calibrate.calibrate, cli.main)
    tracer = _layers().Tracer()
    try:
        wrapped = tracer.install()
        assert calibrate.decide_trace is not originals[0]  # rebound where imported
    finally:
        tracer.uninstall()
    assert wrapped == [
        "channel.sample_trace",
        "policy.decide_trace",
        "engine.run",
        "calibrate.calibrate",
        "calibrate.balance_duals",
        "benchmarks.tdbc_policy",
        "benchmarks.fixed_power_policy",
        "cli.run_sweep",
        "cli.emit",
        "cli.main",
    ]
    assert (policy.decide_trace, calibrate.calibrate, cli.main) == originals
    assert calibrate.decide_trace is originals[0]
