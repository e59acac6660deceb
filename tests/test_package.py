"""The package namespace: seven exported names, every other type and
function imported from its own module; and guards on the source itself:
the oracle shares no code path with calibration, the criterion margins
report computes nothing of its own, the command line loads no test-only
dependency, and every module parses as Python 3.10; and on the test
configuration, under which a failing property test fails alone."""

import ast
import importlib
import subprocess
import sys
import textwrap
from pathlib import Path

import birelay

SRC = Path(birelay.__file__).resolve().parent

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


def _imported_modules(path):
    """The module of every import statement in a source file, relative ones
    as written: ".calibrate" for both from .calibrate import x and
    from . import calibrate."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            names += ["." * node.level + alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + node.module)
    return names


def test_oracle_imports_nothing_from_calibration():
    # the oracle checks the slot rule's closed forms independently of
    # calibration, so it must not reach calibrate's pricing at all
    names = _imported_modules(SRC / "oracle.py")
    assert ".policy" in names
    assert [n for n in names if n.split(".")[-1] == "calibrate"] == []


def test_margins_report_defines_no_quantity_of_its_own():
    # the report prints the gate's quantities on further seeds, so it reads
    # them from the helper the gate uses and runs no protocol itself
    path = Path(__file__).resolve().parents[1] / "tools" / "criterion_margins.py"
    names = _imported_modules(path)
    assert "criteria" in names
    assert [n for n in names if n.split(".")[0] == "birelay"] == []
    running = {"calibrate", "run", "tdbc_policy", "fixed_power_policy", "run_sweep", "sample_trace"}
    called = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            called.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", ""))
    assert called & running == set()


def test_command_line_loads_no_test_dependency():
    # the runtime needs numpy only; scipy, hypothesis and pytest serve the tests
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import birelay.cli; "
        "print(*sorted({'numpy', 'scipy', 'hypothesis', 'pytest'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC.parent)], capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == ["numpy"]


def test_every_module_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10 while CI runs 3.11
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # warnings are errors under pyproject.toml; reporting a failing @given
    # test imports libcst inside hypothesis's plugin, whose deprecation
    # warning must not turn into an INTERNALERROR that skips the rest
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    config = SRC.parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
