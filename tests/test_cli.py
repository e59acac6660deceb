"""Command line front end: sweep plumbing, deterministic output, exit codes."""

import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

import birelay.cli as cli_module
from birelay import oracle
from birelay.channel import FadingStatistics, sample_trace
from birelay.cli import COLUMNS, PROTOCOLS, RunSpec, build_parser, emit, main, run_sweep


@pytest.fixture(scope="module")
def spec800():
    return RunSpec(pt_db=(0.0,), n_slots=800, seed=5)


@pytest.fixture(scope="module")
def rows800(spec800):
    return run_sweep(spec800)


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


# RunSpec keyword arguments it refuses, each with the field its message names
_BAD_SPECS = (
    (dict(pt_db=()), "pt_db"),
    (dict(pt_db=(float("inf"),)), "pt_db"),
    (dict(pt_db=(0.0, float("nan"))), "pt_db"),
    (dict(protocols=()), "protocol"),
    (dict(protocols=("nope",)), "protocols"),
    (dict(fmt="xml"), "fmt"),
    (dict(n_slots="7"), "n_slots"),
    (dict(n_slots=7.0), "n_slots"),
    (dict(seed=-1), "seed"),
    (dict(omega1=float("inf")), "omega1"),
    (dict(tol_rate=float("nan")), "tol_rate"),
    (dict(tol_rate=0.5), "tol_rate"),
    (dict(tol_power=5.0), "tol_power"),
    # an integer out would be opened as a file descriptor
    (dict(out=True), "out"),
    (dict(out=1), "out"),
    (dict(out=1.5), "out"),
    (dict(out=["x.csv"]), "out"),
)


def test_runspec_validated():
    for kwargs, field in _BAD_SPECS:
        with pytest.raises(ValueError, match=field):
            RunSpec(**kwargs)


def test_run_sweep_rows_are_complete(rows800):
    assert len(rows800) == len(PROTOCOLS)
    assert [r["protocol"] for r in rows800] == list(PROTOCOLS)
    for row in rows800:
        assert set(row) == set(COLUMNS)
        assert isinstance(row["converged"], bool)
        assert row["pt_db"] == 0.0
        assert row["sum_rate"] > 0.0
    by_name = {r["protocol"]: r for r in rows800}
    assert by_name["tdbc_no_pa"]["mu1"] is None
    assert by_name["tdbc_no_pa"]["gamma"] is None
    assert by_name["tdbc_no_pa"]["converged"] is True
    assert isinstance(by_name["proposed"]["mu1"], float)
    assert isinstance(by_name["proposed"]["gamma"], float)


def test_run_sweep_draws_each_trace_once(monkeypatch):
    # calibration of the adaptive protocol runs on the sweep's own trace:
    # no module of the package draws another
    drawn = []

    def counted(*args):
        drawn.append(args)
        return sample_trace(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("birelay") and getattr(module, "sample_trace", None) is sample_trace:
            monkeypatch.setattr(module, "sample_trace", counted)
    run_sweep(RunSpec(pt_db=(0.0,), n_slots=800, seed=5, protocols=("proposed",)))
    assert len(drawn) == 1


def test_emit_csv_round_trips_exactly(rows800, tmp_path):
    path = tmp_path / "rows.csv"
    text = emit(rows800, "csv", str(path))
    assert path.read_text() == text
    lines = text.splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 1 + len(rows800)
    for line, row in zip(lines[1:], rows800):
        cells = line.split(",")
        for col, cell in zip(COLUMNS, cells):
            value = row[col]
            if value is None:
                assert cell == ""
            elif isinstance(value, bool):
                assert cell == ("true" if value else "false")
            elif isinstance(value, float):
                assert float(cell) == value  # repr() cells parse back exactly
            else:
                assert cell == str(value)


def test_emit_json_parses_back(rows800, tmp_path):
    path = tmp_path / "rows.json"
    text = emit(rows800, "json", str(path))
    assert json.loads(text) == rows800


def test_sweep_and_emit_are_deterministic(spec800, rows800, tmp_path):
    again = run_sweep(spec800)
    a = emit(rows800, "csv", str(tmp_path / "a.csv"))
    b = emit(again, "csv", str(tmp_path / "b.csv"))
    assert a == b
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_main_sweep_reads_config_and_writes_out(tmp_path):
    cfg = {"pt_db_list": [10.0], "slots": 600, "protocols": ["tdbc_no_pa"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "sweep.csv"
    rc, _, _ = _main(["sweep", "--config", str(cfg_path), "--out", str(out_path)])
    assert rc == 0
    first = out_path.read_bytes()
    rc, _, _ = _main(["sweep", "--config", str(cfg_path), "--out", str(out_path)])
    assert rc == 0
    assert out_path.read_bytes() == first
    lines = first.decode().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("tdbc_no_pa,10.0,")


def test_main_sweep_flags_override_config(tmp_path):
    cfg = {"pt_db_list": [10.0], "slots": 600, "protocols": ["tdbc_no_pa"]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "sweep.csv"
    rc, _, _ = _main(
        ["sweep", "--config", str(cfg_path), "--pt-db-list=-10.0", "--out", str(out_path)]
    )
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("tdbc_no_pa,-10.0,")


def _row(name, argv, message, config=None):
    return pytest.param(argv.split(), config, message, id=name)


# Command lines the boundary refuses: argv, the JSON object of a --config
# file (None for no file), and what the one error line must say: a tuple of
# words it names, or, as a string, the whole message it pins
_REFUSED = [
    _row("unknown-protocol", "sweep --protocols nope --slots 200 --out x.csv", ("nope",)),
    # NaN slips past a plain "<= 0" test
    _row("nan-budget", "calibrate --pt-db nan --slots 200", ("pt_db", "nan")),
    _row("infinite-point", "sweep --pt-db-list=inf --protocols tdbc_no_pa --slots 200 --out x.csv",
         ("pt_db", "inf")),
    # 4000 dB is finite but its linear budget overflows a float
    _row("huge-point", "sweep --pt-db-list=0,4000 --protocols tdbc_no_pa --slots 200 --out x.csv",
         ("4000", "too large")),
    _row("calibrate-huge-point", "calibrate --pt-db=4000 --slots 200", ("4000", "too large")),
    # 10 ** (-400) is 0.0 in floating point: a budget no protocol can spend
    _row("tiny-point", "sweep --pt-db-list=-4000 --slots 200 --protocols tdbc_no_pa",
         ("-4000", "underflows")),
    _row("calibrate-tiny-point", "calibrate --pt-db=-4000 --slots 200", ("-4000", "underflows")),
    # the (0, 0.1] tolerance rule holds on a sweep of baselines only, where
    # nothing calibrates, from a flag or from the config file
    _row("baseline-tol-power", "sweep --protocols tdbc_pa --pt-db-list=0 --slots 300"
         " --out x.csv --tol-power 5.0", ("tol_power",)),
    _row("baseline-tol-power-config", "sweep --protocols tdbc_pa --pt-db-list=0 --slots 300"
         " --out x.csv", ("tol_power",), {"tol_power": 5.0}),
    _row("baseline-tol-rate", "sweep --protocols tdbc_pa,fixed_power_three_mode --pt-db-list=0"
         " --slots 300 --out x.csv --tol-rate 0.5", ("tol_rate",)),
    _row("baseline-tol-rate-config", "sweep --protocols tdbc_pa,fixed_power_three_mode"
         " --pt-db-list=0 --slots 300 --out x.csv", ("tol_rate",), {"tol_rate": 0.5}),
    _row("calibrate-tol-rate", "calibrate --tol-rate 0.5", ("tol_rate",)),
    _row("mistyped-slots", "sweep --protocols tdbc_no_pa", ("n_slots", "'7'"), {"slots": "7"}),
    _row("calibrate-mistyped-slots", "calibrate", ("n_slots", "'7'"), {"slots": "7"}),
    # a number where a list belongs is not read as "the default list"
    _row("protocols-a-number", "sweep --slots 300", ("protocols",), {"protocols": 5}),
    _row("pt-db-list-a-number", "sweep --slots 300", ("pt_db_list",), {"pt_db_list": 5}),
    # a budget list entry that is not a number is refused naming the option
    _row("pt-db-list-not-a-number", "sweep --pt-db-list=abc --slots 30 --protocols tdbc_no_pa",
         ("pt_db_list", "'abc'")),
    _row("pt-db-list-blank", "sweep --pt-db-list= --slots 30 --protocols tdbc_no_pa",
         ("pt_db_list", "''")),
    _row("pt-db-list-blank-entry", "sweep --pt-db-list=0,,10 --slots 30 --protocols tdbc_no_pa",
         ("pt_db_list", "'0,,10'", "''")),
    _row("empty-pt-db-list", "sweep --slots 30 --protocols tdbc_no_pa", ("pt_db", "empty"),
         {"pt_db_list": []}),
    _row("unknown-format", "sweep --slots 30 --pt-db-list=0 --protocols tdbc_no_pa",
         ("fmt", "'xml'"), {"fmt": "xml"}),
    _row("protocols-an-object", "sweep --slots 300", ("protocols",), {"protocols": {"a": 1}}),
    _row("empty-protocol-list", "sweep --out x.csv", ("protocol", "empty"), {"protocols": []}),
    # a misspelt or foreign key, dropped, would leave the run on the default
    # it meant to change
    _row("unknown-key", "sweep --protocols tdbc_no_pa --slots 200",
         "unknown config keys: sead", {"sead": 3}),
    _row("calibrate-unknown-key", "calibrate --slots 200",
         "unknown config keys: sead", {"sead": 3, "pt_db": 0.0}),
    _row("calibrate-sweep-key", "calibrate --slots 200",
         "unknown config keys: protocols", {"protocols": ["proposed"]}),
    _row("verify-unknown-key", "verify",
         "unknown config keys: sead", {"draws": 20, "grid_points": 150, "sead": 3}),
    _row("verify-sweep-key", "verify", "unknown config keys: omega1", {"omega1": 2.0}),
    _row("parser-keys", "sweep --slots 200",
         "unknown config keys: command, config", {"config": "other.json", "command": "verify"}),
    # budgets are a list: there is no start/stop/step range
    _row("range-key", "sweep --slots 30 --protocols tdbc_no_pa",
         "unknown config keys: pt_db_start", {"pt_db_start": 0}),
    # null is a value, not "not given": it must not select the default
    # protocols, budgets or output
    _row("null-protocols", "sweep --slots 30 --pt-db-list=0",
         "null config values: protocols", {"protocols": None}),
    _row("null-pt-db-list", "sweep --slots 30 --protocols tdbc_no_pa",
         "null config values: pt_db_list", {"pt_db_list": None}),
    _row("null-out", "sweep --slots 30 --pt-db-list=0 --protocols tdbc_no_pa",
         "null config values: out", {"out": None}),
    _row("verify-null-draws", "verify", "null config values: draws", {"draws": None}),
    # an out that cannot be opened is refused before the sweep, not after it
    _row("out-in-a-missing-directory", "sweep --pt-db-list=0 --out missing/x.csv",
         ("out", "missing", "does not exist")),
    _row("out-a-directory", "sweep --pt-db-list=0 --out .", ("out", "not name a file")),
    _row("verify-no-draws", "verify --draws 0", ("draws", "0")),
    _row("verify-negative-draws", "verify --draws=-5", ("draws", "-5")),
    _row("verify-coarse-grid", "verify --grid-points 99", ("grid_points", "99")),
    # the search's block bounds grow with the square of the axis, 2 MB per
    # draw at the largest one and over 10 GB at 10**6 points
    _row("verify-huge-grid", "verify --draws 1 --grid-points 20001", ("grid_points", "20001")),
    _row("verify-config-huge-grid", "verify --draws 1", ("grid_points", "20001"),
         {"grid_points": 20001}),
    _row("verify-config-no-draws", "verify", ("draws", "0"), {"draws": 0}),
    _row("verify-config-coarse-grid", "verify", ("grid_points", "5"), {"grid_points": 5}),
    _row("verify-config-mistyped-draws", "verify", ("draws", "'20'"), {"draws": "20"}),
]


@pytest.mark.parametrize("argv, config, message", _REFUSED)
def test_main_refuses_before_any_work(argv, config, message, tmp_path, monkeypatch):
    # exit 2 and one error line, nothing else: no row printed, no file
    # written, no trace drawn
    def no_trace(*args):
        raise AssertionError(f"sample_trace{args} ran for a refused command line")

    monkeypatch.setattr(cli_module, "sample_trace", no_trace)
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv = [*argv, "--config", "cfg.json"]
    rc, out, err = _main(argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    if isinstance(message, str):
        assert err == f"error: {message}\n"
    else:
        assert all(word in err for word in message), err
    assert os.listdir(tmp_path) == ([] if config is None else ["cfg.json"])


def test_main_rejects_an_out_that_is_not_a_path(tmp_path):
    # an integer out was opened as a file descriptor: the CSV went into
    # whatever that descriptor was, which was then closed (fd 1 from
    # {"out": true} closed the process's stdout), and the exit code was 0
    read_end, write_end = os.pipe()
    cfg_path = tmp_path / "cfg.json"
    cfg = {"out": write_end, "pt_db_list": [0.0], "protocols": ["tdbc_no_pa"], "slots": 300}
    cfg_path.write_text(json.dumps(cfg))
    try:
        rc, out, err = _main(["sweep", "--config", str(cfg_path)])
        with contextlib.suppress(OSError):  # already closed if the CSV went in
            os.close(write_end)
        written = os.read(read_end, 1 << 16)
    finally:
        os.close(read_end)
    assert rc == 2 and out == "" and written == b""
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "out" in err


def test_main_leaves_options_not_given_to_the_dataclass_defaults(monkeypatch):
    # with no flag and no config file, the sweep spec is RunSpec's defaults,
    # and the calibration runs on RunSpec's trace and tolerances at the
    # command's own operating point (1:1 fading, 10 dB)
    spec = RunSpec()
    assert cli_module._sweep_spec(build_parser().parse_args(["sweep"])) == spec
    seen = []

    class Stop(Exception):
        pass

    def capture(*args):
        seen.append(args)
        raise Stop  # before calibrating

    monkeypatch.setattr(cli_module, "calibrate", capture)
    with pytest.raises(Stop):
        main(["calibrate"])
    [(trace, *rest)] = seen
    assert rest == [10.0, spec.tol_rate, spec.tol_power]
    want = sample_trace(FadingStatistics(1.0, 1.0), spec.n_slots, spec.seed)
    assert np.array_equal(trace.s1, want.s1) and np.array_equal(trace.s2, want.s2)


def test_main_sweep_on_a_thirty_slot_trace_reports_without_a_traceback():
    rc, out, err = _main(["sweep", "--slots", "30", "--pt-db-list=-20", "--protocols", "proposed"])
    assert rc in (0, 1)
    assert err == ""
    assert out.splitlines()[1].startswith("proposed,-20.0,")


def test_main_verify_reads_draws_and_grid_points_from_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1234, "draws": 20, "grid_points": 150}))
    rc, out, _ = _main(["verify", "--config", str(cfg_path)])
    assert rc == 0
    assert out == _main(["verify", "--seed", "1234", "--draws", "20", "--grid-points", "150"])[1]
    # flags still override the file
    rc, out, _ = _main(["verify", "--config", str(cfg_path), "--draws", "10"])
    assert rc == 0
    assert out == _main(["verify", "--seed", "1234", "--draws", "10", "--grid-points", "150"])[1]


def test_main_verify_smoke():
    rc, out, _ = _main(["verify", "--draws", "10", "--grid-points", "150"])
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 4
    assert all(ln.startswith("PASS ") for ln in lines)


def test_main_verify_golden_lines():
    # recorded from the scalar per-draw loops these checks replaced
    rc, out, _ = _main(["verify", "--seed", "1234", "--draws", "20", "--grid-points", "150"])
    assert rc == 0
    assert out == (
        "PASS closed-form power optimality vs grid: worst metric gap 0.00e+00, "
        "worst argmax offset 0.49 steps\n"
        "PASS broadcast power root residual: worst relative residual 5.27e-16\n"
        "PASS time share optimum sits at a boundary: argmax in {0, 1}\n"
        "PASS broadcast dominates single-user downlinks: worst lambda gap 0.00e+00\n"
    )


@pytest.mark.parametrize("seed, residual", [(1, "5.42e-16"), (7, "4.74e-16"), (1234, "4.74e-16")])
def test_main_verify_default_size_golden_lines(seed, residual):
    # recorded at the defaults (200 draws x 800 points per axis) from the
    # exhaustive 2-D grid search the block search replaced
    rc, out, _ = _main(["verify", "--seed", str(seed)])
    assert rc == 0
    assert out == (
        "PASS closed-form power optimality vs grid: worst metric gap 0.00e+00, "
        "worst argmax offset 0.50 steps\n"
        f"PASS broadcast power root residual: worst relative residual {residual}\n"
        "PASS time share optimum sits at a boundary: argmax in {0, 1}\n"
        "PASS broadcast dominates single-user downlinks: worst lambda gap 0.00e+00\n"
    )


def test_main_verify_takes_only_its_own_flags():
    for flag in ("--omega1", "--omega2", "--slots", "--tol-rate", "--tol-power"):
        with contextlib.redirect_stderr(io.StringIO()):
            with pytest.raises(SystemExit) as exc:
                main(["verify", flag, "5", "--draws", "2", "--grid-points", "100"])
        assert exc.value.code == 2


def test_main_sweep_takes_no_budget_range():
    for flag in ("--pt-db-start", "--pt-db-stop", "--pt-db-step"):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", flag, "0", "--slots", "30", "--protocols", "tdbc_no_pa"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--pt-db", "5", "--proto", "tdbc_no_pa", "--slots", "30"],
        ["verify", "--grid", "400", "--dr", "3"],
    ],
    ids=["sweep-prefixes", "verify-prefixes"],
)
def test_main_refuses_abbreviated_flags(argv):
    # a unique prefix of a flag was read as the flag: --pt-db as the
    # sweep's --pt-db-list, --proto as --protocols, --grid as --grid-points
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 2


def _verify_small():
    rc, out, _ = _main(["verify", "--seed", "3", "--draws", "20", "--grid-points", "150"])
    return rc, out.splitlines()


def test_main_verify_fails_on_a_wrong_broadcast_root(monkeypatch):
    exact = oracle.broadcast_power
    monkeypatch.setattr(oracle, "broadcast_power", lambda *a: exact(*a) * (1.0 + 1e-6))
    rc, lines = _verify_small()
    assert rc == 1
    assert lines[1].startswith("FAIL broadcast power root residual")
    assert sum(ln.startswith("FAIL ") for ln in lines) == 1


def test_main_verify_fails_on_a_shifted_joint_uplink_power(monkeypatch):
    exact = oracle.mode_table

    def shifted(s1, s2, mu1, mu2, gamma, t):
        powers, metrics = exact(s1, s2, mu1, mu2, gamma, t)
        # three steps of the check's grid [0, 10/gamma] at 150 points
        p1, p2 = powers[3]
        powers[3] = (p1 + 3 * (10.0 / gamma) / 149, p2)
        return powers, metrics

    monkeypatch.setattr(oracle, "mode_table", shifted)
    rc, lines = _verify_small()
    assert rc == 1
    assert lines[0].startswith("FAIL closed-form power optimality vs grid")
    # the metrics are exact, so the offset alone fails the check
    assert "worst metric gap 0.00e+00" in lines[0]
    assert all(ln.startswith("PASS ") for ln in lines[1:])


def test_main_verify_fails_on_a_lowered_joint_uplink_metric(monkeypatch):
    exact = oracle.mode_table

    def lowered(s1, s2, mu1, mu2, gamma, t):
        powers, metrics = exact(s1, s2, mu1, mu2, gamma, t)
        metrics[3] = metrics[3] - 1e-5
        return powers, metrics

    monkeypatch.setattr(oracle, "mode_table", lowered)
    rc, lines = _verify_small()
    assert rc == 1
    assert lines[0].startswith("FAIL closed-form power optimality vs grid: worst metric gap 1.00e-05")
    assert all(ln.startswith("PASS ") for ln in lines[1:])


def test_main_calibrate_smoke():
    rc, out, _ = _main(["calibrate", "--pt-db", "0.0", "--slots", "1500"])
    assert rc == 0
    lines = out.splitlines()
    assert "mu1=" in lines[0] and "gamma=" in lines[0]
    assert "converged=true" in lines[1]


def test_parser_requires_a_subcommand():
    with contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
