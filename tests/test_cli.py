"""Command line front end: sweep plumbing, deterministic output, exit codes."""

import contextlib
import io
import json
import os
import sys
import tracemalloc

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


def test_runspec_validated():
    with pytest.raises(ValueError):
        RunSpec(pt_db=())
    with pytest.raises(ValueError):
        RunSpec(protocols=("nope",))
    with pytest.raises(ValueError):
        RunSpec(fmt="xml")
    for bad in (
        dict(pt_db=(float("inf"),)),
        dict(pt_db=(0.0, float("nan"))),
        dict(n_slots="7"),
        dict(n_slots=7.0),
        dict(seed=-1),
        dict(omega1=float("inf")),
        dict(tol_rate=float("nan")),
        dict(tol_rate=0.5),
        dict(tol_power=5.0),
    ):
        with pytest.raises(ValueError):
            RunSpec(**bad)


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


def test_main_sweep_range_flags(tmp_path):
    out_path = tmp_path / "sweep.csv"
    rc, _, _ = _main(
        [
            "sweep",
            "--pt-db-start", "0",
            "--pt-db-stop", "10",
            "--pt-db-step", "5",
            "--protocols", "tdbc_no_pa",
            "--slots", "400",
            "--out", str(out_path),
        ]
    )
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert [ln.split(",")[1] for ln in lines[1:]] == ["0.0", "5.0", "10.0"]


def test_main_rejects_unknown_protocol(tmp_path):
    rc, _, err = _main(
        ["sweep", "--protocols", "nope", "--slots", "200", "--out", str(tmp_path / "x.csv")]
    )
    assert rc == 2
    assert err.startswith("error:")


def test_main_rejects_nan_budget():
    # NaN slips past a plain "<= 0" test; it must stop before calibrating
    rc, out, err = _main(["calibrate", "--pt-db", "nan", "--slots", "200"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_main_rejects_infinite_sweep_point(tmp_path):
    out_path = tmp_path / "x.csv"
    # 4000 dB is finite but its linear budget overflows a float
    for points in ("inf", "0,4000"):
        rc, _, err = _main(
            ["sweep", f"--pt-db-list={points}", "--protocols", "tdbc_no_pa", "--slots", "200",
             "--out", str(out_path)]
        )
        assert rc == 2
        assert err.startswith("error:")
        assert not out_path.exists()
    rc, _, err = _main(["calibrate", "--pt-db=4000", "--slots", "200"])
    assert rc == 2
    assert err.startswith("error:")


def test_main_rejects_an_overflowing_sweep_range(tmp_path):
    # the point count of these ranges is not a finite number
    out_path = tmp_path / "x.csv"
    for start, stop, step in (("-1e308", "1e308", "5"), ("0", "1e308", "1e-10")):
        rc, out, err = _main(
            ["sweep", f"--pt-db-start={start}", f"--pt-db-stop={stop}", f"--pt-db-step={step}",
             "--protocols", "tdbc_no_pa", "--out", str(out_path)]
        )
        assert rc == 2
        assert out == "" and not out_path.exists()
        assert err.startswith("error:") and err.count("\n") == 1


def test_main_rejects_a_long_sweep_range_before_building_it():
    # two million points, the last far past the float budget: the range is
    # refused on its end points, not after every point has been made
    tracemalloc.start()
    try:
        rc, out, err = _main(["sweep", "--pt-db-start", "0", "--pt-db-stop", "2e6", "--pt-db-step", "1"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "too large" in err
    assert peak < 5e6


def test_main_rejects_a_reversed_sweep_range(tmp_path):
    # a range with no point leaves the power sweep empty
    out_path = tmp_path / "x.csv"
    rc, out, err = _main(
        ["sweep", "--pt-db-start", "10", "--pt-db-stop", "0", "--out", str(out_path)]
    )
    assert rc == 2
    assert out == "" and not out_path.exists()
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "empty" in err


def test_main_rejects_mistyped_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"slots": "7"}))
    for argv in (
        ["sweep", "--config", str(cfg_path), "--protocols", "tdbc_no_pa"],
        ["calibrate", "--config", str(cfg_path)],
    ):
        rc, out, err = _main(argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


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
    for bad in (True, 1, 1.5, ["x.csv"]):
        with pytest.raises(ValueError, match="out"):
            RunSpec(out=bad)
    assert RunSpec(out="x.csv").out == "x.csv"


def test_main_rejects_wrongly_typed_sweep_lists(tmp_path):
    # a number where the protocol or power list belongs used to fall back
    # to the default list, so {"protocols": 5} ran all five protocols
    cfg_path = tmp_path / "cfg.json"
    for cfg in ({"protocols": 5}, {"pt_db_list": 5}, {"protocols": {"a": 1}}):
        cfg_path.write_text(json.dumps(cfg))
        rc, out, err = _main(["sweep", "--config", str(cfg_path), "--slots", "300"])
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert next(iter(cfg)) in err


def test_main_rejects_out_of_range_tolerances_on_a_baseline_sweep(tmp_path):
    # the (0, 0.1] rule used to be checked only when proposed calibrated, so
    # a baseline-only sweep at --tol-power 5 reported converged=true at a
    # spend 36 % under the budget
    out_path, cfg_path = tmp_path / "x.csv", tmp_path / "cfg.json"
    for protocols, key, value in (
        ("tdbc_pa", "tol_power", 5.0),
        ("tdbc_pa,fixed_power_three_mode", "tol_rate", 0.5),
    ):
        cfg_path.write_text(json.dumps({key: value}))
        for given in (["--" + key.replace("_", "-"), str(value)], ["--config", str(cfg_path)]):
            rc, out, err = _main(
                ["sweep", "--protocols", protocols, "--pt-db-list=0", "--slots", "300",
                 "--out", str(out_path), *given]
            )
            assert rc == 2
            assert out == "" and not out_path.exists()
            assert err.startswith("error:") and len(err.splitlines()) == 1
            assert key in err


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
    assert trace.stats == want.stats
    assert np.array_equal(trace.s1, want.s1) and np.array_equal(trace.s2, want.s2)


def test_main_sweep_on_a_thirty_slot_trace_reports_without_a_traceback():
    rc, out, err = _main(["sweep", "--slots", "30", "--pt-db-list=-20", "--protocols", "proposed"])
    assert rc in (0, 1)
    assert err == ""
    assert out.splitlines()[1].startswith("proposed,-20.0,")


def test_an_empty_protocol_list_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="protocol"):
        RunSpec(protocols=())
    cfg_path, out_path = tmp_path / "cfg.json", tmp_path / "x.csv"
    cfg_path.write_text(json.dumps({"protocols": []}))
    rc, out, err = _main(["sweep", "--config", str(cfg_path), "--out", str(out_path)])
    assert rc == 2
    assert out == "" and not out_path.exists()
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_main_calibrate_checks_its_options_before_drawing_the_trace(monkeypatch):
    drawn = []

    def counted(*args):
        drawn.append(args)
        return sample_trace(*args)

    monkeypatch.setattr(cli_module, "sample_trace", counted)
    rc, out, err = _main(["calibrate", "--tol-rate", "0.5"])
    assert rc == 2
    assert out == "" and err.startswith("error:") and "tol_rate" in err
    assert drawn == []


def test_main_rejects_unknown_config_keys(tmp_path):
    # a misspelt key used to be dropped silently, so the run went ahead on
    # the default it meant to change
    cfg_path = tmp_path / "cfg.json"
    for argv, cfg in (
        (["sweep", "--protocols", "tdbc_no_pa", "--slots", "200"], {"sead": 3}),
        (["calibrate", "--slots", "200"], {"sead": 3, "pt_db": 0.0}),
        (["calibrate", "--slots", "200"], {"protocols": ["proposed"]}),
        (["verify"], {"draws": 20, "grid_points": 150, "sead": 3}),
        (["verify"], {"omega1": 2.0}),
        (["sweep", "--slots", "200"], {"config": "other.json", "command": "verify"}),
    ):
        cfg_path.write_text(json.dumps(cfg))
        rc, out, err = _main([*argv, "--config", str(cfg_path)])
        assert rc == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        bad = sorted(set(cfg) - {"draws", "grid_points", "pt_db"})
        assert err == f"error: unknown config keys: {', '.join(bad)}\n"


def test_main_verify_reads_draws_and_grid_points_from_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1234, "draws": 20, "grid_points": 150}))
    rc, out, _ = _main(["verify", "--config", str(cfg_path)])
    assert rc == 0
    assert out == _main(["verify", "--seed", "1234", "--draws", "20", "--grid-points", "150"])[1]
    # flags still override the file, and the file's values are validated
    rc, out, _ = _main(["verify", "--config", str(cfg_path), "--draws", "10"])
    assert rc == 0
    assert out == _main(["verify", "--seed", "1234", "--draws", "10", "--grid-points", "150"])[1]
    for bad in ({"draws": 0}, {"grid_points": 5}, {"draws": "20"}):
        cfg_path.write_text(json.dumps(bad))
        rc, out, err = _main(["verify", "--config", str(cfg_path)])
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


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


def test_main_verify_rejects_empty_or_coarse_checks():
    for argv in (["--draws", "0"], ["--draws=-5"], ["--grid-points", "99"]):
        rc, out, err = _main(["verify", *argv])
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_main_verify_takes_only_its_own_flags():
    for flag in ("--omega1", "--omega2", "--slots", "--tol-rate", "--tol-power"):
        with contextlib.redirect_stderr(io.StringIO()):
            with pytest.raises(SystemExit) as exc:
                main(["verify", flag, "5", "--draws", "2", "--grid-points", "100"])
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
