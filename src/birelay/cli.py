"""Command line front end.

Subcommands:

* sweep: run the adaptive protocol and/or benchmarks over a transmit-power
  sweep and write one CSV/JSON row per (protocol, operating point).
* calibrate: solve one operating point's duals and print them.
* verify: run the brute-force oracle checks and print one line each.

Output is deterministic: identical arguments produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import benchmarks, engine, oracle, policy
from .calibrate import calibrate
from .channel import FadingStatistics, check_int, check_real, check_tolerance, sample_trace
from .engine import PreparedPolicy

__all__ = ["RunSpec", "run_sweep", "emit", "build_parser", "main"]

PROTOCOLS = ("proposed",) + benchmarks.KINDS

COLUMNS = (
    "protocol",
    "pt_db",
    "sum_rate",
    "r1r",
    "r2r",
    "rr1",
    "rr2",
    "avg_power",
    "freq_m1",
    "freq_m2",
    "freq_m3",
    "freq_m4",
    "freq_m5",
    "freq_m6",
    "mu1",
    "mu2",
    "gamma",
    "converged",
)


@dataclass(frozen=True)
class RunSpec:
    """Everything one sweep, or one calibration at pt_db's one point,
    needs; identical specs give identical bytes."""

    omega1: float = 1.0
    omega2: float = 1.0
    pt_db: tuple[float, ...] = (-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    n_slots: int = 10_000
    seed: int = 1234
    protocols: tuple[str, ...] = PROTOCOLS
    fmt: str = "csv"
    out: str | None = None
    tol_rate: float = 0.01
    tol_power: float = 0.005

    def __post_init__(self) -> None:
        check_real("omega1", self.omega1, positive=True)
        check_real("omega2", self.omega2, positive=True)
        if not self.pt_db:
            raise ValueError("power sweep is empty")
        for pt in self.pt_db:
            _p_total(pt)
        check_int("n_slots", self.n_slots, 1)
        check_int("seed", self.seed, 0)
        check_tolerance("tol_rate", self.tol_rate)
        check_tolerance("tol_power", self.tol_power)
        if not self.protocols:
            raise ValueError("protocol list is empty")
        bad = [p for p in self.protocols if p not in PROTOCOLS]
        if bad:
            raise ValueError(f"unknown protocols: {bad}")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a path, got {self.out!r}")


def _p_total(pt_db) -> float:
    """Linear power budget of a dB value; the value must be a finite
    number whose budget a float can hold, neither overflowing nor
    underflowing to 0."""
    check_real("pt_db", pt_db)
    try:
        p_total = 10.0 ** (pt_db / 10.0)
    except OverflowError:
        raise ValueError(f"pt_db {pt_db!r} is too large") from None
    if p_total == 0.0:
        raise ValueError(f"pt_db {pt_db!r} is too small: its budget underflows to 0")
    return p_total


def _prepare(name: str, spec: RunSpec, p_total: float, trace) -> PreparedPolicy:
    """Build the policy for one protocol at one power point, calibrating
    it on the sweep's trace where the protocol needs it."""
    if name == "proposed":
        result = calibrate(trace, p_total, spec.tol_rate, spec.tol_power)
        th = result.thresholds
        decide = policy.proposed_policy(th)
        return PreparedPolicy(decide, th.mu1, th.mu2, th.gamma, None, result.converged)
    if name in ("tdbc_no_pa", "tdbc_pa"):
        return benchmarks.tdbc_policy(name, trace, p_total, spec.tol_power)
    return benchmarks.fixed_power_policy(name, trace, p_total, spec.tol_rate)


def run_sweep(spec: RunSpec) -> list[dict]:
    """Simulate every requested protocol at every power point. All
    protocols share the same fading trace per operating point."""
    stats = FadingStatistics(spec.omega1, spec.omega2)
    trace = sample_trace(stats, spec.n_slots, spec.seed)
    rows = []
    for pt_db in spec.pt_db:
        p_total = _p_total(pt_db)
        for name in spec.protocols:
            prep = _prepare(name, spec, p_total, trace)
            rep = engine.run(trace, prep.decide)
            cells = (name, pt_db, rep.sum_rate, rep.r_1r, rep.r_2r, rep.r_r1, rep.r_r2)
            cells += (rep.avg_power, *rep.mode_freq, prep.mu1, prep.mu2, prep.gamma, prep.converged)
            rows.append(dict(zip(COLUMNS, cells, strict=True)))
    return rows


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(rows: list[dict], fmt: str, out: str | None) -> str:
    """Render rows in the stable column order and write or return them."""
    if fmt == "csv":
        lines = [",".join(COLUMNS)]
        lines += [",".join(_fmt_cell(row[c]) for c in COLUMNS) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([{c: row[c] for c in COLUMNS} for row in rows], indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    return text


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega1", type=float, default=None, help="mean gain of link 1")
    p.add_argument("--omega2", type=float, default=None, help="mean gain of link 2")
    p.add_argument("--slots", type=int, default=None, help="trace length")
    p.add_argument("--seed", type=int, default=None, help="trace seed")
    p.add_argument("--tol-rate", type=float, default=None, help="rate residual tolerance")
    p.add_argument("--tol-power", type=float, default=None, help="power residual tolerance")
    p.add_argument("--config", type=str, default=None, help="JSON config file; flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="birelay")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="simulate protocols over a power sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--pt-db-start", type=float, default=None)
    p_sweep.add_argument("--pt-db-stop", type=float, default=None)
    p_sweep.add_argument("--pt-db-step", type=float, default=None)
    p_sweep.add_argument("--pt-db-list", type=str, default=None, help="comma separated dB values")
    p_sweep.add_argument("--protocols", type=str, default=None, help="comma separated names")
    p_sweep.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    p_sweep.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    p_cal = sub.add_parser("calibrate", help="solve one operating point's duals")
    _add_common(p_cal)
    p_cal.add_argument("--pt-db", type=float, default=None)

    p_ver = sub.add_parser("verify", help="run the brute-force oracle checks")
    p_ver.add_argument("--seed", type=int, default=None, help="random draw seed")
    p_ver.add_argument("--config", type=str, default=None, help="JSON config file; flags override")
    p_ver.add_argument("--draws", type=int, default=None, help="draws for the grid check (200)")
    p_ver.add_argument("--grid-points", type=int, default=None, help="points per power axis (800)")
    return parser


def _options(args) -> dict:
    """The subcommand's options: the --config file's JSON object, its keys
    spelled as the parsed arguments are (pt_db_list) and none of its values
    null, overlaid by every flag given on the command line."""
    opts = {}
    if args.config is not None:
        with open(args.config) as fh:
            opts = json.load(fh)
        if not isinstance(opts, dict):
            raise ValueError("config file must hold a JSON object")
    known = set(vars(args)) - {"command", "config"}
    unknown = sorted(set(opts) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    nulls = sorted(key for key, value in opts.items() if value is None)
    if nulls:
        raise ValueError(f"null config values: {', '.join(nulls)}")
    flags = vars(args).items()
    return opts | {key: flag for key, flag in flags if flag is not None and key in known}


def _spec(opts: dict, **values) -> RunSpec:
    """The RunSpec of the options that name its fields (slots is n_slots),
    overlaid by values; the fields left out keep the dataclass defaults."""
    names = {field.name for field in fields(RunSpec)}
    given = {"n_slots" if key == "slots" else key: value for key, value in opts.items()}
    return RunSpec(**{key: value for key, value in given.items() if key in names} | values)


def _sweep_spec(args) -> RunSpec:
    opts = _options(args)
    pt_list = opts.get("pt_db_list")
    if isinstance(pt_list, str):
        pt_db = tuple(float(x) for x in pt_list.split(","))
    elif isinstance(pt_list, (list, tuple)):
        for x in pt_list:
            check_real("pt_db", x)
        pt_db = tuple(float(x) for x in pt_list)
    elif pt_list is not None:
        raise ValueError("pt_db_list must be a comma separated string or a list")
    else:
        start = opts.get("pt_db_start", -20.0)
        stop = opts.get("pt_db_stop", 20.0)
        step = opts.get("pt_db_step", 5.0)
        for name, value in (("pt_db_start", start), ("pt_db_stop", stop), ("pt_db_step", step)):
            check_real(name, value)
        if step <= 0.0:
            raise ValueError("pt-db-step must be positive")
        span = (stop - start) / step
        if not math.isfinite(span):
            raise ValueError("power sweep range overflows: too many points")
        count = int(math.floor(span + 1e-9)) + 1
        # the budget rises with the point, so the two end points bound every
        # point's: check them before building the points
        for pt in (start, start + (count - 1) * step):
            _p_total(pt)
        pt_db = tuple(start + k * step for k in range(count))
    protocols = opts.pop("protocols", None)
    if isinstance(protocols, str):
        opts["protocols"] = tuple(p.strip() for p in protocols.split(","))
    elif isinstance(protocols, (list, tuple)):
        opts["protocols"] = tuple(protocols)
    elif protocols is not None:
        raise ValueError("protocols must be a comma separated string or a list")
    return _spec(opts, pt_db=pt_db)


def _check_out(out: str | None) -> None:
    """Refuse an out that cannot be opened as a file, before any work."""
    if out is None:
        return
    if os.path.isdir(out) or not os.path.basename(out):
        raise ValueError(f"out {out!r} does not name a file")
    folder = os.path.dirname(out)
    if folder and not os.path.isdir(folder):
        raise ValueError(f"out {out!r}: directory {folder!r} does not exist")


def cmd_sweep(args) -> int:
    spec = _sweep_spec(args)
    _check_out(spec.out)
    rows = run_sweep(spec)
    emit(rows, spec.fmt, spec.out)
    return 0 if all(row["converged"] for row in rows) else 1


def cmd_calibrate(args) -> int:
    opts = _options(args)
    spec = _spec(opts, pt_db=(opts.get("pt_db", 10.0),))
    trace = sample_trace(FadingStatistics(spec.omega1, spec.omega2), spec.n_slots, spec.seed)
    result = calibrate(trace, _p_total(spec.pt_db[0]), spec.tol_rate, spec.tol_power)
    th = result.thresholds
    print(f"mu1={th.mu1!r} mu2={th.mu2!r} gamma={th.gamma!r}")
    print(
        f"residual_c1={result.residual_c1:.3e} residual_c2={result.residual_c2:.3e} "
        f"residual_c3={result.residual_c3:.3e} iterations={result.iterations} "
        f"evaluations={result.evaluations} converged={str(result.converged).lower()}"
    )
    return 0 if result.converged else 1


def _verify_lines(draws: int, grid_points: int, seed: int) -> list[tuple[str, bool, str]]:
    rng = np.random.default_rng(seed)
    gap, step = oracle.grid_optimality(*oracle.sample_draws(rng, draws), grid_points)
    n = 10_000
    mu1 = rng.uniform(0.05, 0.95, n)
    mu2 = rng.uniform(0.05, 0.95, n)
    gamma = rng.uniform(0.05, 2.0, n)
    s1 = rng.exponential(1.0, n)
    s2 = rng.exponential(1.0, n)
    resid, _ = oracle.broadcast_root_residual(s1, s2, mu1, mu2, gamma)
    k = min(draws, 1000)
    at_boundary = oracle.time_share_at_boundary(s1[:k], s2[:k], mu1[:k], mu2[:k], gamma[:k])
    dom = oracle.downlink_dominance(s1, s2, mu1, mu2, gamma)
    # a gap below zero (the closed form beat the grid) prints as 0
    return [
        (
            "closed-form power optimality vs grid",
            gap <= 1e-6 and step <= 1.000001,
            f"worst metric gap {max(gap, 0.0):.2e}, worst argmax offset {step:.2f} steps",
        ),
        ("broadcast power root residual", resid <= 1e-8, f"worst relative residual {resid:.2e}"),
        ("time share optimum sits at a boundary", at_boundary, "argmax in {0, 1}"),
        (
            "broadcast dominates single-user downlinks",
            dom <= 1e-12,
            f"worst lambda gap {max(dom, 0.0):.2e}",
        ),
    ]


def cmd_verify(args) -> int:
    opts = _options(args)
    seed = opts.get("seed", 1234)
    draws = opts.get("draws", 200)
    grid_points = opts.get("grid_points", 800)
    check_int("seed", seed, 0)
    check_int("draws", draws, 1)
    check_int("grid_points", grid_points, 100)
    checks = _verify_lines(draws, grid_points, seed)
    failures = 0
    for name, passed, detail in checks:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        failures += 0 if passed else 1
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "calibrate":
            return cmd_calibrate(args)
        return cmd_verify(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
