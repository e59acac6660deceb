"""Benchmark for birelay: runs the command line in-process through
``birelay.cli.main``, checks every output, and reports metrics.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (see bench/README.md for the exact operation lists):

* sweep: ``birelay sweep`` with all five protocols, one power point per
  operation;
* calibrate: ``birelay calibrate`` over fading asymmetry x power budget;
* verify: ``birelay verify`` at its defaults.

A run executes whole cycles of its workload's operation list, stopping
before a cycle that would end past ``--seconds`` (at least one cycle), so
every run attempts the same operations in the same proportions. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs untraced cycles and then traced cycles, each for half the time, and
reports the per-layer metrics from bench/layers.py plus the tracing
overhead. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the same object, the
operation log and (traced runs) the spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# one single-threaded process: left alone, numpy's BLAS starts a thread per
# core at import, which also makes the set-up time of a fresh process noisy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
from layers import Tracer, layer_metrics  # noqa: E402

# Every sweep and calibrate operation uses the program's default trace
# (seed 1234, 10 000 slots). Calibration cost and convergence depend on
# the trace: across trace seeds the evaluation count of one point moves by
# +-25 %, which would make the rate measure the draw rather than the code,
# and the 100:1 points must fail on inputs that do not depend on --seed.
TRACE_SEED = 1234
N_SLOTS = 10_000
TOL_RATE = 0.01
TOL_POWER = 0.005
PROTOCOLS = (
    "proposed",
    "tdbc_no_pa",
    "tdbc_pa",
    "fixed_power_six_mode",
    "fixed_power_three_mode",
)
SWEEP_DB = (-20.0, 0.0, 20.0)
# (omega1, omega2, pt_db); the last two are the 100:1 points that do not
# converge today and are counted as failed until calibration is fixed
CALIBRATE_POINTS = (
    (1.0, 1.0, -10.0),
    (1.0, 1.0, 0.0),
    (1.0, 1.0, 10.0),
    (1.0, 1.0, 20.0),
    (10.0, 1.0, 0.0),
    (100.0, 1.0, -10.0),
    (1.0, 100.0, -10.0),
)
VERIFY_DRAWS = 200
VERIFY_GRID = 800
# set-up is sampled before every operation and after the last one, and
# topped up at the end of the run to at least this many samples
SETUP_REPEATS = 11
# set-up as a user pays it: interpreter start, imports, argument parser,
# and the trace the first operation samples
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from birelay import channel, cli\n"
    "cli.build_parser()\n"
    f"channel.sample_trace(channel.FadingStatistics(1.0, 1.0), {N_SLOTS}, {TRACE_SEED})\n"
    "print(time.monotonic())\n"
)


@dataclass(frozen=True)
class Op:
    """One operation: a command line and the check of its output.

    check(rc, stdout) returns (succeeded, data, problems). An operation
    that the program reports as failed does not succeed; a problem is an
    output of a succeeded operation that is wrong.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[int, str], tuple[bool, object, list[str]]]


# ---------------------------------------------------------------- sweep


def tdbc_no_pa_sum_rate(pt_db: float, seed: int, n: int) -> float:
    """Sum rate of the fixed three-slot cycle at full power, computed from
    the documented inverse-CDF trace: each frame's uplink slots carry the
    minimum of their own and the broadcast slot's capacity, and the
    trailing partial frame carries nothing."""
    p = 10.0 ** (pt_db / 10.0)
    u = np.random.default_rng(seed).random((2, n))
    s1 = -1.0 * np.log1p(-u[0])
    s2 = -1.0 * np.log1p(-u[1])
    whole = 3 * (n // 3)
    up1, up2, bc = slice(0, whole, 3), slice(1, whole, 3), slice(2, whole, 3)
    to_user2 = np.minimum(np.log2(1.0 + p * s1[up1]), np.log2(1.0 + p * s2[bc]))
    to_user1 = np.minimum(np.log2(1.0 + p * s2[up2]), np.log2(1.0 + p * s1[bc]))
    return float(to_user2.sum() + to_user1.sum()) / n


def check_sweep(pt_db: float, rc: int, out: str) -> tuple[bool, object, list[str]]:
    if rc != 0:
        return False, None, []
    rows = json.loads(out)
    where = f"sweep {pt_db:g} dB"
    by_name = {row["protocol"]: row for row in rows}
    if len(rows) != len(PROTOCOLS) or set(by_name) != set(PROTOCOLS):
        return True, rows, [f"{where}: rows {sorted(by_name)}"]
    problems = []
    p_total = 10.0 ** (pt_db / 10.0)
    for row in rows:
        tag = f"{where} {row['protocol']}"
        if row["pt_db"] != pt_db or row["converged"] is not True:
            problems.append(f"{tag}: pt_db {row['pt_db']} converged {row['converged']}")
        if abs(row["avg_power"] / p_total - 1.0) > TOL_POWER:
            problems.append(f"{tag}: avg_power {row['avg_power']!r} misses the budget")
        if row["rr2"] - row["r1r"] > 1e-12 or row["rr1"] - row["r2r"] > 1e-12:
            problems.append(f"{tag}: delivers more than it ingests")
        freq = sum(row[f"freq_m{k}"] for k in range(1, 7))
        if abs(freq - 1.0) > 1e-9:
            problems.append(f"{tag}: mode frequencies sum to {freq!r}")
    proposed = by_name["proposed"]
    if proposed["freq_m4"] != 0.0 or proposed["freq_m5"] != 0.0:
        problems.append(f"{where}: proposed selects a dominated mode")
    for name in PROTOCOLS[1:]:
        if proposed["sum_rate"] < 0.99 * by_name[name]["sum_rate"]:
            problems.append(f"{where}: proposed below 0.99 x {name}")
    if not proposed["sum_rate"] > by_name["tdbc_no_pa"]["sum_rate"]:
        problems.append(f"{where}: proposed not above tdbc_no_pa")
    want = tdbc_no_pa_sum_rate(pt_db, TRACE_SEED, N_SLOTS)
    got = by_name["tdbc_no_pa"]["sum_rate"]
    if abs(got - want) > 1e-12 * max(1.0, abs(want)):
        problems.append(f"{where}: tdbc_no_pa sum rate {got!r}, recomputed {want!r}")
    return True, rows, problems


def sweep_ops(rng: random.Random) -> tuple[list[Op], Callable]:
    ops = []
    for pt_db in SWEEP_DB:
        argv = (
            "sweep",
            f"--pt-db-list={pt_db:g}",
            "--seed",
            str(TRACE_SEED),
            "--slots",
            str(N_SLOTS),
            "--format",
            "json",
        )
        check = lambda rc, out, pt_db=pt_db: check_sweep(pt_db, rc, out)  # noqa: E731
        ops.append(Op(f"sweep {pt_db:g} dB", argv, check))
    rng.shuffle(ops)
    return ops, lambda results: []


# ------------------------------------------------------------ calibrate

_FIELD = re.compile(r"(\w+)=(\S+)")


def check_calibrate(point, rc: int, out: str) -> tuple[bool, object, list[str]]:
    fields = dict(_FIELD.findall(out))
    where = "calibrate omega1={:g} omega2={:g} {:g} dB".format(*point)
    if rc != 0:
        if fields.get("converged") != "false":
            return False, None, [f"{where}: exit {rc} without converged=false"]
        return False, None, []
    try:
        mu1, mu2, gamma = (float(fields[k]) for k in ("mu1", "mu2", "gamma"))
        resid = [float(fields[f"residual_c{k}"]) for k in (1, 2, 3)]
    except (KeyError, ValueError):
        return True, None, [f"{where}: unreadable output {out!r}"]
    problems = []
    if fields.get("converged") != "true":
        problems.append(f"{where}: exit 0 but converged={fields.get('converged')}")
    if resid[0] > TOL_RATE or resid[1] > TOL_RATE or resid[2] > TOL_POWER:
        problems.append(f"{where}: residuals {resid} outside tolerance")
    if not (0.0 < mu1 < 1.0 and 0.0 < mu2 < 1.0) or not gamma > 0.0:
        problems.append(f"{where}: duals mu1={mu1!r} mu2={mu2!r} gamma={gamma!r}")
    return True, (point, gamma), problems


def check_gamma_order(results: list) -> list[str]:
    """Spent power does not increase in gamma, so at fixed fading the
    calibrated power price falls strictly as the budget rises."""
    by_fading: dict = {}
    for data in results:
        if data is not None:
            (o1, o2, db), gamma = data
            by_fading.setdefault((o1, o2), []).append((db, gamma))
    problems = []
    for (o1, o2), pts in by_fading.items():
        pts.sort()
        for (db_a, g_a), (db_b, g_b) in zip(pts, pts[1:]):
            if not g_b < g_a:
                problems.append(
                    f"calibrate omega1={o1:g} omega2={o2:g}: gamma {g_b!r} at {db_b:g} dB "
                    f"not below {g_a!r} at {db_a:g} dB"
                )
    return problems


def calibrate_ops(rng: random.Random) -> tuple[list[Op], Callable]:
    ops = []
    for point in CALIBRATE_POINTS:
        o1, o2, db = point
        argv = (
            "calibrate",
            f"--pt-db={db:g}",
            "--omega1",
            repr(o1),
            "--omega2",
            repr(o2),
            "--seed",
            str(TRACE_SEED),
            "--slots",
            str(N_SLOTS),
        )
        check = lambda rc, out, point=point: check_calibrate(point, rc, out)  # noqa: E731
        ops.append(Op(f"calibrate omega1={o1:g} omega2={o2:g} {db:g} dB", argv, check))
    rng.shuffle(ops)
    return ops, check_gamma_order


# --------------------------------------------------------------- verify


def check_verify(rc: int, out: str) -> tuple[bool, object, list[str]]:
    # verify cannot fail on valid arguments: a FAIL line is a wrong result
    lines = out.splitlines()
    passed = [line for line in lines if line.startswith("PASS ")]
    if rc != 0 or len(passed) != 4 or len(lines) != 4:
        return True, None, [f"verify: exit {rc}, output {out!r}"]
    return True, None, []


def verify_ops(rng: random.Random) -> tuple[list[Op], Callable]:
    draw_seed = rng.randrange(1, 2**31)
    argv = (
        "verify",
        "--seed",
        str(draw_seed),
        "--draws",
        str(VERIFY_DRAWS),
        "--grid-points",
        str(VERIFY_GRID),
    )
    return [Op(f"verify seed {draw_seed}", argv, check_verify)], lambda results: []


WORKLOADS = {"sweep": sweep_ops, "calibrate": calibrate_ops, "verify": verify_ops}


# -------------------------------------------------------------- running


def call_cli(argv: tuple[str, ...]) -> tuple[int | None, str, str]:
    """Run birelay.cli.main in-process, capturing its output. A crash is
    returned as rc None with its traceback."""
    from birelay import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception:
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


class Tally:
    """Attempted, failed and successful operations, and their time."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.op_seconds = 0.0
        self.cycles = 0
        self.problems: list[str] = []
        self.log: list[dict] = []

    @property
    def ok(self) -> int:
        return self.attempted - self.failed

    def ok_per_s(self) -> float:
        return self.ok / self.op_seconds


def run_cycles(
    ops: list[Op],
    cycle_check: Callable,
    seconds: float,
    tally: Tally,
    setup_times: list[float] | None = None,
) -> None:
    """Run whole cycles of ops until the next cycle would end past
    seconds; always at least one cycle. With setup_times, take one set-up
    sample before every operation, so the samples span the run."""
    start = time.perf_counter()
    cycles = 0
    while True:
        results = []
        for op in ops:
            if setup_times is not None:
                setup_times.append(setup_sample())
            t0 = time.perf_counter()
            rc, out, err = call_cli(op.argv)
            dt = time.perf_counter() - t0
            if rc is None:
                succeeded, data, problems = False, None, []
            else:
                succeeded, data, problems = op.check(rc, out)
            tally.attempted += 1
            tally.failed += 0 if succeeded else 1
            tally.op_seconds += dt
            tally.problems += problems
            tally.log.append(
                {"op": op.name, "seconds": dt, "rc": rc, "ok": succeeded, "stderr": err[-2000:]}
            )
            results.append(data)
        tally.problems += cycle_check(results)
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / cycles > seconds:
            break
    tally.cycles += cycles


def setup_sample() -> float:
    """Time from starting a fresh interpreter until it could begin the
    first operation."""
    t0 = time.monotonic()  # CLOCK_MONOTONIC: shared with the child
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1]) - t0


def load_program() -> None:
    """Import birelay from this checkout's src/, and nowhere else."""
    if not (SRC / "birelay" / "__init__.py").is_file():
        raise SystemExit(f"error: no birelay package under {SRC}")
    sys.path.insert(0, str(SRC))
    import birelay

    if Path(birelay.__file__).resolve().parent != SRC / "birelay":
        raise SystemExit(f"error: imported birelay from {birelay.__file__}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    load_program()
    ops, cycle_check = WORKLOADS[args.workload](random.Random(args.seed))

    tally = Tally()
    setup_times = None if args.trace else []
    run_cycles(ops, cycle_check, args.seconds / (2 if args.trace else 1), tally, setup_times)
    if args.trace:
        untraced = tally.ok_per_s()
        traced_tally = Tally()
        tracer = Tracer()
        wrapped = tracer.install()
        try:
            run_cycles(ops, cycle_check, args.seconds / 2, traced_tally)
        finally:
            tracer.uninstall()
        traced = traced_tally.ok_per_s()
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layer_metrics(tracer, traced_tally.cycles).items()
        }
        metrics["bench.ok_per_s_untraced"] = {"value": untraced, "unit": "1/s"}
        metrics["bench.ok_per_s_traced"] = {"value": traced, "unit": "1/s"}
        metrics["bench.trace_overhead_pct"] = {
            "value": 100.0 * (untraced - traced) / untraced,
            "unit": "%",
        }
        tally.attempted += traced_tally.attempted
        tally.failed += traced_tally.failed
        tally.problems += traced_tally.problems
        tally.log += traced_tally.log
    else:
        tracer = None
        setup_times.append(setup_sample())
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(setup_sample())
        metrics = {
            "ok_per_s": {"value": tally.ok_per_s(), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }

    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"result": result, "problems": tally.problems, "operations": tally.log}
    if tracer is not None:
        record["wrapped"] = wrapped
        Path(f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    for problem in tally.problems:
        print(f"WRONG {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
