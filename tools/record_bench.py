"""Record a before/after benchmark comparison as BENCH_<n>.json.

Runs the benchmark that ``BENCHMARK.json`` declares in ten alternating
pairs on a ``git archive`` copy of a parent commit and on the working tree,
then writes the machine facts, each workload's per-side medians and
quartiles of every end-to-end metric, the pairs the change won, the
medians and quartiles of the per-layer metrics over three traced runs per
side, the ``src/`` line count and the Tier-1 test time of both sides.

Run from the repository root:

    python3 tools/record_bench.py --parent HEAD~1 --out BENCH_8.json

Each run is ``python3 bench/run.py --workload W --seed N --seconds S
--trace 0`` in its own checkout, one at a time, with S the declared
``run_seconds``. Pair k runs seed k + 1 on both sides, and the side that
runs first alternates from pair to pair, so drift in the machine's load
falls on both sides. Each untraced run also records, from deltas of
``resource.getrusage(RUSAGE_CHILDREN)``, the CPU seconds and minor page
faults of the run's process tree per attempted operation. They are not
an operation's cost: they include the set-up child of ``bench/run.py``,
the fresh interpreter it starts before every operation, which is the
same on both sides and dominates them. One set-up child alone takes
about 5,100 minor faults and 0.3 to 0.4 CPU seconds, against the 5,300
to 8,200 faults per operation in ``BENCH_28.json``, so a saving inside
an operation shows diluted and the CPU figure mostly times interpreter
start-up. Unlike ``ok_per_s`` they do not drift with the machine's
speed, and they feed no gate. After the pairs come three alternating pairs of
``--trace 1`` runs (traced pair k runs seed k + 1, same S): their layer
metrics (seconds and counts per cycle of the workload's operation list)
show where a change in the end-to-end numbers comes from, and as medians
over alternating runs they do not carry one run's speed phase of the
machine. The parent copy goes to a temporary directory (under
``$TMPDIR``) and is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
# parent/change pairs per workload: a gain counts when the change wins at
# least nine of ten
PAIRS = 10
# traced parent/change pairs per workload, for the layer metrics
TRACED_PAIRS = 3


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export_commit(rev: str, dest: Path) -> None:
    """Unpack the committed files of rev into dest."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def machine_facts() -> dict:
    import numpy

    facts = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    return facts


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def bench_run(
    root: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int = 0
) -> dict:
    """One benchmark run in checkout root; returns its final JSON object,
    with the run's child CPU seconds and minor page faults per attempted
    operation under "per_op"."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    args += ["--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(command + args, cwd=root, check=True, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    ops = result["attempted"]  # at least one cycle of operations
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    result["per_op"] = {
        "child_cpu_s": cpu / ops,
        "child_minflt": (after.ru_minflt - before.ru_minflt) / ops,
    }
    return result


def tier1(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    done = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    return {"seconds": round(elapsed, 2), "exit_code": done.returncode, "summary": summary}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Pairs the change won (ties count for neither side), the median
    difference, and whether that shows a gain: the change won at least nine
    tenths of the pairs and its median is better by more than the parent's
    interquartile range."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    ps, cs = spread(parent), spread(change)
    diff, iqr = cs["median"] - ps["median"], ps["q3"] - ps["q1"]
    return {
        "change_won_pairs": won,
        "pairs": len(parent),
        "median_diff": diff,
        "parent_iqr": iqr,
        "gain_shown": won >= 0.9 * len(parent) and sign * diff > iqr,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--out", required=True, help="path of the BENCH_<n>.json to write")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = [k + 1 for k in range(PAIRS)]
    parent_sha = git("rev-parse", args.parent)
    scratch = Path(tempfile.mkdtemp(prefix="record_bench-"))
    try:
        export_commit(parent_sha, scratch)
        sides = {"parent": scratch, "change": ROOT}
        workloads = {}
        for workload in (w["name"] for w in spec["workloads"]):
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    result = bench_run(sides[side], spec["command"], workload, seed, seconds)
                    runs[side].append(result)
                    print(f"{workload} seed {seed} {side}: {result['metrics']}", file=sys.stderr)
            entry = {}
            for side, results in runs.items():
                entry[side] = {
                    "attempted": sum(r["attempted"] for r in results),
                    "failed": sum(r["failed"] for r in results),
                    "correct": all(r["correct"] for r in results),
                    "metrics": {
                        name: spread([r["metrics"][name]["value"] for r in results])
                        for name in better
                    },
                    "per_op": {
                        name: spread([r["per_op"][name] for r in results])
                        for name in results[0]["per_op"]
                    },
                }
            traced: dict[str, list[dict]] = {"parent": [], "change": []}
            for k in range(TRACED_PAIRS):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    traced[side].append(
                        bench_run(sides[side], spec["command"], workload, k + 1, seconds, trace=1)
                    )
                    print(f"{workload} traced seed {k + 1} {side}: done", file=sys.stderr)
            for side, results in traced.items():
                names = [n for n in results[0]["metrics"] if n not in better]
                entry[side]["layers"] = {
                    name: spread([r["metrics"][name]["value"] for r in results]) for name in names
                }
            entry["comparison"] = {
                name: compare(
                    entry["parent"]["metrics"][name]["runs"],
                    entry["change"]["metrics"][name]["runs"],
                    better[name],
                )
                for name in better
            }
            workloads[workload] = entry
        record = {
            "parent": parent_sha,
            "change": f"working tree on {git('rev-parse', 'HEAD')}",
            "machine": machine_facts(),
            "settings": {
                "command": spec["command"] + ["--workload", "W", "--seed", "N", "--trace", "0"],
                "seconds": seconds,
                "pairs": PAIRS,
                "seeds": seeds,
                "layers": (
                    f"{TRACED_PAIRS} alternating --trace 1 pairs, seeds 1..{TRACED_PAIRS}, "
                    "values per cycle"
                ),
                "per_op": (
                    "getrusage(RUSAGE_CHILDREN) deltas over each untraced run, per "
                    "attempted operation: CPU seconds (user + system) and minor faults; "
                    "they include bench/run.py's set-up child (a fresh interpreter per "
                    "operation), which dominates them, so they are not an operation's cost"
                ),
            },
            "workloads": workloads,
            "src_lines": {side: src_lines(root) for side, root in sides.items()},
            "tier1": {side: tier1(root) for side, root in sides.items()},
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
