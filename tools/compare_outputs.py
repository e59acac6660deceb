"""Check that the command line's output is unchanged against a commit.

Unpacks the committed files of REF into a temporary directory with
``record_bench.export_commit``, runs each command of ``COMMANDS`` on REF
and on the working tree, one at a time, and compares stdout, stderr and
exit code. Every command runs: each prints ``same`` or ``DIFFERENT`` with
the first lines of its difference, so a change that moves one command on
purpose still shows which it left alone. It exits 1 if any command
differed, else 0.

Run from the repository root:

    python3 tools/compare_outputs.py HEAD

Each command is ``birelay.cli.main`` in a fresh interpreter that imports
``birelay`` from the side's own ``src/``. The list covers the default
sweep as CSV and as JSON, a 10:1 sweep that exits 1 because the
fixed-power baselines do not converge there, its 1:10 mirror, which also
exits 1 and runs the multiple-access closed forms at decoding share 1
through the engine and every baseline, the 10:1 sweep over those
baselines only, ``calibrate`` at the seven points of the benchmark's
``calibrate`` workload (all exit 0), ``verify`` at three seeds,
``verify`` on 37 draws of 801 points (a partial block on each axis and a
draw count that does not fill its last chunk), a ``proposed`` sweep at
-20 dB on a 30-slot trace, the short-trace path of calibration, and a
six-mode fixed-power sweep on a 2-slot trace, the short-trace path of a
baseline: 18 commands in all. It takes about a minute.
"""

from __future__ import annotations

import argparse
import difflib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from record_bench import ROOT, export_commit  # noqa: E402

# argv: the side's src/, then the command line
CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from birelay.cli import main; sys.exit(main(sys.argv[2:]))"
)

_CALIBRATE_POINTS = (
    (1.0, 1.0, -10.0),
    (1.0, 1.0, 0.0),
    (1.0, 1.0, 10.0),
    (1.0, 1.0, 20.0),
    (10.0, 1.0, 0.0),
    (100.0, 1.0, -10.0),
    (1.0, 100.0, -10.0),
)

COMMANDS = (
    ("sweep",),
    ("sweep", "--format", "json"),
    ("sweep", "--omega1", "10", "--pt-db-list=-10,0", "--format", "json"),
    ("sweep", "--omega2", "10", "--pt-db-list=-10,0", "--format", "json"),
    (
        "sweep",
        "--omega1",
        "10",
        "--pt-db-list=-10,0",
        "--protocols",
        "fixed_power_six_mode,fixed_power_three_mode",
    ),
    *(
        ("calibrate", f"--pt-db={db:g}", "--omega1", repr(o1), "--omega2", repr(o2))
        for o1, o2, db in _CALIBRATE_POINTS
    ),
    *(("verify", "--seed", str(seed)) for seed in (1, 7, 1234)),
    ("verify", "--draws", "37", "--grid-points", "801"),
    ("sweep", "--slots", "30", "--pt-db-list=-20", "--protocols", "proposed"),
    ("sweep", "--slots", "2", "--pt-db-list=0", "--protocols", "fixed_power_six_mode"),
)


def run(root: Path, argv: tuple[str, ...]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command in checkout root."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(root / "src"), *argv],
        cwd=root,
        capture_output=True,
        text=True,
    )
    return done.returncode, done.stdout, done.stderr


def first_difference(ref: tuple[int, str, str], new: tuple[int, str, str]) -> list[str]:
    """Lines that show where the working tree's result departs from REF's."""
    if ref[0] != new[0]:
        return [f"exit code: {ref[0]} at REF, {new[0]} in the working tree"]
    for name, a, b in (("stdout", ref[1], new[1]), ("stderr", ref[2], new[2])):
        if a != b:
            diff = difflib.unified_diff(
                a.splitlines(), b.splitlines(), "REF", "working tree", lineterm="", n=1
            )
            return [f"{name} differs:", *list(diff)[:40]]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="commit to compare against, e.g. HEAD")
    args = parser.parse_args()
    scratch = Path(tempfile.mkdtemp(prefix="compare_outputs-"))
    differed = 0
    try:
        export_commit(args.ref, scratch)
        for argv in COMMANDS:
            shown = "birelay " + " ".join(argv)
            problems = first_difference(run(scratch, argv), run(ROOT, argv))
            differed += bool(problems)
            verdict = "DIFFERENT" if problems else "same"
            print(f"{verdict}: {shown}", *problems, sep="\n", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if differed:
        print(f"{differed} of {len(COMMANDS)} commands differ from {args.ref}")
        return 1
    print(f"all {len(COMMANDS)} commands match {args.ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
