"""Print three acceptance-criterion quantities on further trace seeds.

The acceptance criteria are judged on the trace of seed 1234 alone, and
some of their margins are thin. This report recomputes three of their
quantities, the way ``tests/test_acceptance.py`` computes them, on seeds
1234, 7, 99, 2024, 5 and 11, so a reader can tell a knife-edge move from
seed luck:

* criterion 4: the worst end queue, as a share of the sum rate, over the
  calibrated 1:1 points at -10, 0, 10 and 20 dB (bound 0.02, lower is
  better);
* criterion 5: the tightest margin, sum rate of ``proposed`` minus 0.99 x
  a baseline's, over the default sweep (bound 0, higher is better);
* criterion 7: ``proposed`` over ``fixed_power_three_mode`` at -10 dB
  (bound 1.2, higher is better).

It gates nothing: the criteria stay on seed 1234 at their stated bounds,
and this script always exits 0 once it has printed its table. Run from
the repository root:

    python3 tools/criterion_margins.py

It takes about 7 seconds on a 2-CPU machine.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from birelay.calibrate import calibrate  # noqa: E402
from birelay.channel import FadingStatistics, sample_trace  # noqa: E402
from birelay.cli import RunSpec, run_sweep  # noqa: E402
from birelay.engine import run  # noqa: E402
from birelay.policy import proposed_policy  # noqa: E402

SEEDS = (1234, 7, 99, 2024, 5, 11)
POINT_DBS = (-10.0, 0.0, 10.0, 20.0)  # criterion 4's calibrated points


def worst_end_queue(seed: int) -> float:
    """Criterion 4: the largest final buffer level per slot over the sum
    rate, across both buffers and the calibrated 1:1 points."""
    trace = sample_trace(FadingStatistics(1.0, 1.0), 10_000, seed)
    worst = 0.0
    for pt_db in POINT_DBS:
        result = calibrate(trace, 10.0 ** (pt_db / 10.0), tol_rate=0.01, tol_power=0.005)
        report = run(trace, proposed_policy(result.thresholds, trace.stats))
        for q in (report.q1, report.q2):
            worst = max(worst, (q / report.n_slots) / report.sum_rate)
    return worst


def sweep_margins(seed: int) -> tuple[float, str, float]:
    """Criteria 5 and 7 on the default sweep at seed: the tightest 0.99x
    margin with the baseline and budget it is against, and the -10 dB
    ratio of the adaptive protocol to the three-mode fixed-power one."""
    rows = run_sweep(RunSpec(seed=seed))
    proposed = {r["pt_db"]: r["sum_rate"] for r in rows if r["protocol"] == "proposed"}
    margin, against = math.inf, ""
    for row in rows:
        if row["protocol"] != "proposed":
            m = proposed[row["pt_db"]] - 0.99 * row["sum_rate"]
            if m < margin:
                margin, against = m, f"{row['protocol']} at {row['pt_db']:g} dB"
    at = {r["protocol"]: r["sum_rate"] for r in rows if r["pt_db"] == -10.0}
    return margin, against, at["proposed"] / at["fixed_power_three_mode"]


def main() -> int:
    head = ("seed", "c4 end queue (<= 0.02)", "c5 margin (>= 0)", "against", "c7 ratio (>= 1.2)")
    print("{:<5} {:<23} {:<17} {:<33} {}".format(*head))
    for seed in SEEDS:
        queue = worst_end_queue(seed)
        margin, against, ratio = sweep_margins(seed)
        print(f"{seed:<5} {queue:<23.7f} {margin:<+17.4f} {against:<33} {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
