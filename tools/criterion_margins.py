"""Print six acceptance-criterion quantities on further trace seeds.

The acceptance criteria are judged on the trace of seed 1234 alone, and
some of their margins are thin. This report prints six of their
quantities on seeds 1234, 7, 99, 2024, 5 and 11, so a reader can tell a
knife-edge move from seed luck. It computes nothing itself: every value
comes from ``tests/criteria.py``, the definitions that
``tests/test_acceptance.py`` gates on at seed 1234.

* criterion 3: the largest joint-uplink (mode 3) frequency over the
  calibrated 1:1 points at -10, 0, 10 and 20 dB (bound 0.01, lower is
  better);
* criterion 4: the worst end queue, as a share of the sum rate, over the
  same points (bound 0.02, lower is better);
* criterion 5: the tightest margin, sum rate of ``proposed`` minus 0.99 x
  a baseline's, over the default sweep (bound 0, higher is better);
* criterion 6: the budget in dB at which ``tdbc_no_pa`` matches the sum
  rate of ``proposed`` at 14 dB (bounds 18 to 22 dB);
* criterion 7: ``proposed`` over ``fixed_power_three_mode`` at -10 dB
  (bound 1.2, higher is better);
* criterion 8: the sum-rate increments of ``proposed`` at 10 dB from
  omega1 = 1 to 2 and from 2 to 5 (both positive, the second at most the
  first).

It gates nothing: the criteria stay on seed 1234 at their stated bounds,
and this script exits 0 once it has printed its table. It stops with an
error only where a quantity is undefined: a seed on which ``tdbc_no_pa``
does not reach the 14 dB rate of ``proposed`` between 14 and 30 dB. Run
from the repository root:

    python3 tools/criterion_margins.py

It takes about 6 seconds on a 2-CPU machine.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import criteria  # noqa: E402

SEEDS = (1234, 7, 99, 2024, 5, 11)


def main() -> int:
    head = (
        "seed",
        "c3 joint (<= 0.01)",
        "c4 end queue (<= 0.02)",
        "c5 margin (>= 0)",
        "against",
        "c6 dB (18-22)",
        "c7 ratio (>= 1.2)",
        "c8 increments (0 < 2nd <= 1st)",
    )
    line = "{:<5} {:<18} {:<23} {:<17} {:<33} {:<14} {:<18} {}"
    print(line.format(*head))
    for seed in SEEDS:
        runs, rows = criteria.point_runs(seed), criteria.default_sweep(seed)
        margin, against = criteria.tightest_margin(rows)
        _, crossing = criteria.tdbc_crossing(seed)
        _, ratio = criteria.low_budget_rates(rows)
        _, gain_12, gain_25 = criteria.link_quality_gains(seed, runs)
        joint, queue = criteria.joint_uplink_share(runs), criteria.end_queue_share(runs)
        cells = (f"{joint:.4f}", f"{queue:.7f}", f"{margin:+.4f}", against, f"{crossing:.2f}")
        print(line.format(seed, *cells, f"{ratio:.3f}", f"{gain_12:.4f} then {gain_25:.4f}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
