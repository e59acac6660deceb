"""Reference figures for bench/README.md: machine facts, the src/ line
count, and the ns/slot of policy.decide_trace and engine.run at 10 000
and 100 000 slots.

Run from the repository root:

    python3 bench/reference.py

decide_trace is timed at a fixed dual point near the calibrated 0 dB
symmetric one (median of 5 calls). engine.run is timed with the adaptive
protocol's per-slot policy at the same point (median of 3 runs at 10 000
slots, 1 run at 100 000); its self time excludes the policy callback.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402
from birelay import FadingStatistics, Thresholds, engine, proposed_policy, sample_trace  # noqa: E402
from birelay.policy import decide_trace  # noqa: E402
from layers import Tracer  # noqa: E402

MU, GAMMA = 0.5, 0.47


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main() -> int:
    print(f"nproc {os.cpu_count()}")
    print(f"python {platform.python_version()}")
    print(f"numpy {np.__version__}")
    print(f"src_lines {src_lines()}")
    stats = FadingStatistics(1.0, 1.0)
    policy = proposed_policy(Thresholds(MU, MU, GAMMA), stats)
    for n, engine_repeats in ((10_000, 3), (100_000, 1)):
        trace = sample_trace(stats, n, 1234)
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            decide_trace(trace.s1, trace.s2, MU, MU, GAMMA, 0.0)
            times.append(time.perf_counter() - t0)
        print(f"policy.decide_trace n={n} {1e9 * statistics.median(times) / n:.1f} ns/slot")
        totals, selfs = [], []
        for _ in range(engine_repeats):
            tracer = Tracer()
            tracer.install(targets=(("engine", "run"),))
            try:
                engine.run(trace, policy)
            finally:
                tracer.uninstall()
            totals.append(tracer.total["engine.run"])
            selfs.append(tracer.self_time["engine.run"])
        print(
            f"engine.run n={n} total {1e9 * statistics.median(totals) / n:.0f} ns/slot, "
            f"self {1e9 * statistics.median(selfs) / n:.0f} ns/slot"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
