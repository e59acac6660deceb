"""Buffer-aided bidirectional relay network simulator.

A three-node network (two users exchanging data through a half-duplex
decode-and-forward relay with two buffers) simulated under adaptive mode
selection with optimal power allocation, plus fixed-schedule and
fixed-power baselines for comparison. Every protocol decides a whole
fading trace at once and the engine solves the buffer recursion over it.
The package exports the names a simulation needs; every other type and
function is imported from its module (birelay.engine.RateReport, say).
The name birelay.calibrate is the module; its function calibrate is not
re-exported over it.
"""

from .benchmarks import fixed_power_policy, tdbc_policy
from .channel import FadingStatistics, sample_trace
from .engine import run
from .policy import Thresholds, proposed_policy

__version__ = "0.1.0"

__all__ = [
    "FadingStatistics",
    "Thresholds",
    "fixed_power_policy",
    "proposed_policy",
    "run",
    "sample_trace",
    "tdbc_policy",
]
