"""Buffer-aided bidirectional relay network simulator.

A three-node network (two users exchanging data through a half-duplex
decode-and-forward relay with two buffers) simulated under adaptive mode
selection with optimal power allocation, plus fixed-schedule and
fixed-power baselines for comparison. Every protocol decides a whole
fading trace at once and the engine solves the buffer recursion over it.
The name birelay.calibrate is the module; its function calibrate is not
re-exported over it.
"""

from .benchmarks import BenchmarkConfig, fixed_power_policy, tdbc_policy
from .calibrate import CalibrationConfig, CalibrationResult
from .channel import ChannelState, ChannelTrace, FadingStatistics, sample_trace
from .engine import PreparedPolicy, ProtocolPolicy, QueueState, RateReport, run
from .oracle import ScanPoint, threshold_region_scan
from .policy import (
    ModePowers,
    SelectionMetrics,
    Thresholds,
    TraceDecisions,
    TraceGains,
    decide_trace,
    optimal_time_share,
    proposed_policy,
)
from .rate import LinkCapacities, PowerTriple, cap, link_capacities

__version__ = "0.1.0"

__all__ = [
    "BenchmarkConfig",
    "CalibrationConfig",
    "CalibrationResult",
    "ChannelState",
    "ChannelTrace",
    "FadingStatistics",
    "LinkCapacities",
    "ModePowers",
    "PowerTriple",
    "PreparedPolicy",
    "ProtocolPolicy",
    "QueueState",
    "RateReport",
    "ScanPoint",
    "SelectionMetrics",
    "Thresholds",
    "TraceDecisions",
    "TraceGains",
    "cap",
    "decide_trace",
    "fixed_power_policy",
    "link_capacities",
    "optimal_time_share",
    "proposed_policy",
    "run",
    "sample_trace",
    "tdbc_policy",
    "threshold_region_scan",
]
