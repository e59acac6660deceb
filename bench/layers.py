"""Per-layer timing for the traced benchmark run.

The tracer wraps public functions of birelay's modules from outside the
program: it replaces every name bound to the original function in any
loaded ``birelay`` module, so a call reaches the wrapper whether it goes
through the defining module (``policy.decide_trace``) or through a name an
importing module bound (``decide_trace`` inside ``calibrate`` and
``oracle``). A target that no longer exists is skipped and its metrics
read zero.

Each wrapped call is a frame on a stack. Its duration is added to its
total, and to its parent's child time, so a function's self time is its
total minus the time spent in wrapped callees. Calls at operation level
(sweep stages, calibrations, engine runs) are also kept as spans
(name, start, end, parent) for the trace file; per-slot and per-draw
calls are only aggregated.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from collections import Counter

PACKAGE = "birelay"

# (module, function) pairs wrapped in the traced run.
TARGETS = (
    ("channel", "sample_trace"),
    ("rate", "cap"),
    ("policy", "decide_slot"),
    ("policy", "decide_trace"),
    ("policy", "mode_powers"),
    ("engine", "run"),
    ("calibrate", "calibrate"),
    ("calibrate", "balance_duals"),
    ("benchmarks", "tdbc_policy"),
    ("benchmarks", "fixed_power_policy"),
    ("oracle", "grid_max_metric"),
    ("oracle", "t_sweep"),
    ("cli", "run_sweep"),
    ("cli", "emit"),
    ("cli", "main"),
)

# frames kept as spans; everything else is called per slot or per draw
SPANNED = frozenset(
    {
        "cli.main",
        "cli.run_sweep",
        "cli.emit",
        "channel.sample_trace",
        "calibrate.calibrate",
        "calibrate.balance_duals",
        "benchmarks.tdbc_policy",
        "benchmarks.fixed_power_policy",
        "engine.run",
    }
)

# name given to the policy callback that engine.run receives
POLICY_CALLBACK = "engine.policy"


class Tracer:
    """Call counts, total and self times, extra counters and spans."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[dict] = []
        self._stack: list[list] = []  # [name, child seconds, span id]
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def timed(self, name: str, fn, args: tuple, kwargs: dict):
        parent = next((f[2] for f in reversed(self._stack) if f[2] is not None), None)
        span_id = next(self._ids) if name in SPANNED else None
        frame = [name, 0.0, span_id]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur
            if span_id is not None:
                self.spans.append(
                    {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                )

    def _wrapper(self, name: str, fn):
        tracer = self
        if name == "engine.run":

            def wrapper(*args, **kwargs):
                if args:
                    tracer.counts["engine.run.slots"] += len(args[0])
                if len(args) > 1 and callable(args[1]):
                    policy = args[1]

                    def timed_policy(*pa, **pkw):
                        return tracer.timed(POLICY_CALLBACK, policy, pa, pkw)

                    args = (args[0], timed_policy) + args[2:]
                return tracer.timed(name, fn, args, kwargs)

        elif name == "policy.decide_trace":

            def wrapper(*args, **kwargs):
                if args:
                    tracer.counts["policy.decide_trace.slots"] += len(args[0])
                if tracer.active("calibrate.calibrate"):
                    tracer.counts["calibrate.decide_trace"] += 1
                return tracer.timed(name, fn, args, kwargs)

        elif name == "calibrate.calibrate":

            def wrapper(*args, **kwargs):
                result = tracer.timed(name, fn, args, kwargs)
                tracer.counts["calibrate.evaluations"] += getattr(result, "iterations", 0)
                tracer.counts["calibrate.converged_points"] += bool(
                    getattr(result, "converged", False)
                )
                return result

        elif name == "calibrate.balance_duals":

            def wrapper(*args, **kwargs):
                # count the residual evaluations the fixed-power baselines ask for
                if args and tracer.active("benchmarks.fixed_power_policy"):
                    residual_fn = args[0]

                    def counted(*ra, **rkw):
                        tracer.counts["benchmarks.dual_evaluations"] += 1
                        return residual_fn(*ra, **rkw)

                    args = (counted,) + args[1:]
                return tracer.timed(name, fn, args, kwargs)

        else:

            def wrapper(*args, **kwargs):
                return tracer.timed(name, fn, args, kwargs)

        return functools.update_wrapper(wrapper, fn)

    def install(self, targets=TARGETS) -> list[str]:
        """Wrap every target that exists; return the names wrapped, so a
        metric that reads zero can be told apart from a missing function."""
        wrapped = []
        for mod_name, fn_name in targets:
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                continue
            original = getattr(module, fn_name, None)
            if not callable(original):
                continue
            wrapper = self._wrapper(f"{mod_name}.{fn_name}", original)
            loaded = [
                m
                for key, m in list(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
            ]
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, original))
            wrapped.append(f"{mod_name}.{fn_name}")
        return wrapped

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()


def layer_metrics(tr: Tracer, cycles: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}. Counts and seconds are
    per cycle of the workload's operation list; ratios are over the run."""

    def per(value: float) -> float:
        return value / cycles

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    calls, total, self_time, counts = tr.calls, tr.total, tr.self_time, tr.counts
    return {
        "channel.sample_trace.s": (per(total["channel.sample_trace"]), "s"),
        "rate.cap.calls": (per(calls["rate.cap"]), "count"),
        "policy.decide_slot.calls": (per(calls["policy.decide_slot"]), "count"),
        "policy.decide_slot.s": (per(total["policy.decide_slot"]), "s"),
        "policy.decide_trace.calls": (per(calls["policy.decide_trace"]), "count"),
        "policy.decide_trace.s": (per(total["policy.decide_trace"]), "s"),
        "policy.decide_trace.ns_per_slot": (
            1e9 * ratio(total["policy.decide_trace"], counts["policy.decide_trace.slots"]),
            "ns",
        ),
        "policy.mode_powers.calls": (per(calls["policy.mode_powers"]), "count"),
        "policy.mode_powers.s": (per(total["policy.mode_powers"]), "s"),
        "engine.run.calls": (per(calls["engine.run"]), "count"),
        "engine.run.self_s": (per(self_time["engine.run"]), "s"),
        "engine.run.ns_per_slot": (
            1e9 * ratio(self_time["engine.run"], counts["engine.run.slots"]),
            "ns",
        ),
        "calibrate.calibrate.s": (per(total["calibrate.calibrate"]), "s"),
        "calibrate.evaluations": (per(counts["calibrate.evaluations"]), "count"),
        "calibrate.decide_trace_per_point": (
            ratio(counts["calibrate.decide_trace"], calls["calibrate.calibrate"]),
            "calls",
        ),
        "calibrate.converged_points": (per(counts["calibrate.converged_points"]), "count"),
        "benchmarks.tdbc_policy.s": (per(total["benchmarks.tdbc_policy"]), "s"),
        "benchmarks.fixed_power_policy.s": (per(total["benchmarks.fixed_power_policy"]), "s"),
        "benchmarks.dual_evaluations": (per(counts["benchmarks.dual_evaluations"]), "count"),
        "oracle.grid_max_metric.calls": (per(calls["oracle.grid_max_metric"]), "count"),
        "oracle.grid_max_metric.s": (per(total["oracle.grid_max_metric"]), "s"),
        "oracle.t_sweep.s": (per(total["oracle.t_sweep"]), "s"),
        "cli.run_sweep.self_s": (per(self_time["cli.run_sweep"]), "s"),
        "cli.emit.s": (per(total["cli.emit"]), "s"),
        "cli.main.self_s": (per(self_time["cli.main"]), "s"),
    }
