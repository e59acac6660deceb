"""Block-fading channel traces for the two-user relay network.

Each slot carries one pair of squared channel gains (s1, s2), one per
user-relay link, constant within a slot. sample_trace draws them
exponentially distributed (Rayleigh amplitude fading), independent across
slots and across the two links; a trace can also be built by hand from
any finite nonnegative gains, for instance a transformed copy of a drawn
one. ChannelTrace checks the gains once, when it is built; slots are read
through its two gain arrays, so there is no per-slot type to check again.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FadingStatistics",
    "ChannelTrace",
    "sample_trace",
    "check_real",
    "check_int",
    "check_tolerance",
]


def check_real(name: str, value, positive: bool = False) -> None:
    """Reject anything but a finite real number (and, with positive, one
    above zero). Booleans and strings are not numbers here."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or (positive and not value > 0.0)
    ):
        kind = "a positive finite number" if positive else "a finite number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def check_tolerance(name: str, value) -> None:
    """Reject anything but a relative residual tolerance in (0, 0.1]."""
    check_real(name, value, positive=True)
    if not value <= 0.1:
        raise ValueError(f"{name} must lie in (0, 0.1], got {value!r}")


def check_int(name: str, value, minimum: int, maximum: int | None = None) -> None:
    """Reject anything but an integer >= minimum and, if given, <= maximum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be an integer <= {maximum}, got {value!r}")


@dataclass(frozen=True)
class FadingStatistics:
    """Long-term mean squared gains of the two links, E[s1] and E[s2]."""

    omega1: float
    omega2: float

    def __post_init__(self) -> None:
        check_real("fading mean omega1", self.omega1, positive=True)
        check_real("fading mean omega2", self.omega2, positive=True)


@dataclass(frozen=True, eq=False)
class ChannelTrace:
    """A materialized fading realization: at least one slot of finite,
    nonnegative gains, and nothing else. Every rule that runs on a trace
    reads only its gains, never the statistics they were drawn under.

    The gains are read-only float copies of the caller's, so a trace is a value.
    """

    s1: np.ndarray = field(repr=False)
    s2: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        for name in ("s1", "s2"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
        if self.s1.shape != self.s2.shape or self.s1.ndim != 1:
            raise ValueError("gain arrays must be 1-D and equally long")
        if self.s1.size == 0:
            raise ValueError("a trace needs at least one slot")
        if not all(np.all(np.isfinite(s) & (s >= 0.0)) for s in (self.s1, self.s2)):
            raise ValueError("squared gains must be finite and nonnegative")
        self.s1.flags.writeable = False
        self.s2.flags.writeable = False

    def __len__(self) -> int:
        return int(self.s1.shape[0])


def sample_trace(stats: FadingStatistics, n_slots: int, seed: int) -> ChannelTrace:
    """Draw a fading trace of n_slots i.i.d. exponential gain pairs.

    Gains come from inverse-CDF sampling, s = -omega*log(1-u), in place on
    the uniform draws of a seeded 64-bit generator, so the trace is a pure
    function of (stats, n_slots, seed), bit-identical across runs on one
    machine (the last bits of log1p come from the platform's math library).
    """
    check_int("n_slots", n_slots, 1)
    check_int("seed", seed, 0)
    g = np.random.default_rng(seed).random((2, n_slots))
    np.log1p(np.negative(g, out=g), out=g)
    g *= np.array([[-stats.omega1], [-stats.omega2]])
    return ChannelTrace(s1=g[0], s2=g[1])
