"""Closed real intervals and the interval distance used by the objective."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval bounds must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"invalid interval: lo={self.lo} > hi={self.hi}")

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    @property
    def halfwidth(self) -> float:
        return (self.hi - self.lo) / 2.0

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi


def interval_distance(a: Interval, b: Interval) -> float:
    """Distance combining midpoint difference with both halfwidths.

    D(A, B) = sqrt((mid_A - mid_B)^2 + (1/3)(hw_A^2 + hw_B^2)).

    Not a metric: D(A, A) = sqrt(2/3) * hw_A > 0 for non-degenerate A.
    """
    dm = a.midpoint - b.midpoint
    return math.sqrt(dm * dm + (a.halfwidth**2 + b.halfwidth**2) / 3.0)

