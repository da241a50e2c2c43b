"""Interval probabilities: feasibility, ignorance, and feasible-point sampling."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .belief import Frame, box_violations
from .intervals import Interval


@dataclass(frozen=True)
class IntervalProbabilities:
    """Per-hypothesis probability intervals [w_i^-, w_i^+] over a frame."""

    frame: Frame
    lowers: tuple[float, ...]
    uppers: tuple[float, ...]

    def __post_init__(self):
        q = self.frame.size
        if len(self.lowers) != q or len(self.uppers) != q:
            raise ValueError("bounds must have one interval per hypothesis")
        for lo, hi in zip(self.lowers, self.uppers):
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"invalid probability interval [{lo}, {hi}]")

    @staticmethod
    def from_point(frame: Frame, weights) -> "IntervalProbabilities":
        w = tuple(float(x) for x in weights)
        return IntervalProbabilities(frame, w, w)

    def interval(self, i: int) -> Interval:
        return Interval(self.lowers[i], self.uppers[i])

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple(hi - lo for lo, hi in zip(self.lowers, self.uppers))

    @property
    def is_point_valued(self) -> bool:
        return all(lo == hi for lo, hi in zip(self.lowers, self.uppers))


def is_feasible(p: IntervalProbabilities) -> bool:
    """True iff some point distribution fits inside all bounds.

    For box bounds this is exactly sum(lower) <= 1 <= sum(upper).
    """
    return not box_violations(p.lowers, p.uppers)


def check_feasible(p: IntervalProbabilities) -> None:
    """The one check of a parameter: ``ValueError`` naming the violated
    side of the box condition, if any."""
    violations = box_violations(p.lowers, p.uppers)
    if violations:
        raise ValueError(f"infeasible interval probabilities: {'; '.join(violations)}")


def check_alpha(alpha: float) -> float:
    """``alpha`` if it is a finite real >= 1, else ``ValueError``."""
    real = isinstance(alpha, numbers.Real) and not isinstance(alpha, bool)
    if not (real and math.isfinite(alpha) and alpha >= 1.0):
        raise ValueError(f"alpha must be a finite real >= 1, got {alpha!r}")
    return alpha


def ignorance(p: IntervalProbabilities, alpha: float) -> float:
    """Mean of interval widths raised to the power alpha.

    0 for point-valued distributions, 1 when every interval is [0, 1].
    """
    check_alpha(alpha)
    check_feasible(p)
    widths = p.widths
    return sum(w**alpha for w in widths) / len(widths)


def sample_feasible_points(
    p: IntervalProbabilities, count: int, seed: int
) -> np.ndarray:
    """Draw `count` point distributions inside the bounds, each summing to 1.

    Uniform draw in the box, then the deficit (or surplus) against 1 is
    redistributed proportionally to each coordinate's remaining slack
    toward its upper (or lower) bound. Deterministic given the seed.

    Returns an array of shape (count, q).
    """
    if count <= 0:
        raise ValueError("count must be positive")
    check_feasible(p)
    lo = np.asarray(p.lowers)
    hi = np.asarray(p.uppers)
    rng = np.random.default_rng(seed)
    w = lo + rng.random((count, len(lo))) * (hi - lo)
    deficit = 1.0 - w.sum(axis=1)

    up_slack = hi - w
    up_total = up_slack.sum(axis=1)
    need_up = deficit > 0
    scale = np.divide(deficit, up_total, out=np.zeros_like(deficit),
                      where=up_total > 0)
    w = np.where(need_up[:, None], w + scale[:, None] * up_slack, w)

    down_slack = w - lo
    down_total = down_slack.sum(axis=1)
    surplus = w.sum(axis=1) - 1.0
    need_down = surplus > 0
    scale = np.divide(surplus, down_total, out=np.zeros_like(surplus),
                      where=down_total > 0)
    w = np.where(need_down[:, None], w - scale[:, None] * down_slack, w)
    return w
