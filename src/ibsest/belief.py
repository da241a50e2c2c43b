"""Frames of discernment and crisp/interval belief structures."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .likelihood import Workspace

SUM_TOL = 1e-9  # on sum(lower) <= 1 <= sum(upper), and on clamping within its reach
ROUNDING_TOL = 1e-12  # on quantities that are exact up to rounding


@dataclass(frozen=True)
class Frame:
    """Ordered set of named hypotheses; order fixes every downstream index."""

    hypotheses: tuple[str, ...]

    def __post_init__(self):
        if not self.hypotheses:
            raise ValueError("frame needs at least one hypothesis")
        if any(not h for h in self.hypotheses):
            raise ValueError("hypothesis names must be non-empty")
        if len(set(self.hypotheses)) != len(self.hypotheses):
            raise ValueError("hypothesis names must be unique")

    @property
    def size(self) -> int:
        return len(self.hypotheses)

    def index(self, name: str) -> int:
        try:
            return self.hypotheses.index(name)
        except ValueError:
            raise KeyError(f"unknown hypothesis {name!r}") from None


@dataclass(frozen=True)
class FocalElement:
    """Non-empty subset of a frame, canonically ordered by frame index."""

    members: tuple[str, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("focal element must be non-empty")
        if len(set(self.members)) != len(self.members):
            raise ValueError("focal element has duplicate members")

    @staticmethod
    def of(frame: Frame, names: Iterable[str]) -> "FocalElement":
        names = list(names)
        idx = [frame.index(n) for n in names]  # raises on unknown members
        ordered = tuple(n for _, n in sorted(zip(idx, names)))
        return FocalElement(ordered)

    def indices(self, frame: Frame) -> tuple[int, ...]:
        return tuple(frame.index(n) for n in self.members)

    def __str__(self) -> str:
        return "{" + ",".join(self.members) + "}"


@dataclass(frozen=True)
class MassEntry:
    focal: FocalElement
    lower: float
    upper: float


@dataclass(frozen=True)
class IntervalBeliefStructure:
    """One observation: focal elements with interval masses [a_i, b_i].

    Structural problems (members outside the frame, duplicate focal
    elements) are constructor errors. :func:`validate_ibs` reports the
    numeric validity conditions; :func:`check_ibs`, which every likelihood
    entry calls, raises on them.
    """

    frame: Frame
    entries: tuple[MassEntry, ...]
    label: str = ""

    def __post_init__(self):
        if not self.entries:
            raise ValueError("belief structure needs at least one entry")
        seen = set()
        for e in self.entries:
            for h in e.focal.members:
                self.frame.index(h)
            if e.focal.members in seen:
                raise ValueError(f"duplicate focal element {e.focal}")
            seen.add(e.focal.members)

    @property
    def lowers(self) -> tuple[float, ...]:
        return tuple(e.lower for e in self.entries)

    @property
    def uppers(self) -> tuple[float, ...]:
        return tuple(e.upper for e in self.entries)


@dataclass
class ValidityReport:
    ok: bool
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def validate_ibs(structure: IntervalBeliefStructure) -> ValidityReport:
    """Check the interval-mass validity conditions.

    Per entry: 0 <= a_i <= b_i <= 1. Overall: sum(a) <= 1 <= sum(b).
    Entries with a_i = b_i = 0 are accepted but flagged as warnings.
    """
    violations: list[str] = []
    warnings: list[str] = []
    for i, e in enumerate(structure.entries):
        if not (0.0 <= e.lower <= e.upper <= 1.0):
            violations.append(
                f"entry {i} {e.focal}: mass bounds [{e.lower}, {e.upper}] "
                f"violate 0 <= a <= b <= 1"
            )
        elif e.lower == 0.0 and e.upper == 0.0:
            warnings.append(f"entry {i} {e.focal}: zero mass interval [0, 0]")
    violations += box_violations(structure.lowers, structure.uppers)
    return ValidityReport(ok=not violations, violations=violations, warnings=warnings)


def box_violations(lowers, uppers) -> list[str]:
    """The violated sides of sum(lowers) <= 1 <= sum(uppers), within SUM_TOL.

    The one test of this condition, for mass boxes and probability boxes.
    """
    violations = []
    sum_a = sum(lowers)
    if sum_a > 1.0 + SUM_TOL:
        violations.append(f"sum of lower masses {sum_a} exceeds 1")
    sum_b = sum(uppers)
    if sum_b < 1.0 - SUM_TOL:
        violations.append(f"sum of upper masses {sum_b} is below 1")
    return violations


def check_ibs(structure: IntervalBeliefStructure) -> None:
    """The one check of an observation: ``ValueError`` naming it and what
    :func:`validate_ibs` rejects, if anything."""
    violations = validate_ibs(structure).violations
    if violations:
        raise ValueError(
            f"invalid observation {structure.label!r}: {'; '.join(violations)}")


def is_crisp(structure: IntervalBeliefStructure) -> bool:
    """True iff every mass interval is a point and the masses sum to 1."""
    if any(e.lower != e.upper for e in structure.entries):
        return False
    return abs(sum(structure.lowers) - 1.0) <= ROUNDING_TOL


@dataclass(frozen=True)
class ObservationSet:
    """Ordered collection of observations over a shared frame."""

    frame: Frame
    observations: tuple[IntervalBeliefStructure, ...]

    def __post_init__(self):
        if not self.observations:
            raise ValueError("observation set must be non-empty")
        for obs in self.observations:
            if obs.frame != self.frame:
                raise ValueError("all observations must share the frame")

    @property
    def size(self) -> int:
        return len(self.observations)

    @cached_property
    def tables(self) -> MassTables:
        """The observations compiled for the batched likelihood kernel."""
        return MassTables.compile(self)


# Byte budget of one kernel block: a batch is evaluated in blocks of rows
# whose working set fits it, so the kernel's memory does not grow with the
# batch. Twice the 2 MiB L2 cache of the two-core Xeon it was measured on:
# at 2 and 3 MiB, glibc's malloc handed the freed heap back to the system
# after most blocks and faulted it in again for the next (about 40k page
# faults per paper-cells pass instead of about 10). The search's rounds are
# sized by the same block (see ``likelihood.block_rows``), and an order
# table is compiled only if it fits the budget too.
_BLOCK_BYTES = 1 << 22


@dataclass(frozen=True)
class MassTables:
    """Observations padded to K focal elements, over their distinct focal sets.

    ``focal[d]``: the member hypothesis indices of distinct focal set d,
    padded to M with q, the index of a zero column; the padding entries
    share one all-q row. ``which[o, e]``: the row of ``focal`` holding
    focal element e of observation o, which has ``sizes[o]`` of them. ``a``
    and ``cap`` (b - a) are 0 for padding entries, so these take no mass.
    ``fill`` is False when no observation has both mass to distribute and
    an entry with room for it, so that every greedy take is 0.

    ``likelihood.block_rows`` counts a block's budget in padded
    (n, K, M) member rows, as if each entry had its own focal set; the
    kernel gathers only the D <= n * K distinct ones, so its working set
    stays below that count.
    """

    focal: np.ndarray  # (D, M) int
    which: np.ndarray  # (n, K) int
    a: np.ndarray  # (n, K), stored as 0.0 + lower: equal to a zero take plus lower
    cap: np.ndarray  # (n, K)
    residual: np.ndarray  # (n,): mass to distribute above the lower bounds
    sizes: np.ndarray  # (n,) int
    fill: bool
    # a search's kernel (``likelihood.Workspace``), allocated once for all
    # its rounds; None elsewhere, where each call makes its own
    work: Workspace | None = field(default=None, repr=False)

    @staticmethod
    def compile(observations: ObservationSet) -> MassTables:
        obs = observations.observations
        index = {h: i for i, h in enumerate(observations.frame.hypotheses)}
        k = max(len(o.entries) for o in obs)
        m = max(len(e.focal.members) for o in obs for e in o.entries)
        members = np.full((len(obs), k, m), len(index), dtype=np.intp)
        a, cap, residual = np.zeros((len(obs), k)), np.zeros((len(obs), k)), []
        for i, o in enumerate(obs):
            check_ibs(o)
            residual.append(max(1.0 - sum(o.lowers), 0.0))
            for j, e in enumerate(o.entries):
                members[i, j, : len(e.focal.members)] = [index[h] for h in e.focal.members]
                a[i, j], cap[i, j] = 0.0 + e.lower, e.upper - e.lower
        focal, which = np.unique(members.reshape(-1, m), axis=0, return_inverse=True)
        residual = np.array(residual)
        fill = bool(np.any((residual > 0) & np.any(cap > 0, axis=1)))
        sizes = np.array([len(o.entries) for o in obs])
        return MassTables(focal, which.reshape(len(obs), k), a, cap, residual, sizes, fill)

    @cached_property
    def orders(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The order table, ``(masses, offset)``, or None.

        The greedy fill's masses depend on the parameter only through the
        order of an observation's focal likelihoods. So ``masses`` (K,
        sum_o K_o!) holds, for each observation o and each order of its
        K_o = ``sizes[o]`` entries, the masses ``a + take`` of the fill in
        that order (padding entries 0), computed with the kernel's float
        operations: ``np.minimum(cap, residual)``, then ``residual -
        take``, then ``take + a``. Column ``offset[o] + code`` (``offset``
        is (n, 1, 1)) holds the order with code ``sum_{i<j} [key_j <
        key_i] * j!`` (key = c for the lower bound, -c for the upper; a tie
        goes to the lower entry index, as a stable sort breaks it), which
        numbers an observation's orders 0 .. K_o! - 1.

        None when ``fill`` is False, or when the table's ``8 * K * sum_o
        K_o!`` bytes exceed ``_BLOCK_BYTES``, which takes observations of
        7 or more focal elements, or over a hundred of 6; the kernel then
        sorts each row. Only a search reads it (``likelihood.with_workspace``),
        compiled when the first one starts, so one-off evaluations never pay
        for it.
        """
        counts = np.array([math.factorial(s) for s in self.sizes.tolist()])
        k = self.a.shape[1]
        if not self.fill or 8 * k * counts.sum() > _BLOCK_BYTES:
            return None
        offset = np.cumsum(counts) - counts
        table = np.zeros((counts.sum(), k))
        for s in np.unique(self.sizes).tolist():
            ranks = np.array(list(itertools.permutations(range(s))))  # (s!, s) rank vectors
            codes = sum(math.factorial(j) * (ranks[:, :j] > ranks[:, j:j + 1]).sum(axis=1)
                        for j in range(1, s))
            order = np.argsort(ranks, axis=1)  # the entry filled at each step
            rows = np.flatnonzero(self.sizes == s)
            caps = self.cap[rows][:, order]  # (rows, s!, s), in fill order
            take = np.empty_like(caps)
            left = np.broadcast_to(self.residual[rows, None], caps.shape[:2])
            for step in range(s):
                np.minimum(caps[..., step], left, out=take[..., step])
                left = left - take[..., step]
            mass = np.zeros((len(rows), len(ranks), k))
            np.put_along_axis(mass, np.broadcast_to(order, take.shape), take, axis=2)
            table[offset[rows, None] + codes] = mass + self.a[rows, None, :]
        return table.T.copy(), offset.reshape(-1, 1, 1)
