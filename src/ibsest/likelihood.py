"""Interval likelihoods for belief-structure observations.

Singleton and subset likelihoods are closed-form interval reads of the
parameter; a whole interval-valued observation requires the inner
min/max program over its mass box, solved here by endpoint selection
plus a greedy fill (exact for this LP class) and cross-checked by a
vertex-enumeration brute force.
The joint likelihood is computed by one batched kernel, a
:class:`Workspace` (see :func:`likelihood_bounds`), which repeats the
scalar path's floating-point operations in order with the rows on the
last axis, so its bounds equal the scalar ones bit for bit. A search
keeps one workspace for all its rounds; a one-off call makes its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .belief import (
    _BLOCK_BYTES,
    SUM_TOL,
    FocalElement,
    Frame,
    IntervalBeliefStructure,
    MassTables,
    ObservationSet,
    check_ibs,
)
from .intervalprob import IntervalProbabilities, check_feasible
from .intervals import Interval

@dataclass(frozen=True)
class LikelihoodInterval:
    value: Interval
    source: str = ""


@dataclass(frozen=True)
class InnerProgramSolution:
    """Certificate for one bound of the inner program.

    mass_assignment is the optimal point in the mass box (sums to 1);
    likelihood_choice is the per-focal-element likelihood endpoint used.
    """

    bound: str  # "lower" | "upper"
    objective_value: float
    mass_assignment: tuple[float, ...]
    likelihood_choice: tuple[float, ...]


def singleton_likelihood(
    h: int, theta: IntervalProbabilities
) -> LikelihoodInterval:
    """Likelihood of observing hypothesis h: the parameter interval verbatim."""
    if not 0 <= h < theta.frame.size:
        raise IndexError(f"hypothesis index {h} out of range")
    return LikelihoodInterval(theta.interval(h), source=f"singleton:{h}")


def _focal_bounds(idx, lo, hi):
    """Subset-likelihood bounds of the focal element with member indices ``idx``.

    Sums the members' bounds in the order of ``idx``, as the kernel
    gathers them, so both paths round alike.
    """
    in_lo = sum(lo[i] for i in idx)
    in_hi = sum(hi[i] for i in idx)
    c_lo = max(in_lo, 1.0 - (sum(hi) - in_hi))
    c_hi = min(in_hi, 1.0 - (sum(lo) - in_lo))
    return min(max(c_lo, 0.0), 1.0), min(max(c_hi, 0.0), 1.0)


def subset_likelihood(
    f: FocalElement, theta: IntervalProbabilities
) -> LikelihoodInterval:
    """Likelihood of observing the event f (a subset of the frame).

    Lower bound: max(sum of member lowers, 1 - sum of non-member uppers);
    upper bound symmetrically. Tight over the credal set of theta.
    """
    check_feasible(theta)
    lo, hi = _focal_bounds(f.indices(theta.frame), theta.lowers, theta.uppers)
    return LikelihoodInterval(Interval(lo, hi), source=f"subset:{f}")


def _greedy_mass_value(a, b, c, maximize):
    """Optimize sum(m * c) over {a <= m <= b, sum(m) = 1}.

    Start at the lower bounds and pour the residual into coordinates in
    cost order (ascending for min, descending for max), saturating each
    at its upper bound. Ties break by ascending focal-element index.
    Returns (value, m).
    """
    residual = max(1.0 - sum(a), 0.0)
    m = list(a)
    n = len(a)
    if maximize:
        order = sorted(range(n), key=lambda i: (-c[i], i))
    else:
        order = sorted(range(n), key=lambda i: (c[i], i))
    for i in order:
        take = min(b[i] - a[i], residual)
        if take > 0:
            m[i] += take
            residual -= take
        if residual <= 0:
            break
    return sum(m[i] * c[i] for i in range(n)), m


def _check_theta(theta: IntervalProbabilities, frame: Frame) -> None:
    """``check_feasible``, after checking that theta is over ``frame``: the
    likelihoods read theta's bounds by position in the observations' frame."""
    if theta.frame != frame:
        raise ValueError(f"theta's frame ({', '.join(theta.frame.hypotheses)}) is not "
                         f"the observations' frame ({', '.join(frame.hypotheses)})")
    check_feasible(theta)


def _obs_arrays(obs: IntervalBeliefStructure, theta: IntervalProbabilities):
    """Per-focal subset-likelihood bounds plus the mass box, both checked."""
    check_ibs(obs)
    _check_theta(theta, obs.frame)
    lo, hi = theta.lowers, theta.uppers
    bounds = [_focal_bounds(e.focal.indices(obs.frame), lo, hi) for e in obs.entries]
    c_lo, c_hi = (list(c) for c in zip(*bounds))
    return list(obs.lowers), list(obs.uppers), c_lo, c_hi


def ibs_likelihood(
    obs: IntervalBeliefStructure, theta: IntervalProbabilities
) -> tuple[LikelihoodInterval, InnerProgramSolution, InnerProgramSolution]:
    """Likelihood interval of an interval-valued observation.

    The inner program is bilinear in (mass, likelihood choice) but each
    mass is non-negative, so the optimal likelihood choice is the lower
    endpoint for the min and the upper endpoint for the max; the
    remaining LP over the mass box is solved greedily.
    """
    a, b, c_lo, c_hi = _obs_arrays(obs, theta)
    v_lo, m_lo = _greedy_mass_value(a, b, c_lo, maximize=False)
    v_hi, m_hi = _greedy_mass_value(a, b, c_hi, maximize=True)
    lower = InnerProgramSolution("lower", v_lo, tuple(m_lo), tuple(c_lo))
    upper = InnerProgramSolution("upper", v_hi, tuple(m_hi), tuple(c_hi))
    like = LikelihoodInterval(_bounds_interval(v_lo, v_hi), source=f"ibs:{obs.label}")
    return like, lower, upper


def _bounds_interval(v_lo: float, v_hi: float) -> Interval:
    """The inner program's bounds clamped to [0, 1].

    Bounds of a degenerate interval, which cross in rounding only, meet
    at their midpoint.
    """
    lo = min(max(v_lo, 0.0), 1.0)
    hi = min(max(v_hi, 0.0), 1.0)
    if lo > hi:
        if lo - hi > SUM_TOL:
            raise AssertionError(f"inner program bounds crossed: {lo} > {hi}")
        lo = hi = (lo + hi) / 2.0
    return Interval(lo, hi)


def _mass_vertices(a, b):
    """Vertices of {a <= m <= b, sum(m) = 1}: at most one free coordinate.

    The free coordinate is admitted within ``SUM_TOL`` of its bounds and
    clamped, so every box ``validate_ibs`` accepts has a vertex.
    """
    n = len(a)
    seen = set()
    for free in range(n):
        others = [i for i in range(n) if i != free]
        for bits in itertools.product((0, 1), repeat=n - 1):
            m = np.empty(n)
            for i, bit in zip(others, bits):
                m[i] = b[i] if bit else a[i]
            rest = 1.0 - m[others].sum() if others else 1.0
            if a[free] - SUM_TOL <= rest <= b[free] + SUM_TOL:
                m[free] = min(max(rest, a[free]), b[free])
                key = tuple(np.round(m, 12))
                if key not in seen:
                    seen.add(key)
                    yield m


def ibs_likelihood_bruteforce(
    obs: IntervalBeliefStructure,
    theta: IntervalProbabilities,
    grid_depth: int = 3,
) -> LikelihoodInterval:
    """Independent oracle for the inner program.

    Enumerates every vertex of the mass polytope against both extreme
    likelihood choices and returns the best bounds found. Exact, because
    the objective is linear in the masses once the likelihood endpoints
    are fixed, so its optimum is at a vertex. ``grid_depth`` is accepted
    and ignored: the grid it refined added no exactness.
    """
    if len(obs.entries) > 5:
        raise ValueError("brute force limited to 5 focal elements")
    a, b, c_lo, c_hi = (np.asarray(v) for v in _obs_arrays(obs, theta))
    best_lo = np.inf
    best_hi = -np.inf
    for m in _mass_vertices(a, b):
        best_lo = min(best_lo, float(m @ c_lo))
        best_hi = max(best_hi, float(m @ c_hi))
    return LikelihoodInterval(
        _bounds_interval(best_lo, best_hi), source=f"ibs-bruteforce:{obs.label}"
    )


def sum_in_order(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, left to right, as the builtin ``sum``.

    (numpy's ``sum`` adds pairwise; ``cumsum`` is slow on short axes.)
    """
    total = x[..., 0]
    for j in range(1, x.shape[-1]):
        total = total + x[..., j]
    return total


def block_rows(tables: MassTables) -> int:
    """Rows of one kernel block: as many as fit ``_BLOCK_BYTES`` at 16 bytes
    a row for each of n * K * (M + 8) slots (n observations of at most K
    focal elements of at most M members): a member gather as if each entry
    had its own focal set, and eight (n, K) arrays per bound. A search
    sizes its rounds by the same count.
    """
    n_obs, k_max = tables.which.shape
    m_max = tables.focal.shape[1]
    return max(1, _BLOCK_BYTES // (16 * n_obs * k_max * (m_max + 8)))


def likelihood_bounds(
    tables: MassTables, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Joint likelihood bounds at each row of the (N, q) bound arrays.

    Rows are independent, so the batch is evaluated in blocks of rows
    within ``_BLOCK_BYTES``: in the search's :class:`Workspace` if
    ``tables`` carry one (``MassTables.work``), else in one of this call's
    own, which sorts each row's fill order. So one-off calls stay
    reentrant and never compile the order table.
    """
    work = tables.work
    if work is None:
        work = Workspace(tables, lo.shape[1], max(1, min(len(lo), block_rows(tables))))
    rows = work.rows
    out = np.empty((2, len(lo)))
    for i in range(0, len(lo), rows):
        out[:, i : i + rows] = _block_bounds(work, lo[i : i + rows], hi[i : i + rows])
    return out[0], out[1]


def _block_bounds(work: Workspace, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:func:`likelihood_bounds` of one block of rows: its (2, N) bounds."""
    return work.bounds(lo, hi)


def _sum_rows(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum over the first axis, in index order, into ``out`` (which may be ``x[0]``)."""
    if len(x) == 1:
        np.copyto(out, x[0])
    for j in range(1, len(x)):
        np.add(x[0] if j == 1 else out, x[j], out=out)
    return out


class Workspace:
    """The likelihood kernel: the tables laid out rows-last, and its working arrays.

    Evaluates blocks of up to ``rows`` rows to the scalar path's bounds,
    bit for bit, in a numpy operation count that does not grow with the
    number of observations. Every array holds the block's N rows on its
    last axis: theta (q + 1, 2, N), the subset bounds (D, 2, N), the entry
    costs (K, n, 2, N). The greedy masses are the lower bounds where no box
    has mass to place (``MassTables.fill``); else they come from the order
    table ``orders`` (``MassTables.orders``) by each row's order code, in
    K(K - 1)/2 comparisons and one gather; else from a stable argsort of
    each row's keys, a K-step fill and a scatter back. The arrays are views
    into one buffer: a search makes one workspace when it starts
    (:func:`with_workspace`) and passes it down in its tables
    (``MassTables.work``), so no round allocates a kernel array outside the
    argsort fill; a one-off call makes its own.
    """

    def __init__(self, tables: MassTables, q: int, rows: int, orders=None):
        n, k = tables.which.shape
        d, m = tables.focal.shape
        self.rows = rows
        self.focal = tables.focal.T.copy()  # (M, D)
        self.which = tables.which.T.copy()  # (K, n)
        # as ``which``, with the padding entries at row D, whose keys are +inf
        self.keyed = np.where(np.arange(k) < tables.sizes[:, None], tables.which, d).T.copy()
        self.a = tables.a.T[:, :, None, None].copy()
        # the argsort fill's caps and residuals
        self.cap = tables.cap.T[:, :, None, None]
        self.residual = tables.residual[:, None, None]
        self.fill = tables.fill
        self.masses, self.offset = orders or (None, None)
        shapes = dict(theta=((q + 1, 2), float), sums=((2,), float),
                      members=((m, d, 2), float), costs=((d + 1, 2), float),
                      entries=((k, n, 2), float), crossed=((n,), bool), mid=((n,), float),
                      bounds=((2,), float))
        if self.fill:  # the masses are written over the keys once these are ranked
            shapes.update(keys=((k, n, 2), float))
        if self.masses is not None:
            shapes.update(less=((k - 1, n, 2), bool), beaten=((n, 2), np.uint8),
                          count=((n, 2), np.min_scalar_type(math.factorial(k))),
                          code=((n, 2), np.intp))
        self._layout, size = [], 0
        for name, (lead, dtype) in shapes.items():
            dtype = np.dtype(dtype)
            self._layout.append((name, lead, dtype, size))
            size += -(-math.prod(lead) * self.rows * dtype.itemsize // 64) * 64
        self._buffer = np.empty(size, dtype=np.uint8)
        self._views = (0, None)

    def _arrays(self, n_rows: int) -> SimpleNamespace:
        """Views of the working arrays for a block of ``n_rows`` rows."""
        if self._views[0] != n_rows:
            self._views = (n_rows, SimpleNamespace(**{
                name: np.ndarray(lead + (n_rows,), dtype, self._buffer, offset)
                for name, lead, dtype, offset in self._layout}))
        return self._views[1]

    def bounds(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The (2, N) bounds of one block of (N, q) rows, N <= ``rows``; a
        view that the next block overwrites."""
        n_rows, q = lo.shape
        w = self._arrays(n_rows)
        theta = w.theta  # (q + 1, 2, N); row q is the padding zero
        theta[:q, 0] = lo.T
        theta[:q, 1] = hi.T
        theta[q] = 0.0
        s_lo, s_hi = _sum_rows(theta[:q], w.sums)
        # the indices are in range; a mode other than "raise" writes out unbuffered
        members = theta.take(self.focal, axis=0, out=w.members, mode="clip")
        inner = _sum_rows(members, members[0])  # (D, 2, N) subset sums
        d = inner.shape[0]
        costs = w.costs[:d]  # (D, 2, N), as in _focal_bounds
        c_lo, c_hi = costs[:, 0], costs[:, 1]
        np.subtract(s_hi, inner[:, 1], out=c_lo)
        np.subtract(1.0, c_lo, out=c_lo)
        np.maximum(inner[:, 0], c_lo, out=c_lo)
        np.subtract(s_lo, inner[:, 0], out=c_hi)
        np.subtract(1.0, c_hi, out=c_hi)
        np.minimum(inner[:, 1], c_hi, out=c_hi)
        np.maximum(costs, 0.0, out=costs)
        np.minimum(costs, 1.0, out=costs)
        c = w.costs.take(self.which, axis=0, out=w.entries, mode="clip")  # (K, n, 2, N)

        if not self.fill:  # no box has mass to place, so every take is 0
            c *= self.a  # the terms mass * c, with mass = a
        else:
            # Greedy fill: ascending cost for the lower bound, descending for
            # the upper, ties by focal-element index; padding entries last.
            np.negative(c_hi, out=c_hi)
            w.costs[d] = np.inf
            keys = w.costs.take(self.keyed, axis=0, out=w.keys, mode="clip")
            c *= self._sorted_masses(keys) if self.masses is None else self._table_masses(keys, w)
        v = _sum_rows(c, c[0])  # (n, 2, N)
        np.maximum(v, 0.0, out=v)
        np.minimum(v, 1.0, out=v)

        v_lo, v_hi = v[:, 0], v[:, 1]
        crossed = np.greater(v_lo, v_hi, out=w.crossed)
        if crossed.any():  # as in _bounds_interval
            mid = np.add(v_lo, v_hi, out=w.mid)
            mid /= 2.0
            np.copyto(v_lo, mid, where=crossed)
            np.copyto(v_hi, mid, where=crossed)
        # the product over observations, in order
        return np.multiply.reduce(v, axis=0, out=w.bounds)

    def _table_masses(self, keys: np.ndarray, w: SimpleNamespace) -> np.ndarray:
        """The greedy masses, (K, n, 2, N), looked up in the order table by
        the order code of each row's (K, n, 2, N) keys, written over them.

        The code, sum_j j! * R_j with R_j = sum_{i<j} [key_j < key_i], is
        accumulated by Horner's rule in the smallest unsigned type that
        holds K! (one byte up to K = 5), where the comparisons, viewed as
        bytes, add without a cast.
        """
        less, count = w.less.view(np.uint8), w.count
        count.fill(0)  # Horner's rule starts at 0, the one code of a single entry
        for j in range(len(keys) - 1, 0, -1):
            np.less(keys[j], keys[:j], out=w.less[:j])
            r = less[0] if j == 1 else np.add.reduce(less[:j], axis=0, out=w.beaten)
            count *= j + 1
            count += r
        code = np.add(self.offset, count, out=w.code)
        return self.masses.take(code, axis=1, out=keys, mode="clip")

    def _sorted_masses(self, keys: np.ndarray) -> np.ndarray:
        """The greedy masses, (K, n, 2, N), by a stable argsort of each row's
        keys, a K-step fill and a scatter back over the keys, on arrays
        allocated for the block. The float operations are the order table's: ``np.minimum(cap,
        residual)``, then ``residual - take``, then ``take + a``.
        """
        order = np.argsort(keys, axis=0, kind="stable")  # the entry filled at each step
        taken = np.take_along_axis(self.cap, order, axis=0)  # caps in fill order
        residual = self.residual
        for take in taken:  # caps and residuals are >= 0, so takes are too
            np.minimum(take, residual, out=take)
            residual = residual - take
        np.put_along_axis(keys, order, taken, axis=0)
        keys += self.a
        return keys


def with_workspace(tables: MassTables, q: int) -> MassTables:
    """``tables`` carrying a search's :class:`Workspace` over q hypotheses."""
    return replace(tables, work=Workspace(tables, q, block_rows(tables), tables.orders))


def joint_likelihood(
    observations: ObservationSet, theta: IntervalProbabilities
) -> LikelihoodInterval:
    """Product, in observation order, of the per-observation likelihoods."""
    _check_theta(theta, observations.frame)
    row = np.array([theta.lowers]), np.array([theta.uppers])
    lo, hi = likelihood_bounds(observations.tables, *row)
    return LikelihoodInterval(Interval(float(lo[0]), float(hi[0])), source="joint")
