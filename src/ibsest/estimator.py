"""Estimation of interval probabilities from belief-structure observations.

The objective rewards interval-likelihood magnitude (distance of the
joint likelihood interval from [0, 0]) and penalizes parameter
ignorance. It is maximized by a deterministic multi-start coordinate
pattern search over the 2q bound variables, with a repair step that
keeps every evaluated parameter feasible. All restarts advance in
lockstep rounds, each round one batched evaluation (see
:func:`_pattern_search`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .belief import MassTables, ObservationSet, validate_ibs
from .intervalprob import IntervalProbabilities, check_alpha, ignorance
from .intervals import Interval, interval_distance
from .likelihood import block_rows, joint_likelihood, likelihood_bounds, sum_in_order

_ZERO = Interval(0.0, 0.0)
_MIN_STEP = 1e-6
_MIN_GAIN = 1e-8  # a sweep gaining no more than this halves the step
_INITIAL_STEP = 0.25


@dataclass(frozen=True)
class EstimatorConfig:
    alpha: float = 1.0
    restarts: int = 64
    max_iterations_per_start: int = 2000
    seed: int = 42
    workers: int = 1  # accepted and ignored: all restarts run in one process

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.restarts <= 0 or self.max_iterations_per_start <= 0:
            raise ValueError("restarts and iteration budget must be positive")


@dataclass(frozen=True)
class RestartDiagnostics:
    restart: int
    objective: float
    sweeps: int
    converged: bool


@dataclass(frozen=True)
class EstimationResult:
    theta: IntervalProbabilities
    objective: float
    joint_likelihood: Interval
    ignorance: float
    distance_term: float
    alpha: float
    seed: int
    restarts: tuple[RestartDiagnostics, ...] = field(repr=False)
    rounds: int  # batched objective evaluations of the search, the first included
    evaluations: int  # rows those evaluated
    replayed: int  # sweeps taken from another restart's identical sweep

    @property
    def converged(self) -> bool:
        """Whether the winning restart converged (best objective, first on ties)."""
        return max(self.restarts, key=lambda r: r.objective).converged


def objective(
    theta: IntervalProbabilities, observations: ObservationSet, alpha: float
) -> float:
    """Distance of the joint likelihood interval from [0,0], minus ignorance."""
    like = joint_likelihood(observations, theta)  # raises if theta is infeasible
    return interval_distance(like.value, _ZERO) - ignorance(theta, alpha)


def _repair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map raw (N, 2q) box vectors to feasible (lo, hi) bound arrays.

    Orders each pair, rescales lowers when they oversum, and raises
    uppers proportionally toward 1 when they undersum.
    """
    q = x.shape[1] // 2
    lo = np.clip(np.minimum(x[:, :q], x[:, q:]), 0.0, 1.0)
    hi = np.clip(np.maximum(x[:, :q], x[:, q:]), 0.0, 1.0)
    s_lo = sum_in_order(lo)
    lo = lo / np.where(s_lo > 1.0, s_lo, 1.0)[:, None]
    s_hi = sum_in_order(hi)
    short = s_hi < 1.0
    # q - s_hi > 0 wherever s_hi < 1: the room left toward 1
    scale = np.divide(1.0 - s_hi, q - s_hi, out=np.zeros_like(s_hi), where=short)
    hi = np.where(short[:, None], hi + scale[:, None] * (1.0 - hi), hi)
    return lo, hi


def _objective_batch(tables: MassTables, x: np.ndarray, alpha: float) -> np.ndarray:
    """Distance minus ignorance at each repaired row of the (N, 2q) batch.

    ``float_power`` rounds as Python's ``**`` does (numpy's ``power`` may
    not), which keeps the search paths of the scalar objective.
    """
    lo, hi = _repair(x)
    l_lo, l_hi = likelihood_bounds(tables, lo, hi)
    mid = (l_lo + l_hi) / 2.0
    hw = (l_hi - l_lo) / 2.0
    dist = np.sqrt(mid * mid + hw * hw / 3.0)
    ign = sum_in_order(np.float_power(hi - lo, alpha)) / lo.shape[1]
    return dist - ign


def _trial_offsets(q: int) -> np.ndarray:
    """One sweep's trials in polling order, as offsets in units of the step.

    Each move is polled at +step, then at -step. Singles adjust one
    bound; paired shifts move an interval rigidly; transfers move
    probability mass between two hypotheses while keeping both bound
    sums fixed. The latter two let point-valued intervals migrate without
    first widening, which the ignorance term would veto.
    """
    unit = np.eye(2 * q)
    shift = unit[:q] + unit[q:]
    transfers = [shift[i] - shift[j] for i in range(q) for j in range(i + 1, q)]
    return np.array([s * m for m in [*unit, *shift, *transfers] for s in (1.0, -1.0)])


def _pattern_search(tables: MassTables, x0: np.ndarray, alpha: float,
                    config: EstimatorConfig):
    """Opportunistic (accept-first) pattern search from each row of ``x0``.

    Per restart, a sweep polls the trials in order and moves to each one
    that improves the objective; a sweep gaining no more than
    ``_MIN_GAIN`` halves the step, until it falls below the minimum
    (converged) or the sweep budget is spent. The restarts run in rounds,
    each one batched evaluation of windows of trials. A restart whose
    last two sweeps accepted the same trials predicts that this sweep
    accepts them too, as long as its accepts so far are their prefix. Its
    round is the rest of its sweep, split after each predicted accept
    still ahead: the first window polls from its current point, each
    later one from the point the predicted accept before it reaches, and
    the last runs to the end of the sweep. A restart that predicts
    nothing has one window, and these windows together fill one kernel
    block (see :func:`likelihood.block_rows`), which bounds the rows
    polled past first improving trials. The windows are resolved in
    order: each takes its first improving trial, the one a lone restart
    would take; the first window where that trial is not the predicted
    accept is the restart's last this round, and a window without one
    moves the restart to its end at the same point. So the windows only
    save rounds, and every restart's path is the one it polls alone.

    A sweep's outcome depends only on its start point and step, so the
    first restart to start a sweep at a (point, step) pair polls it and
    records where it ended; a restart that starts the same sweep later
    replays that outcome without evaluating anything, and one that starts
    it while the first is still polling waits for the outcome.

    Returns the final points, values, sweeps and converged flags, the
    number of batched evaluations, the number of rows evaluated and the
    number of sweeps replayed.
    """
    offsets = _trial_offsets(x0.shape[1] // 2)
    n_trials = len(offsets)
    block = block_rows(tables)
    index = np.arange(n_trials)
    x = x0.copy()
    f = _objective_batch(tables, x, alpha)
    rounds, evaluations, replayed = 1, len(x), 0
    # (start point, step) -> the packed outcome (end point, f, gain,
    # accepted-trial flags), or None while the restart in ``polling``
    # that owns the sweep polls it; one bytes value per entry
    memo, polling = {}, {}
    step = np.full(len(x), _INITIAL_STEP)
    sweeps = np.ones(len(x), dtype=int)
    gain = np.zeros(len(x))
    pos = np.zeros(len(x), dtype=int)  # next trial of the current sweep
    converged = np.zeros(len(x), dtype=bool)
    running = np.ones(len(x), dtype=bool)
    accepted = np.zeros((len(x), n_trials), dtype=bool)  # in the current sweep
    last = np.zeros_like(accepted)  # in the last completed sweep
    cycling = np.zeros(len(x), dtype=bool)  # the last two sweeps accepted alike
    while running.any():
        run = np.flatnonzero(running)
        polls = running.copy()
        for r in run[pos[run] == 0].tolist():
            key = x[r].tobytes() + step[r].tobytes()
            if key not in memo:
                memo[key], polling[r] = None, key
                continue
            polls[r] = False
            if memo[key] is not None:
                outcome = np.frombuffer(memo[key], count=x.shape[1] + 2)
                x[r], f[r], gain[r] = outcome[:-2], outcome[-2], outcome[-1]
                accepted[r] = np.frombuffer(memo[key], dtype=bool, offset=outcome.nbytes)
                pos[r] = n_trials
                replayed += 1
        poll = np.flatnonzero(polls)
        if poll.size:
            # a prediction holds while this sweep's accepts are its prefix
            done = index < pos[poll, None]
            holds = cycling[poll] & (accepted[poll] == (last[poll] & done)).all(axis=1)
            # the predicted accepts still ahead, restart by restart, in sweep order
            rows, cols = np.nonzero(last[poll] & ~done & holds[:, None])
            n_win = np.bincount(rows, minlength=len(poll)) + 1
            # ceil: the windows of restarts without a prediction fill a block
            width = -(-block // max(np.count_nonzero(n_win == 1), 1))
            # each restart's windows in sweep order, split after each predicted
            # accept; a split sweep's last window runs to its end
            owner = np.repeat(poll, n_win)
            later = np.arange(len(rows)) + rows + 1  # the window after each split
            cut = cols + 1
            start = pos[owner]
            start[later] = cut
            stop = np.minimum(start + width, n_trials)
            stop[later] = n_trials
            stop[later - 1] = cut
            # a later window polls from the point its predicted accept reaches
            base = x[owner]
            move = step[owner[later], None] * offsets[cols]
            for _ in range(n_win.max() - 1):  # each pass fixes one more level
                base[later] = np.clip(base[later - 1] + move, 0.0, 1.0)
            trials = np.clip(base[:, None, :] + step[owner, None, None] * offsets, 0.0, 1.0)
            # a trial clipped back onto its base point is skipped, not polled
            todo = ((index >= start[:, None]) & (index < stop[:, None])
                    & (trials != base[:, None, :]).any(axis=2))
            values = np.full(todo.shape, -np.inf)
            if todo.any():
                values[todo] = _objective_batch(tables, trials[todo], alpha)
                rounds += 1
                evaluations += int(todo.sum())
            ref = f[owner]  # the value each window starts from
            ref[later] = values[later - 1, cols]  # what its predicted accept reached
            better = values > ref[:, None]
            hit = better.any(axis=1)
            took = better.argmax(axis=1)
            # a restart's last window this round: its first whose first
            # improving trial is not the predicted one, or its final window
            ends = np.cumsum(n_win)
            broke = ~hit | (took + 1 < stop)
            broke[ends - 1] = True
            w = np.flatnonzero(broke)
            w = w[np.searchsorted(w, ends - n_win)]  # one per restart, in poll order
            acc = np.flatnonzero(hit & (np.arange(len(owner)) <= np.repeat(w, n_win)))
            r, t = owner[acc], took[acc]
            np.add.at(gain, r, values[acc, t] - ref[acc])  # in accept order
            accepted[r, t] = True
            moved, t = hit[w], took[w]
            x[poll] = np.where(moved[:, None], trials[w, t], base[w])
            f[poll] = np.where(moved, values[w, t], ref[w])
            pos[poll] = np.where(moved, t + 1, stop[w])

        ended = run[pos[run] == n_trials]
        for r in ended.tolist():
            if r in polling:
                memo[polling.pop(r)] = (x[r].tobytes() + f[r].tobytes()
                                        + gain[r].tobytes() + accepted[r].tobytes())
        cycling[ended] = ((accepted[ended] == last[ended]).all(axis=1)
                          & accepted[ended].any(axis=1))
        last[ended] = accepted[ended]
        accepted[ended] = False
        flat = ended[gain[ended] <= _MIN_GAIN]
        step[flat] /= 2.0
        converged[flat[step[flat] < _MIN_STEP]] = True
        running[ended[converged[ended]]] = False
        running[ended[sweeps[ended] >= config.max_iterations_per_start]] = False
        again = ended[running[ended]]
        sweeps[again] += 1
        gain[again] = 0.0
        pos[again] = 0
    return x, f, sweeps, converged, rounds, evaluations, replayed


def _initial_point(restart: int, q: int, seed: int) -> list:
    if restart == 0:
        # uniform point distribution
        return [1.0 / q] * (2 * q)
    if restart == 1:
        # vacuous: every interval [0, 1]
        return [0.0] * q + [1.0] * q
    rng = np.random.default_rng((seed, restart))
    return list(rng.random(2 * q))


def estimate(
    observations: ObservationSet, config: EstimatorConfig = EstimatorConfig()
) -> EstimationResult:
    """Multi-start search for the maximizing interval probabilities.

    Deterministic given the config seed; the best restart wins, ties
    broken by lowest restart index. A restart's search does not depend
    on the number of restarts.
    """
    for obs in observations.observations:
        report = validate_ibs(obs)
        if not report.ok:
            raise ValueError(
                f"invalid observation {obs.label!r}: {'; '.join(report.violations)}"
            )
    q = observations.frame.size
    x0 = np.array([_initial_point(r, q, config.seed) for r in range(config.restarts)])
    x, f, sweeps, converged, rounds, evaluations, replayed = _pattern_search(
        observations.tables, x0, config.alpha, config
    )

    best = int(np.argmax(f))  # max objective, first index wins ties
    lo, hi = _repair(x[best : best + 1])
    theta = IntervalProbabilities(
        observations.frame,
        tuple(float(v) for v in lo[0]),
        tuple(float(v) for v in hi[0]),
    )
    like = joint_likelihood(observations, theta)
    dist = interval_distance(like.value, _ZERO)
    ign = ignorance(theta, config.alpha)
    diagnostics = tuple(
        RestartDiagnostics(restart=r, objective=float(f[r]), sweeps=int(sweeps[r]),
                           converged=bool(converged[r]))
        for r in range(config.restarts)
    )
    return EstimationResult(
        theta=theta,
        objective=dist - ign,
        joint_likelihood=like.value,
        ignorance=ign,
        distance_term=dist,
        alpha=config.alpha,
        seed=config.seed,
        restarts=diagnostics,
        rounds=rounds,
        evaluations=evaluations,
        replayed=replayed,
    )


def alpha_sweep(
    observations: ObservationSet,
    alphas: list[float],
    config: EstimatorConfig = EstimatorConfig(),
) -> list[EstimationResult]:
    """Run the estimator once per alpha, with per-alpha derived seeds."""
    if not alphas:
        raise ValueError("alphas must be non-empty")
    return [
        estimate(observations, replace(config, alpha=alpha, seed=config.seed + 1009 * i))
        for i, alpha in enumerate(alphas)
    ]
