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

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .belief import MassTables, ObservationSet
from .intervalprob import IntervalProbabilities, check_alpha, ignorance
from .intervals import Interval, interval_distance
from .likelihood import (block_rows, joint_likelihood, likelihood_bounds,
                         sum_in_order, with_workspace)

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
        for name in ("restarts", "max_iterations_per_start", "seed"):
            value = getattr(self, name)
            # numpy integers pass; bool is an Integral but no count or seed
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.restarts <= 0 or self.max_iterations_per_start <= 0:
            raise ValueError("restarts and iteration budget must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


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
    replayed: int  # sweeps taken whole from the sweep memo, a restart's own chain's too
    predicted: int  # sweeps that ended, polled or replayed, with a predicted accept set
    held: int  # predicted sweeps whose accepts were the predicted set

    @property
    def converged(self) -> bool:
        """Whether the winning restart converged (best objective, first on ties)."""
        return max(self.restarts, key=lambda r: r.objective).converged


def objective(
    theta: IntervalProbabilities, observations: ObservationSet, alpha: float
) -> float:
    """Distance of the joint likelihood interval from [0,0], minus ignorance."""
    # raises if theta is infeasible or over another frame
    like = joint_likelihood(observations, theta)
    return interval_distance(like.value, _ZERO) - ignorance(theta, alpha)


def _repair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map raw (N, 2q) box vectors to feasible (lo, hi) bound arrays.

    Orders each pair, rescales lowers when they oversum, and raises
    uppers proportionally toward 1 when they undersum. Works on the
    transposed batch, so each hypothesis is one contiguous row of N; the
    (N, q) results are views of those (q, N) rows.
    """
    q = x.shape[1] // 2
    xt = x.T.copy().clip(0.0, 1.0)
    lo = np.minimum(xt[:q], xt[q:])
    hi = np.maximum(xt[:q], xt[q:], out=xt[q:])
    s_lo = sum_in_order(lo.T)
    np.divide(lo, s_lo, out=lo, where=s_lo > 1.0)
    s_hi = sum_in_order(hi.T)
    short = s_hi < 1.0
    # q - s_hi > 0 wherever s_hi < 1: the room left toward 1
    scale = np.divide(1.0 - s_hi, q - s_hi, out=1.0 - s_hi, where=short)
    np.add(hi, scale * (1.0 - hi), out=hi, where=short)
    return lo.T, hi.T


def _objective_batch(tables: MassTables, x: np.ndarray, alpha: float) -> np.ndarray:
    """Distance minus ignorance at each repaired row of the (N, 2q) batch.

    ``float_power`` rounds as Python's ``**`` does (numpy's ``power`` may
    not), which keeps the search paths of the scalar objective.
    """
    lo, hi = _repair(x)
    l_lo, l_hi = likelihood_bounds(tables, lo, hi)
    width = hi - lo
    ign = sum_in_order(np.float_power(width, alpha, out=width))
    mid = (l_lo + l_hi) / 2.0
    hw = (l_hi - l_lo) / 2.0
    return np.sqrt(mid * mid + hw * hw / 3.0) - ign / lo.shape[1]


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
    each one batched evaluation of a flat list of trials, about one kernel
    block split into one share per polling restart. A restart predicts that
    a sweep accepts its stable set (the last non-empty set two sweeps in a
    row accepted; a halved step clears it): each trial is polled from the
    point the predicted accepts before it reach, and must beat the value
    they reached. A predicting restart polls to its sweep's end, then the
    next sweeps from the predicted end point, as many as its share reaches
    past that end and its budget holds, up to a sweep the memo holds or the
    round plans; any other polls the next share of its sweep. A sweep
    leaves off at its first surprise: an improving trial that was not
    predicted (taken, as a lone restart would) or a predicted accept that
    does not improve (skipped). A restart takes only the sweep it is in. So
    predictions save rounds: each path is the one polled alone. Most rounds
    predict nothing: each trial polls from its restart's point and value.

    A sweep's outcome depends only on its start point and step. A memo
    keyed by that pair records each sweep a restart ends, and each later
    sweep a chain polled, whole or as far as it got. A restart that starts
    a sweep recorded whole replays it, evaluating nothing, and goes on to
    the next; one that starts a sweep left part-way takes it over and polls
    on; one that starts a sweep another restart polls waits under the key
    for the record. The key alone decides what a restart takes. One routine
    closes the sweeps that end, polled or replayed, one restart at a time.

    Returns the final points, values, sweeps and converged flags, and the
    counters of :class:`EstimationResult`.
    """
    offsets = _trial_offsets(x0.shape[1] // 2)
    n_trials, budget = len(offsets), config.max_iterations_per_start
    block = block_rows(tables)
    # every round evaluates in one set of kernel arrays
    tables = with_workspace(tables, x0.shape[1] // 2)
    x = x0.copy()
    f = _objective_batch(tables, x, alpha)
    rounds, evaluations, replayed, predicted, held = 1, len(x), 0, 0, 0
    # (start point, step) -> the packed state the sweep reached (point, f, gain,
    # next trial, accepted flags), or None while its owner in ``polling`` polls it;
    # ``waiting`` holds, per such key, the restarts that wait for it, in restart order
    memo, polling, waiting = {}, {}, {}
    step = np.full(len(x), _INITIAL_STEP)
    sweeps = np.ones(len(x), dtype=int)
    gain = np.zeros(len(x))
    pos = np.zeros(len(x), dtype=int)  # next trial of the current sweep, n_trials once stopped
    accepted = np.zeros((len(x), n_trials), dtype=bool)  # in the current sweep
    stable = np.zeros_like(accepted)  # the predicted set
    nothing = bytes(n_trials)
    last = [nothing] * len(x)  # the accepted flags of the last completed sweep, as bytes

    def take(r, packed):  # restart r takes the state a memo entry packs
        saved = np.frombuffer(packed, count=x.shape[1] + 3)
        x[r], f[r], gain[r], pos[r] = saved[:-3], saved[-3], saved[-2], saved[-1]
        accepted[r] = np.frombuffer(packed, dtype=bool, offset=saved.nbytes)

    def end_sweeps(ended):
        """Close the sweeps of ``ended``, restart by restart; return who starts another."""
        nonlocal predicted, held
        again = []
        for r in ended:
            done, guess = accepted[r].tobytes(), stable[r].tobytes()
            predicted += guess != nothing
            held += done == guess != nothing
            if done == last[r] != nothing:
                stable[r] = accepted[r]
            last[r] = done
            accepted[r] = False
            if gain[r] <= _MIN_GAIN:
                step[r] /= 2.0
                stable[r] = False
            if step[r] >= _MIN_STEP and sweeps[r] < budget:
                sweeps[r] += 1
                gain[r], pos[r] = 0.0, 0
                again.append(r)
        return again

    starting, replays = list(range(len(x))), []  # replays: sweeps taken whole, to close
    while True:
        while starting or replays:  # replay recorded sweeps until one is not recorded
            for r in starting:  # in restart order: the first to start a sweep owns it
                key = x[r].tobytes() + step[r].tobytes()
                packed = memo.get(key, b"")
                if packed is None:  # being polled: wait for the record
                    waiting.setdefault(key, []).append(r)
                    continue
                if packed:  # recorded, whole or left part-way
                    take(r, packed)
                if pos[r] < n_trials:  # r owns the sweep, polls from pos
                    memo[key], polling[r] = None, key
                else:
                    replays.append(r)
            replayed += len(replays)
            starting, replays = sorted(end_sweeps(replays)), []
        if not polling:
            break
        poll = np.array(sorted(polling), dtype=int)  # the owners poll; the rest wait
        # each polling restart's share of a kernel block (ceil); a predicting one
        # polls to its sweep's end, then the next sweeps its share and budget hold
        share = -(-block // len(poll))
        start = pos[poll]
        predicting = np.logical_or.reduce(stable[poll], axis=1)
        stop = np.where(predicting, n_trials, np.minimum(start + share, n_trials))
        more = np.minimum(np.maximum((start + share) // n_trials - 1, 0) * predicting,
                          budget - sweeps[poll])
        # a segment per sweep, restart by restart: [start, stop), then whole sweeps;
        # the round's trials are the segments' trials in order, segment s holding
        # trials edge[s]:edge[s + 1]
        seg = poll.repeat(more + 1)
        head = (more + 1).cumsum() - more - 1
        first, span = np.zeros(len(seg), dtype=int), np.full(len(seg), n_trials)
        first[head], span[head] = start, stop - start
        edge = np.concatenate(([0], span.cumsum()))
        sid = np.arange(len(seg)).repeat(span)  # each trial's segment
        t = np.arange(edge[-1]) - (edge[:-1] - first).repeat(span)  # its trial index
        who = seg[sid]  # its restart
        guess = stable[who, t]  # whether it is a predicted accept
        g = guess.nonzero()[0]
        base = x[who]  # with nothing predicted, each trial polls from its restart's point
        if g.size:
            # a trial polls from the point the predicted accepts before it in its
            # restart's chain reach: ``reach[depth]``, the first ``depth`` of them
            depth = guess.cumsum() - guess
            depth -= depth[edge[head]].repeat(np.add.reduceat(span, head))
            reach = x[None].repeat((depth + guess).max() + 1, axis=0)
            reach[depth[g] + 1, who[g]] = step[who[g], None] * offsets[t[g]]
            for d in range(1, len(reach)):
                np.add(reach[d - 1], reach[d], out=reach[d]).clip(0.0, 1.0, out=reach[d])
            base = reach[depth, who]
        trials = (base + step[who, None] * offsets[t]).clip(0.0, 1.0)
        # a trial clipped back onto its base point is skipped, not polled
        todo = np.logical_or.reduce(trials != base, axis=1)
        # a chain stops before a sweep in the memo (recorded or being polled) or planned
        chained = {}  # start key -> segment of each later sweep a chain polls
        for i in more.nonzero()[0].tolist():
            for s in range(head[i] + 1, head[i] + more[i] + 1):
                key = base[edge[s]].tobytes() + step[poll[i]].tobytes()
                if key in memo or key in chained:
                    todo[edge[s]:edge[head[i] + more[i] + 1]] = False  # polls nothing
                    break
                chained[key] = s
        values = np.full(len(t), -np.inf)
        if todo.any():
            values[todo] = _objective_batch(tables, trials[todo], alpha)
            rounds += 1
            evaluations += int(todo.sum())
        ref = f[who]  # the value each trial must beat, with nothing predicted
        if g.size:
            # what the predicted accepts before it reached, where a skipped accept
            # keeps the value of its base point
            ref = f[None].repeat(len(reach), axis=0)
            ref[depth[g] + 1, who[g]] = values[g]
            skipped = ref == -np.inf
            for d in np.logical_or.reduce(skipped, axis=1).nonzero()[0]:
                np.copyto(ref[d], ref[d - 1], where=skipped[d])
            ref = ref[depth, who]
        better = values > ref
        # a segment leaves off at its first surprise, an improving trial that was
        # not predicted (taken) or a predicted accept that does not improve
        # (skipped), or else at its last trial
        surprise = better != guess
        surprise[edge[1:] - 1] = True
        cut = surprise.nonzero()[0]
        cut = cut[cut.searchsorted(edge[:-1])]
        acc = (better & (np.arange(len(t)) <= cut.repeat(span))).nonzero()[0]
        gains = np.zeros(len(seg))
        gains[head] = gain[poll]
        np.add.at(gains, sid[acc], values[acc] - ref[acc])  # in accept order
        done = np.zeros((len(seg), n_trials), dtype=bool)
        done[sid[acc], t[acc]] = True
        done[head] |= accepted[poll]
        seg_x = np.where(better[cut, None], trials[cut], base[cut])
        seg_f = np.where(better[cut], values[cut], ref[cut])
        seg_pos = t[cut] + 1
        x[poll], f[poll], pos[poll] = seg_x[head], seg_f[head], seg_pos[head]
        gain[poll], accepted[poll] = gains[head], done[head]
        # record each ended sweep under its owner's key, each later chain sweep under
        # its start; the restarts waiting for an owner's key take its record
        finished = pos[poll] == n_trials
        ended = poll[finished].tolist()
        records = [(polling.pop(r), s) for r, s in zip(ended, head[finished].tolist())]
        state = np.concatenate([seg_x, np.array([seg_f, gains, seg_pos]).T], axis=1)
        for key, s in [*records, *chained.items()]:
            memo[key] = state[s].tobytes() + done[s].tobytes()
            for r in waiting.pop(key, ()):
                take(r, memo[key])
                replays.append(r)
        starting = end_sweeps(ended)
    return x, f, sweeps, step < _MIN_STEP, dict(
        rounds=rounds, evaluations=evaluations, replayed=replayed, predicted=predicted, held=held)


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
    q = observations.frame.size
    x0 = np.array([_initial_point(r, q, config.seed) for r in range(config.restarts)])
    x, f, sweeps, converged, counts = _pattern_search(
        observations.tables, x0, config.alpha, config)

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
        **counts,
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
