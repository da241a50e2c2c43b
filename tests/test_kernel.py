"""The batched objective kernel and the lockstep search against their
scalar references."""

import hashlib
import itertools
import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ibsest import (
    EstimatorConfig,
    FocalElement,
    Frame,
    IntervalBeliefStructure,
    IntervalProbabilities,
    MassEntry,
    ObservationSet,
    estimate,
    ibs_likelihood,
    ibs_likelihood_bruteforce,
    joint_likelihood,
    objective,
)
from ibsest import estimator, likelihood
from ibsest.belief import is_crisp
from ibsest.estimator import _initial_point, _objective_batch, _repair, _trial_offsets
from ibsest.io import parse_observation_file
from ibsest.likelihood import _greedy_mass_value, likelihood_bounds

# The kernel adds in order, as the builtin sum() of floats does before
# Python 3.12; from 3.12 on, sum() compensates its rounding.
SUM_IN_ORDER = sys.version_info < (3, 12)


def same(x, y):
    return x == y if SUM_IN_ORDER else x == pytest.approx(y, rel=1e-12, abs=1e-300)


def random_observation_set(rng, q, crisp=False, n_focal=None, count=None):
    """1-6 observations of 1-5 focal elements each, so most are padded;
    ``count`` observations of ``n_focal`` focal elements, if given.

    With ``crisp=True`` every observation is crisp (point masses summing
    to 1); with ``crisp="mixed"`` each one is crisp on a coin flip.
    """
    frame = Frame(tuple(f"h{i}" for i in range(q)))
    observations = []
    for k in range(int(rng.integers(1, 7)) if count is None else count):
        size = int(rng.integers(1, min(5, 2**q - 1) + 1)) if n_focal is None else n_focal
        masks = rng.choice(2**q - 1, size=size, replace=False) + 1
        point = rng.random(size) + 1e-3
        point /= point.sum()
        if crisp is True or (crisp == "mixed" and rng.random() < 0.5):
            a = b = point
        else:
            a = point * rng.random(size)
            b = point + (1.0 - point) * rng.random(size)
        entries = tuple(
            MassEntry(
                FocalElement.of(frame, [frame.hypotheses[j] for j in range(q)
                                        if int(mask) >> j & 1]),
                float(lo), float(hi))
            for mask, lo, hi in zip(masks, a, b)
        )
        observations.append(IntervalBeliefStructure(frame, entries, label=f"o{k}"))
    return ObservationSet(frame, tuple(observations))


def scalar_objective(observations, lo, hi, alpha):
    """The one-point objective the search used before the kernel."""
    acc_lo = acc_hi = 1.0
    theta = IntervalProbabilities(observations.frame, tuple(lo), tuple(hi))
    for obs in observations.observations:
        like, _, _ = ibs_likelihood(obs, theta)
        acc_lo *= like.value.lo
        acc_hi *= like.value.hi
    mid = (acc_lo + acc_hi) / 2.0
    hw = (acc_hi - acc_lo) / 2.0
    dist = math.sqrt(mid * mid + hw * hw / 3.0)
    return dist - sum((h - l) ** alpha for l, h in zip(lo, hi)) / len(lo)


def mass_source(tables):
    """Where a search's kernel takes the greedy masses from: an argsort of
    each row where the order table would exceed the budget."""
    if not tables.fill:
        return "lower bounds"
    return "argsort" if tables.orders is None else "order table"


def large_sets(rng, q):
    """Sets beyond the order table's usual reach, with the mass source each
    compiles to: observations of 6 and of 7 focal elements (order tables
    of 720 and 5,040 orders each), and a set whose order table would exceed
    the block budget (15 observations of 7 focal elements, or 2 of 8), so
    that the kernel sorts each row. Each set is drawn when it is consumed."""
    if 2**q - 1 < 7:
        return
    big = 7 if q == 3 else 8
    over = likelihood._BLOCK_BYTES // (8 * big * math.factorial(big)) + 1
    yield random_observation_set(rng, q, n_focal=6, count=3), "order table"
    yield random_observation_set(rng, q, n_focal=7, count=2), "order table"
    yield random_observation_set(rng, q, n_focal=big, count=over), "argsort"


@pytest.mark.parametrize("q", range(1, 11))  # q = 1: every observation has one focal element
def test_kernel_matches_scalar_path_and_oracle(q):
    rng = np.random.default_rng(100 + q)
    # each set is drawn just before its rows and alpha, the large sets last
    cases = ((random_observation_set(rng, q, crisp), None)
             for crisp in (False,) * 4 + (True, "mixed", "mixed"))
    for observations, source in itertools.chain(cases, large_sets(rng, q)):
        if source is None:
            # the kernel skips the greedy fill unless some box has mass to place
            assert observations.tables.fill == (
                not all(is_crisp(obs) for obs in observations.observations))
            source = mass_source(observations.tables)
        assert mass_source(observations.tables) == source
        # the brute-force oracle enumerates boxes of up to 5 focal elements
        small = all(len(obs.entries) <= 5 for obs in observations.observations)
        x = rng.random((32, 2 * q))
        x[:4] = np.round(x[:4])  # corners: point and vacuous intervals
        alpha = float(rng.choice([1.0, 2.0, 3.0, 4.0, 5.0, float(rng.uniform(1, 5))]))
        lo, hi = _repair(x)
        k_lo, k_hi = likelihood_bounds(observations.tables, lo, hi)
        values = _objective_batch(observations.tables, x, alpha)
        # a search's kernel, in its workspace, gives the same bits
        searched = likelihood.with_workspace(observations.tables, q)
        assert (searched.work.masses is None) == (source != "order table")
        assert [b.tobytes() for b in likelihood_bounds(searched, lo, hi)] == [
            k_lo.tobytes(), k_hi.tobytes()]
        assert _objective_batch(searched, x, alpha).tobytes() == values.tobytes()
        for r in range(len(x)):
            theta = IntervalProbabilities(
                observations.frame, tuple(lo[r].tolist()), tuple(hi[r].tolist()))
            s_lo = s_hi = b_lo = b_hi = 1.0
            for obs in observations.observations:
                like, _, _ = ibs_likelihood(obs, theta)
                s_lo *= like.value.lo
                s_hi *= like.value.hi
                if small:
                    brute = ibs_likelihood_bruteforce(obs, theta)
                    b_lo *= brute.value.lo
                    b_hi *= brute.value.hi
            assert same(k_lo[r], s_lo) and same(k_hi[r], s_hi)
            if small:
                assert k_lo[r] == pytest.approx(b_lo, abs=1e-9)
                assert k_hi[r] == pytest.approx(b_hi, abs=1e-9)
            assert same(values[r], scalar_objective(
                observations, lo[r].tolist(), hi[r].tolist(), alpha))


def test_search_kernel_reads_each_observations_one_order():
    # one focal element per observation, so one order each; the second box
    # ends just below 1, so its mass is not the first one's
    frame = Frame(("a", "b"))
    observations = ObservationSet(frame, tuple(
        IntervalBeliefStructure(frame, (MassEntry(FocalElement.of(frame, [h]), lo, hi),), h)
        for h, lo, hi in (("a", 0.3, 1.0), ("b", 0.6, 1.0 - 5e-10))))
    tables = observations.tables
    assert tables.orders[0].tolist() == [[1.0, 1.0 - 5e-10]]
    lo, hi = _repair(np.random.default_rng(1).random((8, 4)))
    searched = likelihood.with_workspace(tables, 2)
    assert [b.tobytes() for b in likelihood_bounds(searched, lo, hi)] == [
        b.tobytes() for b in likelihood_bounds(tables, lo, hi)]


def sequential_fill(a, b, order):
    """The greedy fill of the box [a, b] in ``order``, in Python floats."""
    residual = max(1.0 - sum(a), 0.0)
    masses = list(a)
    for i in order:
        take = min(b[i] - a[i], residual)
        masses[i] = 0.0 + a[i] + take
        residual -= take
    return masses


def costs_of(order, ties):
    """Costs whose ascending order, ties to the lower index, is ``order``;
    with ``ties``, each entry ties the one before it where that keeps the order."""
    costs, level = [0] * len(order), 0
    for before, i in zip(order, order[1:]):
        level += not (ties and before < i)
        costs[i] = level
    return costs


@pytest.mark.parametrize("name", ["table1", "table3", "table5", "random"])
def test_order_table_holds_the_fill_of_every_order(name, request):
    if name == "random":
        rng = np.random.default_rng(7)
        sets = [random_observation_set(rng, q, crisp) for q in (2, 3, 4, 6)
                for crisp in (False, "mixed")]
        sets += [random_observation_set(rng, 1, count=2),  # one focal element each
                 random_observation_set(rng, 3, n_focal=6, count=2),
                 random_observation_set(rng, 3, n_focal=7, count=1)]
    else:
        sets = [request.getfixturevalue(name)]
    for observations in sets:
        tables = observations.tables
        assert (tables.orders is None) == (not tables.fill)  # all within the budget
        masses, offset = tables.orders or (None, None)
        for o, obs in enumerate(observations.observations):
            a, b = obs.lowers, obs.uppers
            for order in itertools.permutations(range(len(a))):
                rank = [order.index(i) for i in range(len(a))]
                code = sum(math.factorial(j) * sum(rank[i] > rank[j] for i in range(j))
                           for j in range(len(a)))
                want = sequential_fill(a, b, order) if tables.fill else list(a)
                if tables.fill:
                    got = masses[:, offset[o, 0, 0] + code].tolist()
                    assert got == want + [0.0] * (len(got) - len(a))
                for ties in (False, True):
                    costs = costs_of(order, ties)
                    assert _greedy_mass_value(a, b, costs, maximize=False)[1] == want
                    assert _greedy_mass_value(
                        a, b, [-c for c in costs], maximize=True)[1] == want


def test_row_value_does_not_depend_on_batch(table5, monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.random((1024, 2 * table5.frame.size))
    monkeypatch.setattr(likelihood, "_BLOCK_BYTES", 1 << 19)
    blocks, kernel = [], likelihood._block_bounds

    def recorded(tables, lo, hi):
        blocks.append(len(lo))
        return kernel(tables, lo, hi)

    monkeypatch.setattr(likelihood, "_block_bounds", recorded)
    batch = _objective_batch(table5.tables, x, 2.0)
    monkeypatch.setattr(likelihood, "_block_bounds", kernel)
    # at least three full blocks, then a partial one
    assert len(blocks) >= 4 and set(blocks[:-1]) == {blocks[0]}
    assert 0 < blocks[-1] < blocks[0]
    for i in range(len(x)):
        assert _objective_batch(table5.tables, x[i : i + 1], 2.0)[0] == batch[i]


@pytest.mark.parametrize("name", ["table1", "table5"])
def test_kernel_working_set_does_not_grow_with_batch(name, request):
    observations = request.getfixturevalue(name)
    tables = observations.tables
    rng = np.random.default_rng(5)

    def peak(rows):
        lo, hi = _repair(rng.random((rows, 2 * observations.frame.size)))
        tracemalloc.start()
        try:
            likelihood_bounds(tables, lo, hi)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # only the (N,) outputs grow with the batch
    assert peak(20_000) <= 1.5 * peak(2_000)


@pytest.mark.parametrize("name", ["table1", "table5"])  # no fill; order table
def test_search_workspace_blocks_match_single_rows(name, request, monkeypatch):
    observations = request.getfixturevalue(name)
    q = observations.frame.size
    monkeypatch.setattr(likelihood, "_BLOCK_BYTES", 1 << 21)
    searched = likelihood.with_workspace(observations.tables, q)
    rows = likelihood.block_rows(searched)
    assert searched.work.rows == rows
    rng = np.random.default_rng(11)

    def bounds(n_rows):
        lo, hi = _repair(rng.random((n_rows, 2 * q)))
        return lo, hi, likelihood_bounds(searched, lo, hi)

    # three full blocks, then a partial one, whose views are made anew
    lo, hi, (k_lo, k_hi) = bounds(3 * rows + rows // 2)
    for i in range(len(lo)):
        one = lo[i : i + 1], hi[i : i + 1]
        assert [b.tobytes() for b in likelihood_bounds(searched, *one)] == [
            k_lo[i : i + 1].tobytes(), k_hi[i : i + 1].tobytes()]
        assert [b.tobytes() for b in likelihood_bounds(observations.tables, *one)] == [
            k_lo[i : i + 1].tobytes(), k_hi[i : i + 1].tobytes()]
    again = likelihood_bounds(searched, lo, hi)  # full blocks after one-row ones
    assert [b.tobytes() for b in again] == [k_lo.tobytes(), k_hi.tobytes()]

    def peak(n_rows):
        lo, hi = _repair(rng.random((n_rows, 2 * q)))
        tracemalloc.start()
        try:
            likelihood_bounds(searched, lo, hi)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # beyond the two (N,) outputs, a block allocates only numpy's iteration
    # buffers (at most 8,192 elements an operand), not the kernel's arrays,
    # and the batch adds nothing
    block = peak(rows) - 16 * rows
    assert block < searched.work._buffer.nbytes / 4
    assert peak(20_000) - 16 * 20_000 <= block + (1 << 12)


def test_one_off_calls_compile_no_order_table_and_are_reentrant(fixtures):
    observations = parse_observation_file(fixtures / "table5.obs")  # fresh tables
    q = observations.frame.size
    lo, hi = _repair(np.random.default_rng(13).random((64, 2 * q)))
    thetas = [IntervalProbabilities(observations.frame, tuple(l), tuple(h))
              for l, h in zip(lo.tolist(), hi.tolist())]

    def score(theta):
        return objective(theta, observations, 2.0).hex()

    sequential = [score(theta) for theta in thetas]
    # each one-off call sorts its rows in a workspace of its own; only a
    # search compiles the order table, although table5's fits the budget
    assert "orders" not in observations.tables.__dict__
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that calls interleave
    try:
        with ThreadPoolExecutor(4) as pool:
            for _ in range(5):
                assert list(pool.map(score, thetas, timeout=60)) == sequential
    finally:
        sys.setswitchinterval(interval)
    assert "orders" not in observations.tables.__dict__
    assert observations.tables.orders is not None


def test_joint_likelihood_rejects_infeasible_theta(table1):
    theta = IntervalProbabilities(table1.frame, (0.7, 0.7), (0.8, 0.8))
    with pytest.raises(ValueError, match="feasible"):
        joint_likelihood(table1, theta)


def test_mass_box_checked_against_validation_tolerance():
    frame = Frame(("a", "b"))

    def obs_set(upper_a):
        entries = (MassEntry(FocalElement.of(frame, ["a"]), 0.2, upper_a),
                   MassEntry(FocalElement.of(frame, ["b"]), 0.3, 0.5))
        return ObservationSet(frame, (IntervalBeliefStructure(frame, entries, "x"),))

    theta = IntervalProbabilities.from_point(frame, (0.5, 0.5))
    # upper masses sum to 1 - 2e-10, inside the tolerance validation allows
    near = obs_set(0.4999999998)
    like, _, _ = ibs_likelihood(near.observations[0], theta)
    assert joint_likelihood(near, theta).value == like.value
    with pytest.raises(ValueError,
                       match="invalid observation 'x': sum of upper masses 0.99 is below 1"):
        obs_set(0.49).tables


# each likelihood entry, called with an observation set and a parameter
ENTRIES = {
    "objective": lambda s, theta: objective(theta, s, 1.0),
    "joint_likelihood": lambda s, theta: joint_likelihood(s, theta),
    "estimate": lambda s, theta: estimate(s, EstimatorConfig(restarts=1)),
    "ibs_likelihood": lambda s, theta: ibs_likelihood(s.observations[0], theta),
    "ibs_likelihood_bruteforce":
        lambda s, theta: ibs_likelihood_bruteforce(s.observations[0], theta),
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_checks_each_mass_interval(entry):
    frame = Frame(("a", "b"))
    # the box holds (lowers sum to 1, uppers to 1.1); entry 0 has a > b
    entries = (MassEntry(FocalElement.of(frame, ["a"]), 0.7, 0.2),
               MassEntry(FocalElement.of(frame, ["b"]), 0.3, 0.9))
    observations = ObservationSet(frame, (IntervalBeliefStructure(frame, entries, "x"),))
    theta = IntervalProbabilities.from_point(frame, (0.5, 0.5))
    message = "invalid observation 'x': entry 0 {a}: mass bounds [0.7, 0.2] violate"
    with pytest.raises(ValueError, match=re.escape(message)):
        ENTRIES[entry](observations, theta)


@pytest.mark.parametrize("entry", [e for e in ENTRIES if e != "estimate"])
def test_every_entry_names_the_infeasible_side(entry, table1):
    theta = IntervalProbabilities(table1.frame, (0.7, 0.7), (0.8, 0.8))
    with pytest.raises(ValueError,
                       match="infeasible interval probabilities: sum of lower masses"):
        ENTRIES[entry](table1, theta)


@pytest.mark.parametrize("entry", [e for e in ENTRIES if e != "estimate"])
@pytest.mark.parametrize("names", [("x", "y", "z"), ("H1", "H2", "H3", "H4"), ("H1", "H2")],
                         ids=["renamed", "longer", "shorter"])
def test_every_entry_checks_the_frame(entry, names, table3):
    # the kernel reads theta's bounds by position, so another frame must not score
    theta = IntervalProbabilities.from_point(Frame(names), [1 / len(names)] * len(names))
    message = (f"theta's frame ({', '.join(names)}) is not the observations' frame "
               "(H1, H2, H3)")
    with pytest.raises(ValueError, match=re.escape(message)):
        ENTRIES[entry](table3, theta)


_paths = {}  # several tests compare against the same restart's path


def sequential_search(tables, x0, alpha, config):
    """One restart, one point at a time: the accept-first pattern search."""
    key = (id(tables), tuple(x0), alpha, config.max_iterations_per_start)
    if key not in _paths or _paths[key][0] is not tables:
        _paths[key] = tables, _sequential_search(tables, x0, alpha, config)
    return _paths[key][1]


def _sequential_search(tables, x0, alpha, config):
    def f_of(x):
        return _objective_batch(tables, np.array([x]), alpha)[0]

    x, f = list(x0), f_of(x0)
    step, sweeps, converged = estimator._INITIAL_STEP, 0, False
    while sweeps < config.max_iterations_per_start:
        sweeps += 1
        gain = 0.0
        for offset in _trial_offsets(len(x0) // 2):
            trial = list(x)
            for i in np.flatnonzero(offset):
                trial[i] = min(max(x[i] + offset[i] * step, 0.0), 1.0)
            if trial == x:
                continue
            ft = f_of(trial)
            if ft > f:
                gain += ft - f
                x, f = trial, ft
        if gain <= estimator._MIN_GAIN:
            step /= 2.0
            if step < estimator._MIN_STEP:
                converged = True
                break
    return x, f, sweeps, converged


def test_lockstep_search_follows_sequential_paths(table3):
    # a budget small enough that some restarts stop on it
    config = EstimatorConfig(alpha=2.0, seed=11, restarts=6,
                             max_iterations_per_start=25)
    q = table3.frame.size
    x0 = np.array([_initial_point(r, q, config.seed) for r in range(config.restarts)])
    x, f, sweeps, converged, *_ = estimator._pattern_search(
        table3.tables, x0, config.alpha, config)
    assert not converged.all() and converged.any()
    for r in range(config.restarts):
        ref = sequential_search(table3.tables, x0[r].tolist(), config.alpha, config)
        assert (x[r].tolist(), f[r], sweeps[r], converged[r]) == ref


@pytest.mark.parametrize("one_row_blocks", [False, True],
                         ids=["default_blocks", "one_row_blocks"])
def test_cycling_restart_follows_sequential_path_in_fewer_rounds(
        table5, monkeypatch, one_row_blocks):
    # Restart 2 uses its whole budget, accepting trials 15 and 48 in most
    # sweeps; the cycle breaks at trial 3 (before the first predicted
    # accept) and at trial 23 (between the two), so predictions fail
    # mid-sweep. With one-row blocks a plain restart polls one trial while
    # a chain still polls the rest of its sweep, so rounds mix the two.
    if one_row_blocks:
        monkeypatch.setattr(estimator, "block_rows", lambda tables: 1)
    config = EstimatorConfig(alpha=2.0, seed=21, restarts=3,
                             max_iterations_per_start=250)
    q = table5.frame.size
    x0 = np.array([_initial_point(r, q, config.seed) for r in range(config.restarts)])
    x, f, sweeps, converged, counts = estimator._pattern_search(
        table5.tables, x0, config.alpha, config)
    assert sweeps[2] == config.max_iterations_per_start and not converged[2]
    for r in range(config.restarts):
        ref = sequential_search(table5.tables, x0[r].tolist(), config.alpha, config)
        assert (x[r].tolist(), f[r], sweeps[r], converged[r]) == ref
    rounds, evaluations = counts["rounds"], counts["evaluations"]
    assert (rounds, evaluations) == ((1_669, 13_091) if one_row_blocks else (104, 15_838))
    if not one_row_blocks:
        # one round per accept takes three rounds for most of these sweeps
        assert rounds < 2 * config.max_iterations_per_start


def lone_restart(table5, budget):
    """Restart 2 of the test above, searched alone with the given budget:
    its result, and whether it follows the one-point-at-a-time path."""
    config = EstimatorConfig(alpha=2.0, seed=21, restarts=1,
                             max_iterations_per_start=budget)
    x0 = np.array([_initial_point(2, table5.frame.size, config.seed)])
    x, f, sweeps, converged, counts = estimator._pattern_search(
        table5.tables, x0, config.alpha, config)
    ref = sequential_search(table5.tables, x0[0].tolist(), config.alpha, config)
    return sweeps[0], converged[0], counts, (x[0].tolist(), f[0], sweeps[0], converged[0]) == ref


def test_predicted_chain_crosses_sweep_ends(table5):
    # a chain predicted to its sweep's end goes on into the next sweeps,
    # up to 13 of them in one round
    sweeps, converged, counts, same_path = lone_restart(table5, 250)
    assert same_path and sweeps == 250 and not converged
    assert counts["rounds"] < 200  # a round per sweep or more without chains
    assert counts["held"] <= counts["predicted"] <= sweeps


def test_budget_end_inside_a_chain(table5):
    # from sweep 33 on, one round polls the restart's predicted sweeps up
    # to sweep 40, so a budget that ends inside that chain costs no round
    # more than one ending at sweep 33
    sweeps, converged, counts, same_path = lone_restart(table5, 37)
    assert same_path and sweeps == 37 and not converged
    assert counts["rounds"] == lone_restart(table5, 33)[2]["rounds"]


def test_chain_stops_before_a_sweep_an_earlier_chain_polled(table5):
    # A straggler cell: a chain records every sweep it polls, also those past
    # a sweep that broke its prediction, and a later chain stops before them
    # (restart 15 polls 33 rows in round 132, not 549). Dropping those
    # sweeps took 50,092 rows in the same 202 rounds, with the same restart
    # diagnostics. Restarts 6, 11 and 15 take sweeps from chain records.
    config = EstimatorConfig(alpha=2.0, seed=16, restarts=16,
                             max_iterations_per_start=250)
    x0 = np.array([_initial_point(r, table5.frame.size, config.seed)
                   for r in range(config.restarts)])
    x, f, sweeps, converged, counts = estimator._pattern_search(
        table5.tables, x0, config.alpha, config)
    assert (counts["rounds"], counts["evaluations"]) == (202, 48_028)
    for r in (6, 11, 15):
        ref = sequential_search(table5.tables, x0[r].tolist(), config.alpha, config)
        assert (x[r].tolist(), f[r], sweeps[r], converged[r]) == ref
    paths = repr([(r, f[r].hex(), int(sweeps[r]), bool(converged[r]))
                  for r in range(config.restarts)])
    assert hashlib.sha256(paths.encode()).hexdigest() == (
        "811f3e754151d3b160eacb1b5faea878a1e89421bd459c895fe1aa0643ae9374")


@pytest.mark.parametrize("name, alpha, seed", [("table5", 1.0, 3), ("table3", 2.0, 31)])
def test_chain_past_a_predicted_accept_clipped_onto_its_base(name, alpha, seed, request):
    # A predicted move reaches the edge of the box (in table5, transfer 45
    # takes intervals 2 and 3 to [0, 0] and [1, 1] in sweep 5). In a chain's
    # next sweep it clips back onto its base point and is skipped, so the
    # chain's sweeps after it start from that point and its value. When every
    # predicted accept clips so, those sweeps share one start point, and the
    # chain polls that sweep once: polling each took 1,513 and 1,468 rows.
    observations = request.getfixturevalue(name)
    config = EstimatorConfig(alpha=alpha, seed=seed, restarts=1,
                             max_iterations_per_start=250)
    x0 = np.array([_initial_point(2, observations.frame.size, seed)])
    x, f, sweeps, converged, counts = estimator._pattern_search(
        observations.tables, x0, alpha, config)
    ref = sequential_search(observations.tables, x0[0].tolist(), alpha, config)
    assert (x[0].tolist(), f[0], sweeps[0], converged[0]) == ref
    assert counts["evaluations"] == {"table5": 1_172, "table3": 688}[name]


@pytest.mark.parametrize("name, counts", [
    ("table1", (83, 46_760)), ("table3", (53, 13_848)), ("table5", (52, 20_301))])
def test_paper_cell_rounds_and_rows(name, counts, request):
    # the alpha=1 case studies as users run them: every restart converges in
    # about 40 sweeps, so rounds stay full and the round plan sets the rows
    result = estimate(request.getfixturevalue(name), EstimatorConfig(alpha=1.0, seed=42,
                                                                     restarts=64))
    assert (result.rounds, result.evaluations) == counts


def test_restarts_do_not_depend_on_restart_count(table3):
    few = estimate(table3, EstimatorConfig(alpha=2.0, seed=42, restarts=16))
    many = estimate(table3, EstimatorConfig(alpha=2.0, seed=42, restarts=64))
    assert few.restarts == many.restarts[:16]


def test_duplicate_restart_replays_every_sweep(table5):
    config = EstimatorConfig(alpha=1.0)
    x0 = np.array([_initial_point(2, table5.frame.size, 42)])
    one = estimator._pattern_search(table5.tables, x0, config.alpha, config)
    two = estimator._pattern_search(table5.tables, np.repeat(x0, 2, axis=0),
                                    config.alpha, config)
    x, f, sweeps, converged, counts = two
    assert x[0].tolist() == x[1].tolist() == one[0][0].tolist()
    assert (f[0], sweeps[0], converged[0]) == (f[1], sweeps[1], converged[1])
    assert (f[0], sweeps[0], converged[0]) == (one[1][0], one[2][0], one[3][0])
    # the copy waits for each sweep and replays it in a round without rows
    assert counts["replayed"] == sweeps[1]
    assert counts["evaluations"] == one[4]["evaluations"] + 1
    assert counts["rounds"] == one[4]["rounds"]


def test_replayed_sweeps_keep_each_restart_path_and_budget(table5):
    # Restarts 0, 2, 4, 5, 6 and 11 replay sweeps and then stop on the
    # budget; restarts 3, 7, 8 and 9 replay sweeps and converge.
    config = EstimatorConfig(alpha=1.0, seed=40, restarts=12,
                             max_iterations_per_start=20)
    q = table5.frame.size
    x0 = np.array([_initial_point(r, q, config.seed) for r in range(config.restarts)])
    x, f, sweeps, converged, counts = estimator._pattern_search(
        table5.tables, x0, config.alpha, config)
    assert converged.any() and not converged.all() and counts["replayed"] > 0
    for r in range(config.restarts):
        ref = sequential_search(table5.tables, x0[r].tolist(), config.alpha, config)
        assert (x[r].tolist(), f[r], sweeps[r], converged[r]) == ref
    # 14,983 rows without replaying
    assert counts["evaluations"] <= 10_500


def test_block_sized_rounds_keep_paths_and_cut_rows(table5, monkeypatch):
    config = EstimatorConfig(alpha=1.0, seed=42, restarts=64)
    q = table5.frame.size
    x0 = np.array([_initial_point(r, q, config.seed) for r in range(config.restarts)])
    blocked = estimator._pattern_search(table5.tables, x0, config.alpha, config)
    # a block this large gives every restart the rest of its sweep each round
    monkeypatch.setattr(estimator, "block_rows", lambda tables: 1 << 40)
    whole = estimator._pattern_search(table5.tables, x0, config.alpha, config)
    assert blocked[0].tobytes() == whole[0].tobytes()
    for got, want in zip(blocked[1:4], whole[1:4]):
        assert got.tolist() == want.tolist()
    # 48,292 rows when every round submits the rest of each sweep
    assert whole[4]["evaluations"] > 45_000
    assert blocked[4]["evaluations"] < 25_000
