import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ibsest import (
    EstimatorConfig,
    FocalElement,
    Frame,
    IntervalBeliefStructure,
    IntervalProbabilities,
    MassEntry,
    ObservationSet,
    alpha_sweep,
    estimate,
    ignorance,
    is_feasible,
    objective,
    validate_ibs,
)
from ibsest import estimator

FAST = dict(restarts=8, max_iterations_per_start=400)


class TestObjective:
    def test_crisp_fixture_point_parameter(self, table1):
        theta = IntervalProbabilities.from_point(table1.frame, (0.6, 0.4))
        assert objective(theta, table1, 1.0) == pytest.approx(0.024192, abs=1e-9)

    def test_vacuous_parameter_pays_full_ignorance(self, table3):
        from ibsest import interval_distance, joint_likelihood, Interval

        theta = IntervalProbabilities(
            table3.frame, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0)
        )
        like = joint_likelihood(table3, theta)
        expected = interval_distance(like.value, Interval(0, 0)) - 1.0
        assert objective(theta, table3, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_rejects_infeasible(self, table1):
        theta = IntervalProbabilities(table1.frame, (0.7, 0.7), (0.8, 0.8))
        with pytest.raises(ValueError):
            objective(theta, table1, 1.0)


class TestEstimate:
    def test_result_is_feasible_and_consistent(self, table3):
        res = estimate(table3, EstimatorConfig(alpha=2.0, seed=7, **FAST))
        assert is_feasible(res.theta)
        assert res.objective == pytest.approx(
            res.distance_term - res.ignorance, abs=1e-12
        )
        assert res.objective == pytest.approx(
            objective(res.theta, table3, 2.0), abs=1e-12
        )

    def test_deterministic_given_seed(self, table3):
        cfg = EstimatorConfig(alpha=2.0, seed=123, **FAST)
        a = estimate(table3, cfg)
        b = estimate(table3, cfg)
        assert a == b  # dataclass equality covers theta and all diagnostics

    def test_search_counters_are_deterministic(self, table3, monkeypatch):
        cfg = EstimatorConfig(alpha=2.0, seed=123, **FAST)
        calls = []
        batch = estimator._objective_batch

        def counted(tables, x, alpha):
            calls.append(len(x))
            return batch(tables, x, alpha)

        monkeypatch.setattr(estimator, "_objective_batch", counted)
        a = estimate(table3, cfg)
        assert (a.rounds, a.evaluations) == (len(calls), sum(calls))
        assert a.replayed > 0
        assert a.held <= a.predicted <= sum(r.sweeps for r in a.restarts)
        b = estimate(table3, cfg)
        counters = ("rounds", "evaluations", "replayed", "predicted", "held")
        assert [getattr(a, c) for c in counters] == [getattr(b, c) for c in counters]

    def test_converged_reports_the_winning_restart(self, table3):
        # a budget small enough that some restarts stop on it
        res = estimate(table3, EstimatorConfig(alpha=2.0, seed=11, restarts=6,
                                               max_iterations_per_start=25))
        objectives = [r.objective for r in res.restarts]
        winner = res.restarts[objectives.index(max(objectives))]
        assert any(r.converged for r in res.restarts) and not winner.converged
        assert res.converged is False

    def test_more_restarts_never_worse(self, table3):
        few = estimate(table3, EstimatorConfig(alpha=2.0, seed=5, restarts=4))
        many = estimate(table3, EstimatorConfig(alpha=2.0, seed=5, restarts=10))
        assert many.objective >= few.objective - 1e-15

    def test_rejects_invalid_observations(self, table1):
        from ibsest import (
            FocalElement,
            IntervalBeliefStructure,
            MassEntry,
            ObservationSet,
        )

        bad = IntervalBeliefStructure(
            table1.frame,
            (MassEntry(FocalElement.of(table1.frame, ["a"]), 0.3, 0.4),),
            label="bad",
        )
        obs = ObservationSet(table1.frame, (bad,))
        with pytest.raises(ValueError, match="invalid observation"):
            estimate(obs, EstimatorConfig(restarts=1))

    def test_diagnostics_cover_every_restart(self, table1):
        res = estimate(table1, EstimatorConfig(seed=1, restarts=6,
                                               max_iterations_per_start=200))
        assert [r.restart for r in res.restarts] == list(range(6))


@st.composite
def observation_sets(draw):
    """Observation sets whose mass boxes are built as in
    ``verify.random_instance``, around a point on the simplex; some have
    upper masses that sum to 1 - 5e-10, inside the validation tolerance."""
    q = draw(st.integers(2, 4))
    frame = Frame(tuple(f"h{i}" for i in range(q)))
    observations = []
    for k in range(draw(st.integers(1, 3))):
        masks = draw(st.lists(st.integers(1, 2**q - 1), min_size=1,
                              max_size=min(5, 2**q - 1), unique=True))
        unit = st.lists(st.floats(0.0, 1.0), min_size=len(masks), max_size=len(masks))
        weights = [w + 1e-3 for w in draw(unit)]
        point = [w / sum(weights) for w in weights]
        lowers = [p * u for p, u in zip(point, draw(unit))]
        if draw(st.booleans()):
            uppers = [p * (1.0 - 5e-10) for p in point]
        else:
            uppers = [p + (1.0 - p) * u for p, u in zip(point, draw(unit))]
        entries = tuple(
            MassEntry(FocalElement.of(frame, [frame.hypotheses[j] for j in range(q)
                                              if mask >> j & 1]), lo, hi)
            for mask, lo, hi in zip(masks, lowers, uppers)
        )
        observations.append(IntervalBeliefStructure(frame, entries, label=f"o{k}"))
    return ObservationSet(frame, tuple(observations))


@settings(max_examples=40, deadline=None)
@given(observations=observation_sets(), alpha=st.sampled_from([1.0, 2.0, 3.5]))
def test_every_validated_set_estimates(observations, alpha):
    assume(all(validate_ibs(o).ok for o in observations.observations))
    result = estimate(observations, EstimatorConfig(
        alpha=alpha, restarts=2, max_iterations_per_start=5))
    assert is_feasible(result.theta)
    assert objective(result.theta, observations, alpha) == result.objective


@settings(max_examples=40, deadline=None)
@given(observations=observation_sets(), data=st.data())
def test_every_rejected_set_is_named(observations, data):
    """One entry of a set is given arbitrary masses; whenever validation
    rejects the set, the objective and the estimator raise naming it."""
    obs = list(observations.observations)
    k = data.draw(st.integers(0, len(obs) - 1))
    entries = list(obs[k].entries)
    j = data.draw(st.integers(0, len(entries) - 1))
    mass = st.floats(-0.25, 1.25)
    entries[j] = replace(entries[j], lower=data.draw(mass), upper=data.draw(mass))
    obs[k] = replace(obs[k], entries=tuple(entries))
    rejected = ObservationSet(observations.frame, tuple(obs))
    assume(not all(validate_ibs(o).ok for o in rejected.observations))
    q = rejected.frame.size
    theta = IntervalProbabilities.from_point(rejected.frame, [1.0 / q] * q)
    with pytest.raises(ValueError, match="^invalid observation "):
        objective(theta, rejected, 1.0)
    with pytest.raises(ValueError, match="^invalid observation "):
        estimate(rejected, EstimatorConfig(restarts=1, max_iterations_per_start=1))


class TestAlphaSweep:
    def test_rows_follow_input_order(self, table3):
        results = alpha_sweep(table3, [2.0, 1.0], EstimatorConfig(seed=3, **FAST))
        assert [r.alpha for r in results] == [2.0, 1.0]

    def test_singleton_sweep_equals_estimate(self, table3):
        cfg = EstimatorConfig(alpha=1.0, seed=9, **FAST)
        sweep = alpha_sweep(table3, [1.0], cfg)
        assert sweep[0] == estimate(table3, cfg)

    def test_empty_alpha_list_rejected(self, table3):
        with pytest.raises(ValueError):
            alpha_sweep(table3, [])

    def test_every_row_feasible(self, table3):
        for res in alpha_sweep(table3, [1.0, 3.0], EstimatorConfig(seed=2, **FAST)):
            assert is_feasible(res.theta)
            assert ignorance(res.theta, 1.0) <= 1.0

    def test_ignorance_trend_over_alpha(self, table3):
        # widths grow as the ignorance penalty flattens; small slack for
        # optimizer jitter
        results = alpha_sweep(
            table3, [1.0, 2.0, 3.0, 4.0, 5.0], EstimatorConfig(seed=42, restarts=24)
        )
        i1 = [ignorance(r.theta, 1.0) for r in results]
        for prev, cur in zip(i1, i1[1:]):
            assert cur >= prev - 0.02


class TestWorkers:
    def test_parallel_restarts_match_sequential(self, table3):
        base = dict(alpha=2.0, seed=9, restarts=4, max_iterations_per_start=400)
        seq = estimate(table3, EstimatorConfig(workers=1, **base))
        par = estimate(table3, EstimatorConfig(workers=2, **base))
        assert seq.theta == par.theta
        assert seq.objective == par.objective


class TestConfigValidation:
    def test_alpha_below_one(self):
        with pytest.raises(ValueError):
            EstimatorConfig(alpha=0.5)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), "2", None, True])
    def test_non_finite_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be a finite real"):
            EstimatorConfig(alpha=alpha)

    def test_nonpositive_restarts(self):
        with pytest.raises(ValueError):
            EstimatorConfig(restarts=0)

    @pytest.mark.parametrize("name, value", [
        ("max_iterations_per_start", 2.5), ("restarts", 2.5), ("seed", 1.5), ("restarts", "4"),
        ("restarts", True), ("seed", False), ("max_iterations_per_start", True)])
    def test_non_integer_field_is_named(self, name, value):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            EstimatorConfig(**{name: value})

    def test_numpy_integer_fields_pass(self, table1):
        config = EstimatorConfig(restarts=np.int64(2), max_iterations_per_start=np.int32(5),
                                 seed=np.uint8(3))
        res = estimate(table1, config)
        assert len(res.restarts) == 2 and max(r.sweeps for r in res.restarts) <= 5

    def test_negative_seed_is_named(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            EstimatorConfig(seed=-1)
