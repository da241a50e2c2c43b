import numpy as np
import pytest

from ibsest import (
    FocalElement,
    Frame,
    IntervalBeliefStructure,
    IntervalProbabilities,
    MassEntry,
    ibs_likelihood,
    ibs_likelihood_bruteforce,
    joint_likelihood,
    sample_feasible_points,
    singleton_likelihood,
    subset_likelihood,
    validate_ibs,
)
from ibsest.verify import random_instance

AB = Frame(("a", "b"))
H3 = Frame(("H1", "H2", "H3"))


class TestSingleton:
    def test_reads_parameter_interval(self):
        theta = IntervalProbabilities(AB, (0.3, 0.55), (0.45, 0.7))
        assert singleton_likelihood(0, theta).value.lo == 0.3
        assert singleton_likelihood(0, theta).value.hi == 0.45

    def test_point_parameter(self):
        theta = IntervalProbabilities.from_point(AB, (0.6, 0.4))
        iv = singleton_likelihood(0, theta).value
        assert iv.lo == iv.hi == 0.6

    def test_index_out_of_range(self):
        theta = IntervalProbabilities.from_point(AB, (0.6, 0.4))
        with pytest.raises(IndexError):
            singleton_likelihood(2, theta)


class TestSubset:
    def test_whole_frame_is_certain(self):
        theta = IntervalProbabilities(AB, (0.2, 0.5), (0.5, 0.7))
        iv = subset_likelihood(FocalElement.of(AB, ["a", "b"]), theta).value
        assert iv.lo == pytest.approx(1.0, abs=1e-12)
        assert iv.hi == pytest.approx(1.0, abs=1e-12)

    def test_hand_evaluated_singleton(self):
        theta = IntervalProbabilities(AB, (0.2, 0.6), (0.5, 0.7))
        iv = subset_likelihood(FocalElement.of(AB, ["a"]), theta).value
        # max(0.2, 1-0.7) and min(0.5, 1-0.6)
        assert iv.lo == pytest.approx(0.3)
        assert iv.hi == pytest.approx(0.4)

    def test_singleton_tighter_than_raw_read(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            _, theta = random_instance(rng)
            for i in range(theta.frame.size):
                f = FocalElement.of(theta.frame, [theta.frame.hypotheses[i]])
                tight = subset_likelihood(f, theta).value
                raw = singleton_likelihood(i, theta).value
                assert tight.lo >= raw.lo - 1e-12
                assert tight.hi <= raw.hi + 1e-12

    def test_superset_monotonicity(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            _, theta = random_instance(rng)
            frame = theta.frame
            q = frame.size
            mask = int(rng.integers(1, 2**q - 1))
            add = int(rng.integers(0, q))
            bigger = mask | (1 << add)
            small = FocalElement.of(
                frame, [frame.hypotheses[i] for i in range(q) if mask >> i & 1]
            )
            big = FocalElement.of(
                frame, [frame.hypotheses[i] for i in range(q) if bigger >> i & 1]
            )
            s = subset_likelihood(small, theta).value
            b = subset_likelihood(big, theta).value
            assert b.lo >= s.lo - 1e-12
            assert b.hi >= s.hi - 1e-12


def crisp_obs4():
    return IntervalBeliefStructure(
        AB,
        (
            MassEntry(FocalElement.of(AB, ["a"]), 0.3, 0.3),
            MassEntry(FocalElement.of(AB, ["b"]), 0.3, 0.3),
            MassEntry(FocalElement.of(AB, ["a", "b"]), 0.4, 0.4),
        ),
        label="4",
    )


class TestInnerProgram:
    def test_crisp_observation_point_parameter(self):
        theta = IntervalProbabilities.from_point(AB, (0.6, 0.4))
        like, low, high = ibs_likelihood(crisp_obs4(), theta)
        # 0.3*0.6 + 0.3*0.4 + 0.4*1.0
        assert like.value.lo == pytest.approx(0.7, abs=1e-12)
        assert like.value.hi == pytest.approx(0.7, abs=1e-12)
        assert low.bound == "lower" and high.bound == "upper"

    def test_vacuous_observation(self):
        obs = IntervalBeliefStructure(
            AB, (MassEntry(FocalElement.of(AB, ["a", "b"]), 1.0, 1.0),)
        )
        theta = IntervalProbabilities(AB, (0.1, 0.2), (0.6, 0.9))
        like, _, _ = ibs_likelihood(obs, theta)
        assert like.value.lo == pytest.approx(1.0, abs=1e-12)
        assert like.value.hi == pytest.approx(1.0, abs=1e-12)

    def test_certificates_are_feasible(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            obs, theta = random_instance(rng)
            _, low, high = ibs_likelihood(obs, theta)
            for sol in (low, high):
                assert sum(sol.mass_assignment) == pytest.approx(1.0, abs=1e-9)
                for m, e in zip(sol.mass_assignment, obs.entries):
                    assert e.lower - 1e-12 <= m <= e.upper + 1e-12

    def test_greedy_succeeds_on_every_valid_structure(self):
        # validity guarantees a feasible point mass assignment exists
        rng = np.random.default_rng(31)
        for _ in range(300):
            obs, theta = random_instance(rng)
            assert validate_ibs(obs).ok
            like, low, _ = ibs_likelihood(obs, theta)
            assert 0.0 <= like.value.lo <= like.value.hi <= 1.0


class TestBruteForceOracle:
    def test_degenerate_box_is_single_point(self):
        theta = IntervalProbabilities(AB, (0.2, 0.3), (0.6, 0.8))
        like, _, _ = ibs_likelihood(crisp_obs4(), theta)
        brute = ibs_likelihood_bruteforce(crisp_obs4(), theta)
        assert like.value.lo == pytest.approx(brute.value.lo, abs=1e-12)
        assert like.value.hi == pytest.approx(brute.value.hi, abs=1e-12)

    def test_two_element_free_box(self):
        obs = IntervalBeliefStructure(
            AB,
            (
                MassEntry(FocalElement.of(AB, ["a"]), 0.0, 1.0),
                MassEntry(FocalElement.of(AB, ["b"]), 0.0, 1.0),
            ),
        )
        theta = IntervalProbabilities.from_point(AB, (0.6, 0.4))
        brute = ibs_likelihood_bruteforce(obs, theta)
        # all mass on the cheaper / dearer singleton
        assert brute.value.lo == pytest.approx(0.4, abs=1e-12)
        assert brute.value.hi == pytest.approx(0.6, abs=1e-12)

    def test_matches_greedy_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            obs, theta = random_instance(rng)
            like, _, _ = ibs_likelihood(obs, theta)
            brute = ibs_likelihood_bruteforce(obs, theta)
            assert like.value.lo == pytest.approx(brute.value.lo, abs=1e-9)
            assert like.value.hi == pytest.approx(brute.value.hi, abs=1e-9)

    def test_box_within_validation_tolerance(self):
        # upper masses sum to 1 - 5e-10, inside the slack validate_ibs allows
        obs = IntervalBeliefStructure(
            AB,
            (
                MassEntry(FocalElement.of(AB, ["a"]), 0.2, 0.4999999995),
                MassEntry(FocalElement.of(AB, ["b"]), 0.3, 0.5),
            ),
        )
        assert validate_ibs(obs).ok
        theta = IntervalProbabilities.from_point(AB, (0.5, 0.5))
        like, _, _ = ibs_likelihood(obs, theta)
        brute = ibs_likelihood_bruteforce(obs, theta)
        assert like.value.lo == pytest.approx(brute.value.lo, abs=1e-9)
        assert like.value.hi == pytest.approx(brute.value.hi, abs=1e-9)

    def test_oracle_check_fails_on_an_invalid_instance(self, monkeypatch):
        from ibsest import verify

        # upper masses sum to 0.9: validate_ibs rejects the box
        obs = IntervalBeliefStructure(
            AB,
            (
                MassEntry(FocalElement.of(AB, ["a"]), 0.2, 0.4),
                MassEntry(FocalElement.of(AB, ["b"]), 0.3, 0.5),
            ),
        )
        theta = IntervalProbabilities.from_point(AB, (0.5, 0.5))
        monkeypatch.setattr(verify, "random_instance", lambda rng: (obs, theta))
        check = verify.check_oracle_equivalence(count=3)
        assert not check.passed
        assert "instance 0 is invalid" in check.detail
        assert "sum of upper masses" in check.detail

    def test_rejects_large_structures(self):
        frame = Frame(tuple(f"h{i}" for i in range(6)))
        entries = tuple(
            MassEntry(FocalElement.of(frame, [h]), 0.0, 1.0)
            for h in frame.hypotheses
        )
        obs = IntervalBeliefStructure(frame, entries)
        theta = IntervalProbabilities.from_point(frame, [1 / 6] * 6)
        with pytest.raises(ValueError):
            ibs_likelihood_bruteforce(obs, theta)


class TestJoint:
    def test_crisp_fixture_point_parameter(self, table1):
        theta = IntervalProbabilities.from_point(AB, (0.6, 0.4))
        like = joint_likelihood(table1, theta)
        assert like.value.lo == pytest.approx(0.024192, abs=1e-12)
        assert like.value.hi == pytest.approx(0.024192, abs=1e-12)

    def test_single_observation_equals_ibs_likelihood(self, table3):
        from ibsest import ObservationSet

        theta = IntervalProbabilities(H3, (0.3, 0.1, 0.25), (0.4, 0.25, 0.35))
        single = ObservationSet(H3, (table3.observations[0],))
        joint = joint_likelihood(single, theta)
        alone, _, _ = ibs_likelihood(table3.observations[0], theta)
        assert joint.value.lo == alone.value.lo
        assert joint.value.hi == alone.value.hi

    def test_zero_lower_propagates(self):
        obs = IntervalBeliefStructure(
            AB,
            (
                MassEntry(FocalElement.of(AB, ["a"]), 0.0, 1.0),
                MassEntry(FocalElement.of(AB, ["b"]), 0.0, 1.0),
            ),
        )
        from ibsest import ObservationSet

        theta = IntervalProbabilities(AB, (0.0, 0.0), (1.0, 1.0))
        like = joint_likelihood(ObservationSet(AB, (obs,)), theta)
        assert like.value.lo == 0.0


class TestCredalSemantics:
    def test_subset_bounds_match_sampled_extremes(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            _, theta = random_instance(rng)
            frame = theta.frame
            q = frame.size
            mask = int(rng.integers(1, 2**q))
            f = FocalElement.of(
                frame, [frame.hypotheses[i] for i in range(q) if mask >> i & 1]
            )
            like = subset_likelihood(f, theta).value
            pts = sample_feasible_points(theta, 2000, seed=int(rng.integers(1 << 30)))
            idx = [i for i in range(q) if mask >> i & 1]
            sums = pts[:, idx].sum(axis=1)
            assert sums.min() >= like.lo - 1e-9
            assert sums.max() <= like.hi + 1e-9
