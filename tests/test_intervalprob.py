import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ibsest import (
    Frame,
    IntervalProbabilities,
    ignorance,
    is_feasible,
    sample_feasible_points,
)


@st.composite
def feasible_probabilities(draw, max_size=5):
    """Bounds built around an interior point, so feasibility holds."""
    q = draw(st.integers(2, max_size))
    raw = draw(
        st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=q, max_size=q)
    )
    total = sum(raw)
    point = [x / total for x in raw]
    shrink = draw(st.lists(st.floats(0, 1), min_size=q, max_size=q))
    grow = draw(st.lists(st.floats(0, 1), min_size=q, max_size=q))
    lo = tuple(p * (1 - s) for p, s in zip(point, shrink))
    hi = tuple(p + (1 - p) * g for p, g in zip(point, grow))
    frame = Frame(tuple(f"h{i}" for i in range(q)))
    return IntervalProbabilities(frame, lo, hi)


H3 = Frame(("H1", "H2", "H3"))


class TestFeasibility:
    def test_bounds_touching_one(self):
        p = IntervalProbabilities(H3, (0.3, 0.1, 0.25), (0.4, 0.25, 0.35))
        assert is_feasible(p)  # uppers sum to exactly 1.0

    def test_point_distribution(self):
        p = IntervalProbabilities.from_point(Frame(("a", "b")), (0.6, 0.4))
        assert is_feasible(p)

    def test_oversumming_lowers(self):
        p = IntervalProbabilities(Frame(("a", "b")), (0.6, 0.6), (0.7, 0.7))
        assert not is_feasible(p)

    def test_undersumming_uppers(self):
        p = IntervalProbabilities(Frame(("a", "b")), (0.1, 0.1), (0.3, 0.3))
        assert not is_feasible(p)


class TestIgnorance:
    def test_point_valued_is_zero(self):
        p = IntervalProbabilities.from_point(H3, (0.2, 0.3, 0.5))
        for alpha in (1.0, 2.0, 7.5):
            assert ignorance(p, alpha) == 0.0

    def test_vacuous_is_one(self):
        p = IntervalProbabilities(H3, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        for alpha in (1.0, 2.0, 20.0):
            assert ignorance(p, alpha) == 1.0

    def test_reference_row(self):
        p = IntervalProbabilities(
            H3, (0.8397, 0.0057, 0.0510), (0.9433, 0.1093, 0.1547)
        )
        assert ignorance(p, 1.0) == pytest.approx(0.1036, abs=5e-4)

    def test_rejects_alpha_below_one(self):
        p = IntervalProbabilities.from_point(H3, (0.2, 0.3, 0.5))
        with pytest.raises(ValueError):
            ignorance(p, 0.5)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), "2", None, True])
    def test_rejects_non_finite_alpha(self, alpha):
        p = IntervalProbabilities(H3, (0.1, 0.1, 0.1), (0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="alpha must be a finite real"):
            ignorance(p, alpha)

    def test_non_integer_alpha_accepted(self):
        p = IntervalProbabilities(H3, (0.1, 0.1, 0.1), (0.5, 0.5, 0.5))
        assert 0.0 < ignorance(p, 1.5) < 1.0

    @given(p=feasible_probabilities(), alpha=st.floats(1, 20, allow_nan=False))
    def test_range_and_zero_iff_point(self, p, alpha):
        val = ignorance(p, alpha)
        assert 0.0 <= val <= 1.0
        assert (val == 0.0) == p.is_point_valued

    @given(
        p=feasible_probabilities(),
        a=st.floats(1, 10, allow_nan=False),
        bump=st.floats(0, 10, allow_nan=False),
    )
    def test_monotone_nonincreasing_in_alpha(self, p, a, bump):
        assert ignorance(p, a + bump) <= ignorance(p, a) + 1e-12


class TestSampling:
    def test_point_valued_samples_are_the_point(self):
        p = IntervalProbabilities.from_point(H3, (0.2, 0.3, 0.5))
        pts = sample_feasible_points(p, 5, seed=0)
        assert np.allclose(pts, [0.2, 0.3, 0.5])

    def test_deterministic_given_seed(self):
        p = IntervalProbabilities(Frame(("a", "b")), (0.0, 0.0), (1.0, 1.0))
        a = sample_feasible_points(p, 3, seed=11)
        b = sample_feasible_points(p, 3, seed=11)
        assert np.array_equal(a, b)
        assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_infeasible(self):
        p = IntervalProbabilities(Frame(("a", "b")), (0.6, 0.6), (0.7, 0.7))
        with pytest.raises(ValueError):
            sample_feasible_points(p, 1, seed=0)

    def test_singleton_bounds_sampling(self, table3):
        # observation 1's singleton masses read as interval probabilities
        p = IntervalProbabilities(H3, (0.30, 0.10, 0.25), (0.40, 0.25, 0.35))
        pts = sample_feasible_points(p, 500, seed=3)
        assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-12)

    @settings(max_examples=50)
    @given(p=feasible_probabilities(), seed=st.integers(0, 2**31))
    def test_containment_and_sum(self, p, seed):
        pts = sample_feasible_points(p, 64, seed=seed)
        lo = np.asarray(p.lowers)
        hi = np.asarray(p.uppers)
        assert np.all(pts >= lo - 1e-12)
        assert np.all(pts <= hi + 1e-12)
        assert np.allclose(pts.sum(axis=1), 1.0, atol=1e-12)
