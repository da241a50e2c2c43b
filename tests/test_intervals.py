import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ibsest import Interval, interval_distance

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def make_interval(x, y):
    return Interval(min(x, y), max(x, y))


class TestInterval:
    def test_derived_quantities(self):
        iv = Interval(0.2, 0.6)
        assert iv.midpoint == pytest.approx(0.4)
        assert iv.halfwidth == pytest.approx(0.2)
        assert iv.width == pytest.approx(0.4)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Interval(0.5, 0.2)

    def test_degenerate(self):
        assert Interval(0.3, 0.3).is_degenerate


class TestDistance:
    def test_zero_for_identical_degenerate(self):
        assert interval_distance(Interval(0, 0), Interval(0, 0)) == 0.0

    @given(x=st.floats(-10, 10, allow_nan=False), y=st.floats(-10, 10, allow_nan=False))
    def test_degenerate_case_is_absolute_difference(self, x, y):
        d = interval_distance(Interval(x, x), Interval(y, y))
        assert d == pytest.approx(abs(x - y), abs=1e-12)

    def test_unit_interval_vs_zero(self):
        # sqrt(0.25 + (1/3)*0.25) = sqrt(1/3)
        d = interval_distance(Interval(0, 1), Interval(0, 0))
        assert d == pytest.approx(math.sqrt(1 / 3), abs=1e-15)

    def test_symmetry_bulk(self):
        # 10^4 random pairs, exact symmetry
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            a = make_interval(*rng.random(2))
            b = make_interval(*rng.random(2))
            assert abs(interval_distance(a, b) - interval_distance(b, a)) <= 1e-15

    @given(a1=unit, a2=unit, b1=unit, b2=unit)
    def test_dominates_midpoint_gap(self, a1, a2, b1, b2):
        a, b = make_interval(a1, a2), make_interval(b1, b2)
        assert interval_distance(a, b) >= abs(a.midpoint - b.midpoint) - 1e-15

    @given(x1=unit, x2=unit)
    def test_self_distance_of_nondegenerate_is_positive(self, x1, x2):
        a = make_interval(x1, x2)
        expected = math.sqrt(2 / 3) * a.halfwidth
        assert interval_distance(a, a) == pytest.approx(expected, abs=1e-15)
        if a.halfwidth > 1e-150:  # below this, squaring underflows to zero
            assert interval_distance(a, a) > 0
