"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Heavier than the unit tests; the whole module runs the estimator at its
default restart budget against the bundled reference tables.
"""

import time

import numpy as np
import pytest

from ibsest import (
    EstimatorConfig,
    FocalElement,
    Frame,
    Interval,
    IntervalProbabilities,
    estimate,
    ignorance,
    interval_distance,
    is_feasible,
    sample_feasible_points,
    subset_likelihood,
)
from ibsest.verify import (
    check_concentration,
    check_crisp_reproduction,
    check_ignorance_column,
    check_objective_dominance,
    check_oracle_equivalence,
)


def report(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    assert ok, f"{name}: {detail}"


def timed(check, *args, **kwargs):
    start = time.monotonic()
    result = check(*args, **kwargs)
    return result, time.monotonic() - start


def test_criterion_1_crisp_reproduction(fixtures):
    check, elapsed = timed(check_crisp_reproduction, fixtures)
    report(
        "criterion 1: crisp-case reproduction",
        check.passed and elapsed <= 10.0,
        f"{check.detail} ({elapsed:.1f}s)",
    )


def test_criterion_2_ignorance_column(fixtures):
    check = check_ignorance_column(fixtures)
    report("criterion 2: ignorance-column consistency", check.passed, check.detail)


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_criterion_3_objective_dominance(fixtures, alpha):
    [check], elapsed = timed(
        check_objective_dominance, fixtures, "table3.obs", "table4.expected", [alpha]
    )
    report(
        f"criterion 3: objective dominance, alpha={alpha:g}",
        check.passed and elapsed <= 60.0,
        f"{check.detail} ({elapsed:.1f}s)",
    )


def test_criterion_4_concentration(fixtures):
    check = check_concentration(fixtures)
    report("criterion 4: trustworthiness case, alpha=1 concentration",
           check.passed, check.detail)


@pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0, 5.0])
def test_criterion_4_dominance(fixtures, alpha):
    [check] = check_objective_dominance(
        fixtures, "table5.obs", "table6.expected", [alpha]
    )
    report(f"criterion 4: trustworthiness dominance, alpha={alpha:g}",
           check.passed, check.detail)


def test_criterion_5_oracle_equivalence():
    check, elapsed = timed(check_oracle_equivalence, count=1000, seed=1234)
    ok = check.passed and elapsed <= 30.0
    report(
        "criterion 5: inner-program oracle equivalence",
        ok,
        f"{check.detail} ({elapsed:.1f}s)",
    )


def test_criterion_6_credal_semantics():
    rng = np.random.default_rng(12345)
    worst_gap = 0.0
    for _ in range(200):
        q = int(rng.integers(2, 5))
        frame = Frame(tuple(f"h{i}" for i in range(q)))
        w = rng.random(q) + 1e-3
        w /= w.sum()
        u = rng.random(q) * 0.15
        lo = w * (1 - u)
        hi = np.minimum(1.0, w + (1 - w) * u)
        theta = IntervalProbabilities(frame, tuple(lo), tuple(hi))
        mask = 0
        while mask == 0:
            mask = int(rng.integers(1, 2**q))
        f = FocalElement.of(
            frame, [frame.hypotheses[i] for i in range(q) if mask >> i & 1]
        )
        like = subset_likelihood(f, theta).value
        pts = sample_feasible_points(theta, 10_000, seed=int(rng.integers(1 << 30)))
        idx = [i for i in range(q) if mask >> i & 1]
        sums = pts[:, idx].sum(axis=1)
        # bounds must bracket every sample...
        assert sums.min() >= like.lo - 1e-9
        assert sums.max() <= like.hi + 1e-9
        # ...and the samples must come close to both bounds
        worst_gap = max(worst_gap, sums.min() - like.lo, like.hi - sums.max())
    report(
        "criterion 6: credal-set semantics of subset likelihood",
        worst_gap <= 0.02,
        f"worst sampling gap {worst_gap:.4f}",
    )


def test_criterion_7_property_suite(table3):
    # ignorance boundary cases
    frame = Frame(("x", "y", "z"))
    point = IntervalProbabilities.from_point(frame, (0.2, 0.3, 0.5))
    vacuous = IntervalProbabilities(frame, (0.0,) * 3, (1.0,) * 3)
    rng = np.random.default_rng(55)
    ok = all(ignorance(point, a) == 0.0 for a in (1.0, 2.0, 5.0))
    ok = ok and all(ignorance(vacuous, a) == 1.0 for a in (1.0, 2.0, 5.0))
    for _ in range(500):
        w = rng.random(3) + 1e-3
        w /= w.sum()
        p = IntervalProbabilities(
            frame, tuple(w * rng.random(3)), tuple(w + (1 - w) * rng.random(3))
        )
        ok = ok and 0.0 <= ignorance(p, float(rng.uniform(1, 10))) <= 1.0

    # distance symmetry, non-negativity, degenerate case
    for _ in range(2000):
        a = sorted(rng.random(2))
        b = sorted(rng.random(2))
        ia, ib = Interval(*a), Interval(*b)
        d1, d2 = interval_distance(ia, ib), interval_distance(ib, ia)
        ok = ok and abs(d1 - d2) <= 1e-15 and d1 >= 0.0
        x, y = rng.random(2)
        ok = ok and abs(
            interval_distance(Interval(x, x), Interval(y, y)) - abs(x - y)
        ) <= 1e-12

    # estimator outputs feasible; fixed seed gives bit-identical results
    cfg = EstimatorConfig(alpha=2.0, seed=77, restarts=8,
                          max_iterations_per_start=400)
    r1 = estimate(table3, cfg)
    r2 = estimate(table3, cfg)
    ok = ok and is_feasible(r1.theta) and r1 == r2
    report("criterion 7: property suite", ok)
