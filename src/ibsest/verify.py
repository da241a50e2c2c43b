"""Checks that reproduce the reference tables from the bundled fixtures."""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterator

import numpy as np

from .belief import (
    FocalElement,
    Frame,
    IntervalBeliefStructure,
    MassEntry,
    ObservationSet,
    check_ibs,
    validate_ibs,
)
from .estimator import EstimatorConfig, estimate, objective
from .intervalprob import IntervalProbabilities, ignorance
from .io import parse_expected_file, parse_observation_file
from .likelihood import ibs_likelihood, ibs_likelihood_bruteforce


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def fixture_dir() -> Path:
    return Path(resources.files("ibsest") / "fixtures")


class _UnparsedFixture(Exception):
    """A fixture that does not parse, cannot be read, holds an invalid
    observation or lacks a hypothesis its check reads; the message names
    the file."""


def _parse(parse, path: Path):
    try:
        parsed = parse(path)
        if isinstance(parsed, ObservationSet):
            for obs in parsed.observations:
                check_ibs(obs)
        return parsed
    except ValueError as exc:  # a parse error, or an invalid observation
        raise _UnparsedFixture(f"{path.name}: {exc}") from None
    except OSError as exc:
        raise _UnparsedFixture(f"{path.name}: {exc.strerror or exc}") from None


def _estimate(path, alpha, seed, restarts, names):
    """The frame indices of ``names``, which the check reads, and the estimate."""
    obs = _parse(parse_observation_file, path)
    missing = [n for n in names if n not in obs.frame.hypotheses]
    if missing:
        raise _UnparsedFixture(f"{path.name}: no hypothesis {missing[0]!r} in frame "
                               f"({', '.join(obs.frame.hypotheses)})")
    cfg = EstimatorConfig(alpha=alpha, seed=seed, restarts=restarts)
    return [obs.frame.index(n) for n in names], estimate(obs, cfg)


def check_crisp_reproduction(fixtures: Path, seed=42, restarts=64) -> CheckResult:
    """Crisp two-hypothesis data must recover the 0.6/0.4 point estimate."""
    try:
        (a, b), res = _estimate(fixtures / "table1.obs", 1.0, seed, restarts, ("a", "b"))
    except _UnparsedFixture as exc:
        return CheckResult("crisp-reproduction", False, str(exc))
    lo, hi = res.theta.lowers, res.theta.uppers
    ok = (
        0.595 <= lo[a] and hi[a] <= 0.605
        and 0.395 <= lo[b] and hi[b] <= 0.405
        and max(res.theta.widths) <= 1e-3
    )
    detail = (
        f"p(a)=[{lo[a]:.6f},{hi[a]:.6f}] p(b)=[{lo[b]:.6f},{hi[b]:.6f}]"
    )
    return CheckResult("crisp-reproduction", ok, detail)


def check_ignorance_column(fixtures: Path) -> CheckResult:
    """I^1 recomputed from each reference interval row matches the printed value."""
    try:
        rows = _parse(parse_expected_file, fixtures / "table4.expected")
    except _UnparsedFixture as exc:
        return CheckResult("ignorance-column", False, str(exc))
    worst = 0.0
    for row in rows:
        try:
            if row.i1 is None:
                raise ValueError("no I1 value")
            worst = max(worst, abs(ignorance(row.theta, 1.0) - row.i1))
        except ValueError as exc:  # the row's own fault: no I1, or an infeasible theta
            return CheckResult("ignorance-column", False,
                               f"table4.expected: row alpha={row.alpha:g}: {exc}")
    return CheckResult(
        "ignorance-column", worst <= 5e-4, f"max |I1 error| = {worst:.2e}"
    )


def check_objective_dominance(
    fixtures: Path,
    obs_name: str,
    expected_name: str,
    alphas,
    seed=42,
    restarts=64,
) -> list[CheckResult]:
    """Achieved objective must match or beat the reference row's objective."""
    names = [f"dominance-{obs_name.split('.')[0]}-alpha{alpha:g}" for alpha in alphas]
    try:
        obs = _parse(parse_observation_file, fixtures / obs_name)
        rows = {row.alpha: row for row in _parse(parse_expected_file, fixtures / expected_name)}
    except _UnparsedFixture as exc:
        return [CheckResult(name, False, str(exc)) for name in names]
    results = []
    for alpha, name in zip(alphas, names):
        if alpha not in rows:
            results.append(
                CheckResult(name, False, f"{expected_name} has no row alpha={alpha:g}")
            )
            continue
        try:  # obs is checked, so the row is at fault, or its frame is not obs's
            ref = objective(rows[alpha].theta, obs, alpha)
        except ValueError as exc:
            results.append(
                CheckResult(name, False, f"{expected_name}: row alpha={alpha:g}: {exc}"))
            continue
        cfg = EstimatorConfig(alpha=alpha, seed=seed, restarts=restarts)
        res = estimate(obs, cfg)
        ok = res.objective >= ref - 1e-3
        results.append(
            CheckResult(name, ok, f"achieved {res.objective:.6f} vs reference {ref:.6f}")
        )
    return results


def check_concentration(fixtures: Path, seed=42, restarts=64) -> CheckResult:
    """Alpha=1 on the trustworthiness data concentrates on VeryGood."""
    try:
        (i,), res = _estimate(fixtures / "table5.obs", 1.0, seed, restarts, ["VeryGood"])
    except _UnparsedFixture as exc:
        return CheckResult("verygood-concentration", False, str(exc))
    others_ok = all(
        res.theta.uppers[j] <= 0.01 for j in range(res.theta.frame.size) if j != i
    )
    ok = (
        res.theta.lowers[i] >= 0.99
        and others_ok
        and max(res.theta.widths) <= 1e-3
    )
    return CheckResult(
        "verygood-concentration",
        ok,
        f"P(VeryGood)=[{res.theta.lowers[i]:.6f},{res.theta.uppers[i]:.6f}]",
    )


def random_instance(rng: np.random.Generator):
    """One random (valid IBS, feasible theta) pair for the oracle check."""
    q = int(rng.integers(2, 5))
    frame = Frame(tuple(f"h{i}" for i in range(q)))
    subsets = [
        tuple(frame.hypotheses[j] for j in range(q) if mask >> j & 1)
        for mask in range(1, 2**q)
    ]
    n = int(rng.integers(2, min(len(subsets), 5) + 1))
    chosen = rng.choice(len(subsets), size=n, replace=False)
    # build the mass box around an interior point so validity holds
    point = rng.random(n) + 1e-3
    point /= point.sum()
    a = point * rng.random(n)
    b = point + (1.0 - point) * rng.random(n)
    entries = tuple(
        MassEntry(FocalElement.of(frame, subsets[int(s)]), float(a[k]), float(b[k]))
        for k, s in enumerate(chosen)
    )
    obs = IntervalBeliefStructure(frame, entries, label="random")
    w = rng.random(q) + 1e-3
    w /= w.sum()
    t_lo = w * rng.random(q)
    t_hi = w + (1.0 - w) * rng.random(q)
    theta = IntervalProbabilities(frame, tuple(t_lo), tuple(t_hi))
    return obs, theta


def check_oracle_equivalence(count=1000, seed=1234) -> CheckResult:
    """Greedy inner program vs vertex-enumeration brute force."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(count):
        obs, theta = random_instance(rng)
        report = validate_ibs(obs)
        if not report.ok:
            return CheckResult("inner-program-oracle", False,
                               f"generated instance {i} is invalid: "
                               f"{'; '.join(report.violations)}")
        like, _, _ = ibs_likelihood(obs, theta)
        brute = ibs_likelihood_bruteforce(obs, theta)
        worst = max(
            worst,
            abs(like.value.lo - brute.value.lo),
            abs(like.value.hi - brute.value.hi),
        )
    return CheckResult(
        "inner-program-oracle", worst <= 1e-9, f"max bound error = {worst:.2e}"
    )


def run_all(fixtures: Path | None = None, seed=42, restarts=64) -> Iterator[CheckResult]:
    """Run every check, yielding each result as its check completes."""
    fixtures = fixtures or fixture_dir()
    if not fixtures.is_dir():  # each check would fail on it alike
        code = errno.ENOTDIR if fixtures.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), str(fixtures))
    yield check_crisp_reproduction(fixtures, seed=seed, restarts=restarts)
    yield check_ignorance_column(fixtures)
    for alpha in (1.0, 2.0, 3.0):
        yield from check_objective_dominance(
            fixtures, "table3.obs", "table4.expected", [alpha],
            seed=seed, restarts=restarts,
        )
    yield check_concentration(fixtures, seed=seed, restarts=restarts)
    for alpha in (2.0, 3.0, 4.0, 5.0):
        yield from check_objective_dominance(
            fixtures, "table5.obs", "table6.expected", [alpha],
            seed=seed, restarts=restarts,
        )
    yield check_oracle_equivalence()
