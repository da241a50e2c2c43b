"""The benchmark's workloads: inputs made from a seed, the timed calls into
ibsest, and the checks on every output.

paper-cells
    The paper's case studies at alpha=1 (table1, table3, table5), 64 restarts,
    ``workers=nproc``; the workload seed is the estimator seed.  Every restart
    converges within about 40 sweeps, so the batch of running restarts stays
    full.  Total sweeps vary by about 2% across seeds.
straggler-search
    table5 at alpha=2, 16 restarts, a budget of 250 sweeps per restart,
    ``workers=nproc``, two cells per pass.  In each cell exactly one restart
    uses the whole budget and the median restart takes about 21 sweeps, so
    one long restart sets the finishing time.  Such restart sets are
    uncommon, so the workload seed picks a pair of estimator seeds from
    ``STRAGGLER_PAIRS``, screened among seeds 0-34 for this shape; a random
    estimator seed would make the cost of a run depend on how many
    stragglers it happened to draw.  Where the long restart sits in restart
    order decides when it starts (in the pool it waits for the chunks
    before it), so each pair has it early in one cell and late in the
    other.  The budget is an eighth of the default so that a run holds
    several passes: at the default, one long restart alone takes about
    16 s on a two-core Intel Xeon VM.
score-large
    ``objective()`` on the scalar path at 64 seeded feasible points, alpha=2,
    over a generated input with q=10 hypotheses and n=256 observations of 2-5
    focal elements each.  It never enters the pattern search, and it is the
    only workload whose parse and validation show in the set-up time.
"""

from __future__ import annotations

import math
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ibsest import verify
from ibsest.belief import ObservationSet
from ibsest.estimator import EstimatorConfig, estimate, objective
from ibsest.intervalprob import IntervalProbabilities, ignorance
from ibsest.intervals import Interval, interval_distance
from ibsest.likelihood import ibs_likelihood_bruteforce, joint_likelihood

from tracing import substituted

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "ibsest" / "fixtures"

# Pairs of estimator seeds at which table5, alpha=2, 16 restarts, 250 sweeps
# has exactly one restart that exhausts its budget: in the first of each pair
# it is restart 3, 4, 2 or 7, in the second restart 15, 9, 8 or 13.  With two
# workers the four pairs cost the same within 2%, so the workload seed does
# not change the cost of a pass.
STRAGGLER_PAIRS = ((1, 16), (3, 17), (21, 30), (20, 28))

# A restart whose final objective is this close to its cell's best counts as
# agreeing with the winner.
AGREEMENT_TOL = 1e-9

_ZERO = Interval(0.0, 0.0)
# A likelihood interval large enough that its distance term shows in the
# objective; score-large substitutes it to check how objective() uses it.
SUBSTITUTE = Interval(0.25, 0.5)


@dataclass(frozen=True)
class Cell:
    table: str
    alpha: float
    seed: int
    restarts: int
    budget: int = EstimatorConfig.max_iterations_per_start

    def config(self, workers: int = 1) -> EstimatorConfig:
        return EstimatorConfig(alpha=self.alpha, seed=self.seed, restarts=self.restarts,
                               max_iterations_per_start=self.budget, workers=workers)

    @property
    def path(self) -> Path:
        return FIXTURES / f"{self.table}.obs"

    @property
    def label(self) -> str:
        return f"{self.table} alpha={self.alpha:g} seed={self.seed}"


@contextmanager
def _replayed(results: dict):
    """Let the ``ibsest.verify`` checks read estimates already made.

    The checks call ``estimate`` themselves; here that call returns the
    timed result for the same input, alpha, seed and restarts (the fields
    the checks set), so the thresholds are verify's own and nothing is
    searched twice.
    """
    saved = verify.estimate
    verify.estimate = lambda obs, cfg: results[(obs, cfg.alpha, cfg.seed, cfg.restarts)]
    try:
        yield
    finally:
        verify.estimate = saved


def _verify_check(cell: Cell) -> verify.CheckResult:
    if cell.table == "table1":
        return verify.check_crisp_reproduction(
            FIXTURES, seed=cell.seed, restarts=cell.restarts)
    if cell.table == "table5" and cell.alpha == 1.0:
        return verify.check_concentration(
            FIXTURES, seed=cell.seed, restarts=cell.restarts)
    expected = {"table3": "table4.expected", "table5": "table6.expected"}[cell.table]
    [result] = verify.check_objective_dominance(
        FIXTURES, cell.path.name, expected, [cell.alpha],
        seed=cell.seed, restarts=cell.restarts)
    return result


def search_stats(results: list) -> dict:
    """Counts from the ``RestartDiagnostics`` of ``estimate`` results."""
    restarts = [r for res in results for r in res.restarts]
    agree = sum(
        abs(r.objective - max(x.objective for x in res.restarts)) <= AGREEMENT_TOL
        for res in results for r in res.restarts
    )
    return {
        "sweeps": sum(r.sweeps for r in restarts),
        "max_restart_sweeps": max(r.sweeps for r in restarts),
        "converged_frac": sum(r.converged for r in restarts) / len(restarts),
        "winner_agreement": agree / len(restarts),
    }


class SearchWorkload:
    """One ``estimate`` call per cell."""

    def __init__(self, cells: list[Cell]):
        self.cells = cells

    def input_files(self, outdir: Path) -> list[Path]:
        return sorted({cell.path for cell in self.cells})

    def check_input(self, sets) -> dict:
        return {}

    def calls(self, sets: dict[Path, ObservationSet], workers: int) -> list:
        # ``estimate`` is looked up when a call runs, so that a tracer
        # active at that time sees it.
        return [lambda obs=sets[cell.path], cfg=cell.config(workers): estimate(obs, cfg)
                for cell in self.cells]

    def check(self, sets: dict[Path, ObservationSet], outputs: list) -> list[str]:
        """One entry per output: '' if it passes, else the reason."""
        results = {
            (sets[cell.path], cell.alpha, cell.seed, cell.restarts): res
            for cell, res in zip(self.cells, outputs)
        }
        reasons = []
        with _replayed(results):
            for cell, res in zip(self.cells, outputs):
                label = cell.label
                try:
                    ref = _verify_check(cell)
                    again = objective(res.theta, sets[cell.path], cell.alpha)
                except Exception as exc:  # a check that raises is a failure
                    reasons.append(f"{label}: {type(exc).__name__}: {exc}")
                    continue
                if not ref.passed:
                    reasons.append(f"{label}: {ref.name} failed: {ref.detail}")
                elif again != res.objective:
                    reasons.append(
                        f"{label}: objective {res.objective!r} but objective(theta)"
                        f" = {again!r}")
                else:
                    reasons.append("")
        return reasons

    @staticmethod
    def key(output):
        """What must be bit-identical between runs with any ``workers``."""
        return (output.theta.lowers, output.theta.uppers, output.objective,
                tuple(r.sweeps for r in output.restarts))

    def probe(self, sets) -> list:
        return []

    def labels(self) -> list[str]:
        return [cell.label for cell in self.cells]

    def exhausted(self, outputs: list) -> dict[str, list[int]]:
        """Per cell, the restarts that used their whole sweep budget."""
        return {cell.label: [r.restart for r in res.restarts
                             if not r.converged and r.sweeps == cell.budget]
                for cell, res in zip(self.cells, outputs)}

    def objective_mean(self, outputs: list) -> float:
        return float(np.mean([res.objective for res in outputs]))


def generate_observation_text(seed: int, q: int, n: int) -> str:
    """Observation-file text with ``q`` hypotheses and ``n`` observations.

    Each observation is built as in ``ibsest.verify.random_instance``: 2-5
    distinct focal elements drawn from all non-empty subsets, and a mass box
    [a, b] around a random interior point.  Masses are written with six
    decimals, lowers rounded down and uppers up, so sum(a) <= 1 <= sum(b)
    still holds after rounding.  The same seed gives the same bytes.
    """
    rng = np.random.default_rng(seed)
    names = [f"h{i}" for i in range(q)]
    lines = ["frame: " + ", ".join(names), ""]
    for k in range(n):
        size = int(rng.integers(2, 6))
        masks = rng.choice(2**q - 1, size=size, replace=False) + 1
        point = rng.random(size) + 1e-3
        point /= point.sum()
        a = point * rng.random(size)
        b = point + (1.0 - point) * rng.random(size)
        lines.append(f"obs: o{k}")
        for mask, lo, hi in zip(masks, a, b):
            members = ", ".join(names[j] for j in range(q) if int(mask) >> j & 1)
            lo6 = math.floor(lo * 1e6) / 1e6
            hi6 = min(math.ceil(hi * 1e6), 1_000_000) / 1e6
            lines.append(f"  {{{members}}} {lo6:.6f}, {hi6:.6f}")
        lines.append("")
    return "\n".join(lines)


def feasible_points(frame, count: int, rng: np.random.Generator):
    """Feasible interval probabilities drawn as in ``verify.random_instance``."""
    points = []
    for _ in range(count):
        w = rng.random(frame.size) + 1e-3
        w /= w.sum()
        lo = w * rng.random(frame.size)
        hi = w + (1.0 - w) * rng.random(frame.size)
        points.append(IntervalProbabilities(
            frame, tuple(float(v) for v in lo), tuple(float(v) for v in hi)))
    return points


def _bruteforce_joint(observations: ObservationSet, theta) -> Interval:
    lo = hi = 1.0
    for obs in observations.observations:
        b = ibs_likelihood_bruteforce(obs, theta, grid_depth=1).value
        lo *= b.lo
        hi *= b.hi
    return Interval(lo, hi)


class ScoreWorkload:
    """``objective()`` at seeded feasible points of a generated input."""

    q = 10
    n = 256
    alpha = 2.0
    points = 64
    oracle_points = 4  # checked against the brute-force inner program
    oracle_rtol = 1e-9

    def __init__(self, seed: int):
        self.seed = seed
        self._path: Path | None = None

    def input_files(self, outdir: Path) -> list[Path]:
        text = generate_observation_text(self.seed, self.q, self.n)
        self._path = outdir / f"score-large-seed{self.seed}.obs"
        self._path.write_text(text, encoding="utf-8")
        return [self._path]

    def _thetas(self, obs: ObservationSet):
        return feasible_points(obs.frame, self.points,
                               np.random.default_rng((self.seed, 1)))

    def calls(self, sets: dict[Path, ObservationSet], workers: int) -> list:
        obs = sets[self._path]
        return [lambda t=theta: objective(t, obs, self.alpha)
                for theta in self._thetas(obs)]

    def check_input(self, sets: dict[Path, ObservationSet]) -> dict:
        """The size must be outside the underflow regime: the joint lower
        bound at the median point must be a normal double.

        A point whose bound underflows is kept and counted, not drawn again,
        so that the underflow of the likelihood product shows: at one of
        seeds 0-119 (54) one point of 64 has a bound of 1.5e-309; elsewhere
        the least bound lies between 1e-211 and 1e-297.
        """
        obs = sets[self._path]
        los = [joint_likelihood(obs, theta).value.lo for theta in self._thetas(obs)]
        if not statistics.median(los) >= sys.float_info.min:
            raise RuntimeError(f"median joint lower bound {statistics.median(los)!r}"
                               f" is not a normal double at n={self.n}")
        return {"least_joint_lower_bound": min(los),
                "underflow_points": sum(not lo >= sys.float_info.min for lo in los)}

    def check(self, sets: dict[Path, ObservationSet], outputs: list) -> list[str]:
        """Each point's objective() call is made again with ``joint_likelihood``
        intercepted, and must return the timed value bit for bit.

        On this input the distance term is at most about 1e-10 of the
        ignorance term, below the checks' tolerance, so the value
        objective() returns shows almost nothing of the likelihood; only the
        likelihood computed inside the call shows whether objective()
        computed it, and computed it right.  So a call fails if it computed
        no likelihood through ``joint_likelihood``, and at a seeded sample
        of points also if that likelihood differs from the brute-force
        product, or if objective() ignores it: given a substituted
        likelihood interval, it must return that interval's distance minus
        the ignorance.
        """
        obs = sets[self._path]
        thetas = self._thetas(obs)
        rng = np.random.default_rng((self.seed, 2))
        sample = set(int(i) for i in rng.choice(len(thetas), self.oracle_points,
                                                replace=False))
        real = joint_likelihood
        captured = []

        def capture(*args, **kwargs):
            like = real(*args, **kwargs)
            captured.append(like)
            return like

        def substitute(*args, **kwargs):
            return replace(real(*args, **kwargs), value=SUBSTITUTE)

        def close(x, y):
            return abs(x - y) <= self.oracle_rtol * abs(y)

        reasons = []
        for i, (theta, value) in enumerate(zip(thetas, outputs)):
            captured.clear()
            with substituted(real, capture):
                again = objective(theta, obs, self.alpha)
            ign = ignorance(theta, self.alpha)
            if not math.isfinite(value) or again != value:
                reasons.append(f"point {i}: objective {value!r}, then {again!r}")
                continue
            if not captured:
                reasons.append(f"point {i}: objective() computed no joint_likelihood")
                continue
            like = captured[-1].value
            if not close(value, interval_distance(like, _ZERO) - ign):
                reasons.append(f"point {i}: objective {value!r} does not follow from"
                               f" its likelihood {like}")
                continue
            if i in sample:
                brute = _bruteforce_joint(obs, theta)
                with substituted(real, substitute):
                    forced = objective(theta, obs, self.alpha)
                want = interval_distance(SUBSTITUTE, _ZERO) - ign
                if not (close(like.lo, brute.lo) and close(like.hi, brute.hi)):
                    reasons.append(f"point {i}: likelihood {like} vs brute force"
                                   f" {brute}")
                    continue
                if not close(forced, want):
                    reasons.append(f"point {i}: with likelihood {SUBSTITUTE} objective"
                                   f" is {forced!r}, not {want!r}")
                    continue
            reasons.append("")
        return reasons

    @staticmethod
    def key(output):
        return output

    def probe(self, sets: dict[Path, ObservationSet]) -> list:
        """One pattern-search sweep from the uniform start, so that the
        search-path layers have a figure on this input too (traced run only)."""
        cfg = EstimatorConfig(alpha=self.alpha, seed=self.seed, restarts=1,
                              max_iterations_per_start=1)
        return [estimate(sets[self._path], cfg)]

    def objective_mean(self, outputs: list) -> float:
        return float(np.mean(outputs))


def make(name: str, seed: int):
    if name == "paper-cells":
        cells = [Cell("table1", 1.0, seed, 64), Cell("table3", 1.0, seed, 64),
                 Cell("table5", 1.0, seed, 64)]
        return SearchWorkload(cells)
    if name == "straggler-search":
        pair = STRAGGLER_PAIRS[seed % len(STRAGGLER_PAIRS)]
        return SearchWorkload([Cell("table5", 2.0, s, 16, budget=250) for s in pair])
    if name == "score-large":
        return ScoreWorkload(seed)
    raise KeyError(name)


NAMES = ("paper-cells", "straggler-search", "score-large")
