"""Estimation of interval-valued probability distributions from
crisp or interval-valued belief-structure observations."""

__version__ = "0.2.0"  # the only version literal; pyproject.toml and reports read it

from .belief import (
    Frame,
    FocalElement,
    IntervalBeliefStructure,
    MassEntry,
    ObservationSet,
    ValidityReport,
    is_crisp,
    validate_ibs,
)
from .estimator import (
    EstimationResult,
    EstimatorConfig,
    alpha_sweep,
    estimate,
    objective,
)
from .intervalprob import (
    IntervalProbabilities,
    ignorance,
    is_feasible,
    sample_feasible_points,
)
from .intervals import Interval, interval_distance
from .likelihood import (
    InnerProgramSolution,
    LikelihoodInterval,
    ibs_likelihood,
    ibs_likelihood_bruteforce,
    joint_likelihood,
    singleton_likelihood,
    subset_likelihood,
)

__all__ = [
    "Frame",
    "FocalElement",
    "IntervalBeliefStructure",
    "MassEntry",
    "ObservationSet",
    "ValidityReport",
    "is_crisp",
    "validate_ibs",
    "Interval",
    "interval_distance",
    "IntervalProbabilities",
    "is_feasible",
    "ignorance",
    "sample_feasible_points",
    "LikelihoodInterval",
    "InnerProgramSolution",
    "singleton_likelihood",
    "subset_likelihood",
    "ibs_likelihood",
    "ibs_likelihood_bruteforce",
    "joint_likelihood",
    "EstimatorConfig",
    "EstimationResult",
    "objective",
    "estimate",
    "alpha_sweep",
]
