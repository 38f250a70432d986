"""Simulation and verification laboratory for uniform random caterpillars.

Exact per-instance topological indices (Gini, Hoover, Zagreb, Randic, Wiener,
hyper-Wiener), closed-form theory evaluators for their means and limits,
exhaustive-enumeration oracles, and a seeded Monte Carlo harness that
reproduces the published numerical experiments for this random tree class.
"""

from .caterpillar import (
    AdjacencyGraph,
    Caterpillar,
    RngSeed,
    degree_sequence,
    grow_step,
    new_spine,
    to_adjacency,
)
from .errors import CatlabError, DomainError, ResourceLimitError, ValidityError
from .experiments import DEFAULT_SEED, ExperimentConfig, run_mc
from .indices import (
    IndexSpec,
    hyper_wiener,
    randic,
    wiener,
    zagreb,
)
from .oracle import ExactMoments, enumerate_exact

__version__ = "0.1.0"

__all__ = [
    "AdjacencyGraph",
    "Caterpillar",
    "CatlabError",
    "DEFAULT_SEED",
    "DomainError",
    "ExactMoments",
    "ExperimentConfig",
    "IndexSpec",
    "ResourceLimitError",
    "RngSeed",
    "ValidityError",
    "__version__",
    "degree_sequence",
    "enumerate_exact",
    "grow_step",
    "hyper_wiener",
    "new_spine",
    "randic",
    "run_mc",
    "to_adjacency",
    "wiener",
    "zagreb",
]
