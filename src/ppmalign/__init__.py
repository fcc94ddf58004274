"""Joint discrete alignment from noisy pairwise modulo differences.

Recover hidden labels x_1, ..., x_n in Z_m from noisy observations of the
pairwise differences x_i - x_j (mod m).  The pipeline: lift the problem to
a symmetric matrix of circulant blocks, take the top singular subspace for
a warm start, then run projected power iterations over a product of
simplices.  A permutation-valued variant solves joint feature matching
with per-block linear assignments.
"""

from .blockmat import CirculantBlockMatrix, build
from .exceptions import ConfigError, MissingSigmaError, RegularizationRequiredError
from .harness import (
    ExperimentConfig,
    build_config,
    iterations_to_recovery,
    parse_config_text,
    parse_mu_spec,
    run_single,
    run_sweep,
    run_trial,
    sweep_csv,
    threshold_table,
)
from .likelihood import (
    NoiseDistribution,
    PairwiseObservations,
    kl_min_max,
    modified_gaussian,
    random_corruption,
    regularize,
    regularize_observations,
    sample_observations,
    threshold_kl,
    threshold_random_corruption,
)
from .matching import (
    DenseBlockMatrix,
    MatchObservations,
    MatchReport,
    input_mismatch_rate,
    lap_project,
    match_solve,
    mismatch_rate,
    sample_match_observations,
)
from .simplex import project_blockwise
from .solver import (
    ContractionReport,
    ScalingPolicy,
    SolveReport,
    check_contraction,
    default_iterations,
    labels_of,
    lift,
    mcr,
    solve,
)
from .spectral import LowRankFactor, initial_guess, orthogonal_iteration

__version__ = "0.1.0"

__all__ = [
    "CirculantBlockMatrix",
    "ConfigError",
    "ContractionReport",
    "DenseBlockMatrix",
    "ExperimentConfig",
    "LowRankFactor",
    "MatchObservations",
    "MatchReport",
    "MissingSigmaError",
    "NoiseDistribution",
    "PairwiseObservations",
    "RegularizationRequiredError",
    "ScalingPolicy",
    "SolveReport",
    "build",
    "build_config",
    "check_contraction",
    "default_iterations",
    "initial_guess",
    "input_mismatch_rate",
    "iterations_to_recovery",
    "kl_min_max",
    "labels_of",
    "lap_project",
    "lift",
    "match_solve",
    "mcr",
    "mismatch_rate",
    "modified_gaussian",
    "orthogonal_iteration",
    "parse_config_text",
    "parse_mu_spec",
    "project_blockwise",
    "random_corruption",
    "regularize",
    "regularize_observations",
    "run_single",
    "run_sweep",
    "run_trial",
    "sample_match_observations",
    "sample_observations",
    "solve",
    "sweep_csv",
    "threshold_kl",
    "threshold_random_corruption",
    "threshold_table",
]
