"""Joint discrete alignment from noisy pairwise modulo differences.

Recover hidden labels x_1, ..., x_n in Z_m from noisy observations of the
pairwise differences x_i - x_j (mod m).  The pipeline: lift the problem to
a symmetric matrix of circulant blocks, take the top singular subspace for
a warm start, then run projected power iterations over a product of
simplices.  A permutation-valued variant solves joint feature matching
with per-block linear assignments.
"""

from .blockmat import CirculantBlockMatrix, build, expected_matrix, separation
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
    with_overrides,
)
from .likelihood import (
    NoiseDistribution,
    PairwiseObservations,
    entropy,
    hellinger_sq,
    kl,
    kl_min_max,
    loglik_block,
    modified_gaussian,
    random_corruption,
    regularize,
    regularize_observations,
    sample_observations,
    shift_distribution,
    threshold_kl,
    threshold_random_corruption,
    total_variation,
)
from .matching import (
    DenseBlockMatrix,
    MatchObservations,
    MatchReport,
    input_mismatch_rate,
    lap_project,
    match_solve,
    mismatch_rate,
    perm_matrix,
    sample_match_observations,
)
from .simplex import is_feasible, project_blockwise, project_simplex, round_to_vertex
from .solver import (
    ContractionReport,
    ScalingPolicy,
    SolveReport,
    check_contraction,
    default_iterations,
    dist_mod_shift,
    labels_of,
    lift,
    mcr,
    shift_labels,
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
    "dist_mod_shift",
    "entropy",
    "expected_matrix",
    "hellinger_sq",
    "initial_guess",
    "input_mismatch_rate",
    "is_feasible",
    "iterations_to_recovery",
    "kl",
    "kl_min_max",
    "labels_of",
    "lap_project",
    "lift",
    "loglik_block",
    "match_solve",
    "mcr",
    "mismatch_rate",
    "modified_gaussian",
    "orthogonal_iteration",
    "parse_config_text",
    "parse_mu_spec",
    "perm_matrix",
    "project_blockwise",
    "project_simplex",
    "random_corruption",
    "regularize",
    "regularize_observations",
    "round_to_vertex",
    "run_single",
    "run_sweep",
    "run_trial",
    "sample_match_observations",
    "sample_observations",
    "separation",
    "shift_distribution",
    "shift_labels",
    "solve",
    "sweep_csv",
    "threshold_kl",
    "threshold_random_corruption",
    "threshold_table",
    "total_variation",
    "with_overrides",
]
