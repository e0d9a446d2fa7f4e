"""Variable sample-size proximal solvers for stochastic Nash games.

Monotone games with composite objectives (smooth expected cost plus a
proximable regularizer) admit linearly convergent stochastic solvers when
the per-iteration sample batches grow geometrically. This package provides
three such schemes with matching rate and complexity calculators:

- run_pgr: centralized proximal gradient-response;
- run_dist_pgr: consensus-based gradient response for aggregative games on
  a communication graph;
- run_pbr: proximal best-response with inexactly sampled subproblems;

plus synthetic game generators with oracle-known equilibria, an experiment
harness with envelope checks and rate fitting, and a CLI (nashprox).
"""

from .best_response import (ContractionCertificate, PbrComplexity, PbrConfig,
                            br_noise_gain, contraction_certificate,
                            pbr_complexity, proximal_best_response, run_pbr,
                            saa_best_response)
from .distributed import (DistComplexity, DistConfig, DistRateConstants,
                          dist_complexity, dist_envelope_params,
                          dist_rate_constants, run_dist_pgr)
from .errors import (ConfigError, Divergence, InnerSolveFailure, InvalidStep,
                     NoGeometricMixing, NonConvergence, NotStronglyMonotone)
from .experiments import (ExperimentSpec, FitResult, fit_linear_rate,
                          run_experiment, write_report_json, write_trace_csv)
from .games import (AggregativeGame, GameConstants, QuadraticGame,
                    generate_cournot_game, generate_quadratic_game,
                    gradient_map, monotonicity_constants, ne_error_bound,
                    ne_residual, solve_ne_oracle)
from .graphs import (CommGraph, MixingParams, build_metropolis_weights,
                     complete_graph, consensus_apply, erdos_renyi_graph,
                     grid_graph, mixing_params, path_graph, ring_graph)
from .noise import GaussianNoise, substream
from .pgr import (PgrConfig, RateConstants, complexity_K, complexity_M,
                  contraction_factor_q, envelope_params, rate_constants,
                  recommended_parameters, run_pgr)
from .prox import BoxIndicator, L1, Regularizer, Zero, prox_apply
from .sampling import (BatchSchedule, BestResponseBatch, GeometricBatch,
                       RootGeometricBatch, SampleCounter, check_schedule,
                       sample_batch_gradient, schedule_size)
from .serialize import (CONFIG_SCHEMAS, build_game, build_graph, load_config,
                        validate_config)
from .trace import RunTrace

__version__ = "0.1.0"

__all__ = [
    "AggregativeGame", "BatchSchedule", "BestResponseBatch",
    "BoxIndicator", "CONFIG_SCHEMAS", "CommGraph", "ConfigError",
    "ContractionCertificate", "DistComplexity", "DistConfig",
    "DistRateConstants", "Divergence", "ExperimentSpec",
    "FitResult", "GameConstants", "GaussianNoise", "GeometricBatch",
    "InnerSolveFailure", "InvalidStep", "L1", "MixingParams",
    "NoGeometricMixing", "NonConvergence",
    "NotStronglyMonotone", "PbrComplexity", "PbrConfig", "PgrConfig",
    "QuadraticGame", "RateConstants", "Regularizer", "RootGeometricBatch",
    "RunTrace", "SampleCounter", "Zero",
    "br_noise_gain", "build_game", "build_graph",
    "build_metropolis_weights", "check_schedule", "complete_graph",
    "complexity_K", "complexity_M", "consensus_apply",
    "contraction_certificate", "contraction_factor_q", "dist_complexity",
    "dist_envelope_params", "dist_rate_constants", "envelope_params",
    "erdos_renyi_graph", "fit_linear_rate", "generate_cournot_game",
    "generate_quadratic_game", "gradient_map", "grid_graph", "load_config",
    "mixing_params", "monotonicity_constants",
    "ne_error_bound", "ne_residual", "path_graph", "pbr_complexity",
    "prox_apply", "proximal_best_response",
    "rate_constants", "recommended_parameters", "ring_graph",
    "run_dist_pgr", "run_experiment", "run_pbr", "run_pgr",
    "saa_best_response", "sample_batch_gradient", "schedule_size",
    "solve_ne_oracle", "substream", "validate_config",
    "write_report_json", "write_trace_csv",
]
