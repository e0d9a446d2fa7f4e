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

`import nashprox` loads no submodule: each public name is loaded from its
module on first use (PEP 562), so a process compiles only the modules of
what it calls.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines; __all__ and __getattr__ read it
_EXPORTS = {
    "best_response": ("ContractionCertificate", "PbrComplexity", "PbrConfig",
                      "br_noise_gain", "contraction_certificate",
                      "pbr_complexity", "proximal_best_response", "run_pbr",
                      "saa_best_response"),
    "distributed": ("DistComplexity", "DistConfig", "DistRateConstants",
                    "dist_complexity", "dist_envelope_params",
                    "dist_rate_constants", "run_dist_pgr"),
    "errors": ("ConfigError", "Divergence", "InnerSolveFailure", "InvalidStep",
               "NoGeometricMixing", "NonConvergence", "NotStronglyMonotone"),
    "experiments": ("ExperimentSpec", "FitResult", "fit_linear_rate",
                    "run_experiment", "write_report_json", "write_trace_csv"),
    "games": ("AggregativeGame", "GameConstants", "QuadraticGame",
              "generate_cournot_game", "generate_quadratic_game",
              "gradient_map", "monotonicity_constants", "ne_error_bound",
              "ne_residual", "solve_ne_oracle"),
    "graphs": ("CommGraph", "MixingParams", "build_metropolis_weights",
               "complete_graph", "consensus_apply", "erdos_renyi_graph",
               "grid_graph", "mixing_params", "path_graph", "ring_graph"),
    "noise": ("GaussianNoise", "substream"),
    "pgr": ("PgrConfig", "RateConstants", "contraction_factor_q",
            "envelope_params", "rate_constants", "recommended_parameters",
            "run_pgr"),
    "prox": ("BoxIndicator", "L1", "Regularizer", "Zero", "prox_apply"),
    "sampling": ("BatchSchedule", "BestResponseBatch", "GeometricBatch",
                 "RootGeometricBatch", "SampleCounter", "check_schedule",
                 "sample_batch_gradient"),
    "serialize": ("CONFIG_SCHEMAS", "build_game", "build_graph",
                  "load_config", "validate_config"),
    "trace": ("RunTrace",),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
