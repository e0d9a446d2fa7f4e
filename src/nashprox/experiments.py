"""Experiments: replicated runs with envelope checks, rate fitting, and
deterministic CSV/JSON outputs. A run's report is the dict that
report.json holds, every value a JSON builtin where it is made."""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import asdict, dataclass, replace
from importlib import import_module
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError
from .games import (QuadraticGame, monotonicity_constants, ne_error_bound,
                    solve_ne_oracle)
from .pgr import PgrConfig, pgr_iterations, pgr_theory, run_pgr
from .prox import compiled_prox
from .sampling import GeometricBatch, RootGeometricBatch, check_schedule
from .serialize import build_game, build_graph, validate_config
from .trace import RunTrace, check_start


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_linear_rate(errors, window: tuple[int, int]) -> FitResult:
    """Least-squares fit of ln(errors[k]) against k.

    window = (lo, hi) selects indices lo..hi inclusive. Nonpositive or
    non-finite entries are dropped with a warning; fewer than 3 usable
    points is an error. The slope estimates the empirical log-rate.
    """
    err = np.asarray(errors, dtype=float)
    lo, hi = int(window[0]), int(window[1])
    if not (0 <= lo <= hi < err.size):
        raise ValueError(
            f"window {window} out of range for {err.size} error entries")
    ks = np.arange(lo, hi + 1)
    vals = err[lo:hi + 1]
    keep = np.isfinite(vals) & (vals > 0.0)
    if not np.all(keep):
        warnings.warn(
            f"dropped {int((~keep).sum())} nonpositive or non-finite error "
            f"entries from the rate fit")
    ks, vals = ks[keep], vals[keep]
    if ks.size < 3:
        raise ValueError(
            f"rate fit needs at least 3 usable points, got {ks.size}")
    logs = np.log(vals)
    slope, intercept = np.polyfit(ks, logs, 1)
    pred = slope * ks + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(slope=float(slope), intercept=float(intercept),
                     r_squared=r_squared, n_points=int(ks.size))


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated experiment description ready to run."""

    scheme: str
    solver: dict
    game: dict | None = None
    graph: dict | None = None
    seed: int = 0
    replications: int = 1
    x0: tuple[float, ...] | None = None
    fit: dict | None = None

    @classmethod
    def from_config(cls, doc: dict, scheme: str | None = None) -> ExperimentSpec:
        """The spec of a config document, which is validated here only."""
        doc = validate_config(doc, scheme)
        scheme = scheme or doc["scheme"]
        if scheme in SCHEMES:  # so that set-up, not the run, loads them
            for module in SCHEMES[scheme].modules:
                import_module(module, __package__)
        solver = dict(doc["solver"])
        if "max_iter" in solver:  # the one integer solver key; may be 5.0
            solver["max_iter"] = int(solver["max_iter"])
        return cls(scheme=scheme, solver=solver,
                   game=doc.get("game"), graph=doc.get("graph"),
                   seed=int(doc.get("seed", 0)),
                   replications=int(doc.get("replications", 1)),
                   x0=tuple(doc["x0"]) if "x0" in doc else None,
                   fit=doc.get("fit"))


def _spec_x0(spec: ExperimentSpec, game: QuadraticGame) -> np.ndarray:
    if spec.x0 is not None:  # check_start checks its shape
        return np.array(spec.x0, dtype=float)
    if game.aggregate is not None:
        return game.midpoint()
    return compiled_prox(game.regularizers, game.dims, 1.0)(np.zeros(game.dim))


def _envelope_check(mean_errors: np.ndarray, constant: float,
                    rate: float) -> dict:
    ks = np.arange(mean_errors.size)
    envelope = constant * rate ** ks
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = mean_errors / envelope
    # a zero error meets even a zero envelope
    ratios[mean_errors == 0.0] = 0.0
    max_ratio = float(np.nanmax(ratios))
    return {"constant": constant, "rate": rate,
            "log_rate": math.log(rate), "ok": bool(max_ratio <= 1.0 + 1e-9),
            "max_ratio": max_ratio}


def _fit_dict(mean_errors: np.ndarray, window: tuple[int, int]) -> dict:
    """The rate fit over window, or, when it has too few points (mean
    errors that are exactly 0, or the two of a one-iteration run's
    default window), the reason it has none."""
    if not np.any(mean_errors):
        return {"reason": "every mean error is 0, so there is no rate to fit "
                          "(the run starts at the equilibrium and stays "
                          "there)", "window": list(window)}
    try:
        fit = fit_linear_rate(mean_errors, window=window)
    except ValueError as err:  # prepare_experiment checked the range
        return {"reason": str(err), "window": list(window)}
    return dict(asdict(fit), window=list(window))


# A scheme's setup step takes (spec, game, x0, x*, eps), where spec.solver
# holds no target_eps and eps is its value or None, and returns (solve,
# fields, envelope, loop): solve(ids) runs those replications into one
# RunTrace with the solver config the setup resolved, fields holds the
# scheme's report fields ("theory", and "graph" for dist-pgr; dist-pgr's
# solve adds what the run showed of consensus to theory), envelope is the
# (constant, rate) the mean errors are checked against, and loop is the
# (schedule, iterations, noise levels, noise dims) of its run. The dist-pgr
# and pbr steps import their solver modules when they run, so a process
# loads only the schemes it runs, and a solver patched or wrapped on its
# defining module is the one they call.

def _pgr_setup(spec, game, x0, x_star, eps):
    consts, config = game.constants, PgrConfig(**spec.solver, seed=spec.seed)
    c_start = float(np.linalg.norm(x0 - x_star)) ** 2
    theory, envelope = pgr_theory(consts.eta, consts.lip, config.alpha,
                                  config.rho, consts.nu, c_start, eps)
    theory["c_start"] = c_start
    config = replace(config, max_iter=pgr_iterations(theory, config.max_iter))
    return (lambda reps: run_pgr(game, config, x0, x_star, replications=reps),
            {"theory": theory}, envelope, (GeometricBatch(config.rho),
            config.max_iter, *game.noise_blocks))


def _dist_setup(spec, game, x0, x_star, eps):
    from .distributed import (DistConfig, dist_rate_constants, dist_theory,
                              run_dist_pgr)
    from .graphs import mixing_params

    g = spec.graph
    nodes = int(g["rows"]) * int(g["cols"]) if "rows" in g else int(g["nodes"])
    if nodes != game.n_players:  # before the graph is built at that size
        raise ValueError(f"graph has {nodes} nodes for {game.n_players} "
                         f"players")
    graph = build_graph(g)
    config = DistConfig(**spec.solver, seed=spec.seed)
    rc = dist_rate_constants(game, graph, config.alpha, config.beta)
    theory, envelope = dist_theory(
        rc, float(np.linalg.norm(x0 - x_star)) ** 2, eps)

    def solve(reps):
        trace = run_dist_pgr(game, graph, config, x_star, replications=reps,
                             x0=x0)
        cerr = np.max(trace.consensus_errors, axis=0)
        cerr_bound = rc.m_compact * rc.theta * rc.beta ** np.asarray(
            trace.taus)
        theory.update(
            consensus_bound_ok=bool(np.all(cerr <= cerr_bound + 1e-12)),
            max_consensus_error=float(np.max(cerr)))
        return trace
    fields = {"theory": theory,
              "graph": dict(asdict(mixing_params(graph)), nodes=graph.n_nodes,
                            edges=len(graph.edges))}
    return (solve, fields, envelope, (RootGeometricBatch(rc.beta),
            config.max_iter, game.constants.nu_i, game.dims))


def _pbr_setup(spec, game, x0, x_star, eps):
    from .best_response import (PbrConfig, check_contractive,
                                contraction_certificate, pbr_theory,
                                resolved_schedule, run_pbr)

    s = dict(spec.solver)
    eta_tilde = s.pop("eta_tilde", None)  # pbr_theory's, not the run's
    config = PbrConfig(**s, seed=spec.seed)
    cert = contraction_certificate(game, config.mu)
    check_contractive(cert)
    schedule = resolved_schedule(game, config)
    c_start = max(float(np.linalg.norm(x0[sl] - x_star[sl]))
                  for sl in map(game.block_slice, range(game.n_players)))
    theory, envelope = pbr_theory(schedule, cert.a, game.n_players, c_start,
                                  eps, eta_tilde)
    return (lambda reps: run_pbr(game, config, x0, x_star, replications=reps),
            {"theory": theory}, envelope,
            (schedule, config.max_iter, game.constants.nu_i, game.dims))


class _Scheme(NamedTuple):
    """What a solver scheme adds to the shared experiment protocol: its
    setup step, its trace.csv columns between k and replication_id as
    (header, RunTrace field) pairs, and the modules its setup step
    imports, which ExperimentSpec.from_config loads."""

    setup: Callable
    columns: tuple[tuple[str, str], ...]
    modules: tuple[str, ...] = ()


SCHEMES = {
    "pgr": _Scheme(_pgr_setup, (
        ("N_k", "batches"), ("cum_samples", "cum_samples"),
        ("cum_prox", "cum_prox"), ("sq_error", "errors"))),
    "dist-pgr": _Scheme(_dist_setup, (
        ("N_k", "batches"), ("tau_k", "taus"),
        ("cum_samples", "cum_samples"), ("cum_prox", "cum_prox"),
        ("cum_comm", "cum_comm"), ("consensus_error", "consensus_errors"),
        ("sq_error", "errors")), (".distributed",)),
    "pbr": _Scheme(_pbr_setup, (
        ("batch_N_k", "batches"), ("cum_samples", "cum_samples"),
        ("inner_solves", "cum_inner"), ("error_norm", "errors")),
        (".best_response",)),
}


def _run_bounds(spec: ExperimentSpec) -> dict:
    s = dict(spec.solver)
    theory, (constant, rate) = pgr_theory(
        s["eta"], s["lip"], s["alpha"], s["rho"], s["nu"], s["c_start"],
        s["eps"], s.get("rho_tilde"))
    theory.update(envelope_constant=constant, envelope_rate=rate)
    return {"scheme": "bounds", "seed": spec.seed,
            "replications": spec.replications, "solver": s, "theory": theory}


def prepare_experiment(spec: ExperimentSpec) -> tuple[dict, Callable]:
    """Make every check run_experiment makes before the solver runs (the
    batch schedule and the fit window included), raising what it would
    raise. Returns the report.json fields known by then (for a solver
    scheme: game_constants, equilibrium, oracle_error_bound, theory, and
    graph for dist-pgr) and the function that runs the rest and returns
    (report, trace), trace None for bounds."""
    if spec.scheme == "bounds":
        report = _run_bounds(spec)
        return report, lambda: (report, None)
    if spec.scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme '{spec.scheme}'")
    scheme = SCHEMES[spec.scheme]
    game = build_game(spec.game, spec.seed)
    if spec.scheme == "dist-pgr" and game.aggregate is None:
        raise ConfigError("the distributed scheme needs an aggregative game")
    consts = monotonicity_constants(game)
    x_star = solve_ne_oracle(game)
    oracle_error_bound = ne_error_bound(game, x_star)
    x0 = _spec_x0(spec, game)
    check_start(x0, x_star, game.dims)
    solver = dict(spec.solver)
    eps = solver.pop("target_eps", None)
    solve, fields, envelope, (schedule, n_iter, _, noise_dims) = \
        scheme.setup(replace(spec, solver=solver), game, x0, x_star, eps)
    check_schedule(schedule, n_iter, max(noise_dims))
    fit_doc = spec.fit or {}
    if "window" in fit_doc:  # rejected as the run's fit would reject it
        window = tuple(map(int, fit_doc["window"]))
        fit_linear_rate(np.ones(n_iter + 1), window=window)
    elif "skip" in fit_doc:  # the window (skip, n_iter), held to its rule
        window = (int(fit_doc["skip"]), n_iter)
        if window[0] > n_iter - 2:  # a fit needs 3 points
            largest = (f"the largest skip is {n_iter - 2}" if n_iter > 1
                       else "no skip leaves the 3 points a rate fit needs")
            raise ValueError(f"fit.skip = {window[0]} is too large for the "
                             f"run's {n_iter} iteration{'s' * (n_iter > 1)}; "
                             f"{largest}")
    else:  # in range; on a one-iteration run, two points and no fit
        window = (min(5, max(0, n_iter - 3)), n_iter)
    fields.update(scheme=spec.scheme, seed=spec.seed,
                  replications=spec.replications, solver=dict(spec.solver),
                  game_constants=dict(asdict(consts),
                                      nu_i=list(consts.nu_i)),
                  equilibrium=x_star.tolist(),
                  oracle_error_bound=oracle_error_bound)

    def run():
        trace = solve(range(spec.replications))
        mean_errors = np.mean(trace.errors, axis=0)
        fields["theory"]["envelope"] = _envelope_check(mean_errors, *envelope)
        return dict(fields, counters=asdict(trace.counter),
                    iterations=n_iter, mean_final_error=float(mean_errors[-1]),
                    fit=_fit_dict(mean_errors, window)), trace
    return fields, run


def run_experiment(spec: ExperimentSpec, out_dir: str | None = None) -> dict:
    """Run the replicated experiment an ExperimentSpec describes and return
    its report, the dict report.json holds.

    When out_dir is given, writes trace.csv (one row per executed iteration
    per replication) and report.json there; both byte-stable for a fixed
    spec on one platform.
    """
    _, run = prepare_experiment(spec)
    report, trace = run()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        if trace is not None:
            write_trace_csv(os.path.join(out_dir, "trace.csv"), spec.scheme,
                            trace)
        write_report_json(os.path.join(out_dir, "report.json"), report)
    return report


def write_trace_csv(path: str, scheme: str, trace: RunTrace) -> None:
    """Write the per-iteration trace table, one row per executed iteration
    per replication, replication by replication (error columns record the
    state entering each iteration). The shared cells of row k are
    formatted once, into a template with a %r slot per per-row float (the
    repr a csv writer gives a float) and a %d slot for the replication id;
    each replication fills the n templates with one % and one write."""
    columns, n = SCHEMES[scheme].columns, trace.iterations
    # shared columns are lists of n entries, per-row ones (R, >= n) arrays
    cols = [getattr(trace, field) for _, field in columns]
    per_row = [c for c in cols if isinstance(c, np.ndarray)]
    template = "".join(",".join([str(k), *(
        "%r" if isinstance(c, np.ndarray) else str(c[k]) for c in cols),
        "%d\n"]) for k in range(n))
    width = len(per_row) + 1
    values = [0] * (n * width)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["k", *(header for header, _ in columns),
                           "replication_id"]) + "\n")
        for rep in range(len(trace.errors)):
            for j, c in enumerate(per_row):
                values[j::width] = c[rep, :n].tolist()
            values[width - 1::width] = [rep] * n
            fh.write(template % tuple(values))


def write_report_json(path: str, report: dict) -> None:
    """Write a report as strict JSON. Each non-finite float is written as
    null and listed in a top-level `nonfinite` object, which maps its key
    path ("mean_final_error", "theory.envelope.values[3]") to the token
    it stands for ("Infinity", "-Infinity" or "NaN"); the key is written
    only when some value is non-finite. The report itself is not
    changed."""
    import json

    def strict(value, key: str):
        if isinstance(value, float) and not math.isfinite(value):
            nonfinite[key] = json.dumps(value)
            return None
        if isinstance(value, dict):
            return {k: strict(v, f"{key}.{k}" if key else k)
                    for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [strict(v, f"{key}[{i}]") for i, v in enumerate(value)]
        return value

    nonfinite = {}
    clean = strict(report, "")
    if nonfinite:
        clean["nonfinite"] = nonfinite
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(clean, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
