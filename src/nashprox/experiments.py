"""Experiment harness: synthetic game generators, rate fitting, replicated
runs with envelope checks, and deterministic CSV/JSON outputs."""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .best_response import (PbrConfig, contraction_certificate, pbr_complexity,
                            pbr_envelope, resolved_schedule, run_pbr)
from .distributed import (DistConfig, dist_complexity, dist_envelope_params,
                          dist_rate_constants, run_dist_pgr)
from .errors import ConfigError
from .games import (AggregativeGame, Game, QuadraticGame,
                    monotonicity_constants, ne_error_bound, solve_ne_oracle)
from .graphs import mixing_params
from .noise import GaussianNoise, substream
from .pgr import (PgrConfig, complexity_K, complexity_M, envelope_params,
                  rate_constants, run_pgr)
from .profiles import StrategyProfile
from .prox import prox_profile
from .serialize import as_builtin, build_game, build_graph, validate_config
from .trace import RunTrace


def generate_quadratic_game(n_players: int, dim: int, coupling_strength: float,
                            seed: int = 0, nu: float = 0.0) -> QuadraticGame:
    """Random strongly monotone block-quadratic game.

    Own blocks are I + 0.5 A'A/dim (eigenvalues in [1, about 3]); coupling
    blocks have spectral norm at most coupling_strength / (N - 1), so the
    monotonicity modulus stays at least 1 - coupling_strength.
    """
    if n_players < 1 or dim < 1:
        raise ValueError("n_players and dim must be >= 1")
    if not (0.0 <= coupling_strength < 1.0):
        raise ValueError(
            f"coupling_strength must lie in [0, 1), got {coupling_strength}")
    dims = (dim,) * n_players
    n = n_players * dim
    rng = substream(seed, 7001)
    h = np.zeros((n, n))
    for i in range(n_players):
        a = rng.standard_normal((dim, dim))
        block = np.eye(dim) + 0.5 * (a.T @ a) / dim
        h[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim] = block
    if n_players > 1:
        cap = coupling_strength / (n_players - 1)
        for i in range(n_players):
            for j in range(n_players):
                if i != j:
                    b = rng.standard_normal((dim, dim))
                    norm = np.linalg.norm(b, 2)
                    if norm > 0:
                        b = b * (cap / norm)
                    h[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = b
    return QuadraticGame(dims=dims, h=h, c=rng.standard_normal(n),
                         noise=GaussianNoise(nu))


def generate_cournot_game(n_players: int, seed: int = 0, a=None, b=None,
                          d: float = 2.0, c_price: float = 1.0,
                          lo=0.0, hi=1.0, nu=0.0) -> AggregativeGame:
    """Cournot game with given or randomly drawn cost parameters.

    a (quadratic cost) defaults to U[1, 2] draws, b (linear cost) to
    U[0, 0.2]; lo, hi, nu broadcast over players.
    """
    if n_players < 1:
        raise ValueError("n_players must be >= 1")
    rng = substream(seed, 7002)
    a = np.broadcast_to(np.asarray(
        rng.uniform(1.0, 2.0, n_players) if a is None else a,
        dtype=float), (n_players,))
    b = np.broadcast_to(np.asarray(
        rng.uniform(0.0, 0.2, n_players) if b is None else b,
        dtype=float), (n_players,))
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n_players,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n_players,))
    nu = np.broadcast_to(np.asarray(nu, dtype=float), (n_players,))
    return AggregativeGame(a=tuple(float(v) for v in a),
                           b=tuple(float(v) for v in b), d=float(d),
                           c_price=float(c_price), lo=tuple(float(v) for v in lo),
                           hi=tuple(float(v) for v in hi),
                           noises=tuple(map(GaussianNoise, nu)))


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_linear_rate(errors, window: tuple[int, int] | None = None,
                    skip: int = 5) -> FitResult:
    """Least-squares fit of ln(errors[k]) against k.

    window = (lo, hi) selects indices lo..hi inclusive; the default starts
    at `skip` (transients excluded) and ends at the last index. Nonpositive
    or non-finite entries are dropped with a warning; fewer than 3 usable
    points is an error. The slope estimates the empirical log-rate.
    """
    err = np.asarray(errors, dtype=float)
    if window is None:
        window = (skip, err.size - 1)
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
        solver = dict(doc["solver"])
        if "max_iter" in solver:  # the one integer solver key; may be 5.0
            solver["max_iter"] = int(solver["max_iter"])
        return cls(scheme=scheme, solver=solver,
                   game=doc.get("game"), graph=doc.get("graph"),
                   seed=int(doc.get("seed", 0)),
                   replications=int(doc.get("replications", 1)),
                   x0=tuple(doc["x0"]) if "x0" in doc else None,
                   fit=doc.get("fit"))


@dataclass(frozen=True)
class RunReport:
    """Summary of an experiment: the fields of report.json, which as_dict()
    returns JSON-ready and deterministic."""

    fields: dict

    def as_dict(self) -> dict:
        return as_builtin(self.fields)


def _spec_x0(spec: ExperimentSpec, game: Game) -> StrategyProfile:
    if spec.x0 is not None:
        return StrategyProfile.from_vector(np.asarray(spec.x0, dtype=float),
                                           game.dims)
    if isinstance(game, AggregativeGame):
        return game.midpoint()
    return prox_profile(game.regularizers, StrategyProfile.zeros(game.dims),
                        1.0)


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


def _fit_dict(mean_errors: np.ndarray, fit_doc: dict | None,
              max_k: int) -> dict:
    if not np.any(mean_errors):
        raise ValueError("every mean error is 0, so there is no rate to fit "
                         "(the run starts at the equilibrium and stays there)")
    fit_doc = fit_doc or {}
    skip = int(fit_doc.get("skip", 5))
    window = tuple(map(int, fit_doc["window"])) if "window" in fit_doc \
        else (min(skip, max(0, max_k - 3)), max_k)
    fit = fit_linear_rate(mean_errors, window=window)
    return {"slope": fit.slope, "intercept": fit.intercept,
            "r_squared": fit.r_squared, "n_points": fit.n_points,
            "window": list(window)}


# A scheme's setup step takes (spec, game, x0, x*) and returns (solve,
# fields, envelope, finish): solve(ids) runs those replications into one
# RunTrace with the solver config the setup resolved, fields holds the
# scheme's report fields known before the run ("theory", and "graph" for
# dist-pgr), envelope is the (constant, rate) the mean errors are checked
# against, and finish(trace), or None, adds what the run showed to theory.
# Solvers are called through their module globals at call time.

def _pgr_setup(spec, game, x0, x_star):
    s, consts = spec.solver, game.constants
    config = PgrConfig(alpha=s["alpha"], rho=s["rho"], max_iter=s["max_iter"],
                       seed=spec.seed, target_eps=s.get("target_eps"))
    c_start = x0.distance(x_star) ** 2
    rc = rate_constants(consts.eta, consts.lip, config.alpha, config.rho,
                        consts.nu, c_start)
    theory = {"q": rc.q, "c_start": c_start, "c_rho_q": rc.c_rho_q,
              "d_tilde": rc.d_tilde, "rho_tilde": rc.rho_tilde}
    if config.target_eps is not None:
        theory["k_eps"] = complexity_K(rc, config.rho, config.target_eps)
        theory["m_eps"] = complexity_M(rc, config.rho, config.target_eps)
    return (lambda reps: run_pgr(game, config, x0, x_star, replications=reps),
            {"theory": theory}, envelope_params(rc, config.rho), None)


def _dist_setup(spec, game, x0, x_star):
    s = spec.solver
    graph = build_graph(spec.graph)
    mp = mixing_params(graph)
    config = DistConfig(alpha=s["alpha"], max_iter=s["max_iter"],
                        beta=s.get("beta", mp.beta), seed=spec.seed)
    rc = dist_rate_constants(game, graph, config.alpha, beta=config.beta,
                             theta=mp.theta)
    c_start = x0.distance(x_star) ** 2
    theory = {"varrho": rc.varrho, "c1": rc.c1, "c2": rc.c2, "c3": rc.c3,
              "m_compact": rc.m_compact, "beta": config.beta,
              "theta": mp.theta, "c_start": c_start}
    if s.get("target_eps") is not None:
        comp = dist_complexity(rc, config.beta, s["target_eps"], c_start)
        theory.update(k_eps=comp.k_eps, comm_eps=comp.comm_rounds,
                      m_eps=comp.samples)

    def finish(trace):
        cerr = np.max(trace.consensus_errors, axis=0)
        taus = np.asarray(trace.taus)
        cerr_bound = rc.m_compact * mp.theta * config.beta ** taus
        theory.update(
            consensus_bound_ok=bool(np.all(cerr <= cerr_bound + 1e-12)),
            max_consensus_error=float(np.max(cerr)))
    fields = {"theory": theory,
              "graph": {"nodes": graph.n_nodes, "edges": len(graph.edges),
                        "beta": mp.beta, "theta": mp.theta}}
    return (lambda reps: run_dist_pgr(game, graph, config, x_star,
                                      replications=reps, x0=x0),
            fields, dist_envelope_params(rc, c_start), finish)


def _pbr_setup(spec, game, x0, x_star):
    s = spec.solver
    config = PbrConfig(mu=s["mu"], eta_br=s["eta_br"], max_iter=s["max_iter"],
                       seed=spec.seed, m_max=s.get("m_max"), c_r=s.get("c_r"),
                       eta_tilde=s.get("eta_tilde"),
                       inner_tol=s.get("inner_tol", 1e-12))
    cert = contraction_certificate(game, config.mu)
    schedule = resolved_schedule(game, config)
    config = replace(config, m_max=schedule.m_max, c_r=schedule.c_r)
    c_start = max(float(np.linalg.norm(x0.blocks[i] - x_star.blocks[i]))
                  for i in range(game.n_players))
    eta_tilde, d, constant = pbr_envelope(config, cert.a, game.n_players,
                                          c_start)
    theory = {"a": cert.a, "c_r": config.c_r, "m_max": config.m_max,
              "eta_tilde": eta_tilde, "d": d, "c_start": c_start}
    if s.get("target_eps") is not None:
        comp = pbr_complexity(config, cert.a, s["target_eps"],
                              game.n_players, c_start)
        theory.update(k_eps=comp.k_eps, m_eps=comp.samples,
                      m_eps_order=comp.order_value)
    return (lambda reps: run_pbr(game, config, x0, x_star, replications=reps),
            {"theory": theory}, (constant, eta_tilde), None)


class _Scheme(NamedTuple):
    """What a solver scheme adds to the shared experiment protocol: the
    game type it needs with the error for any other, its setup step, and
    its trace.csv columns between k and replication_id as (header,
    RunTrace field) pairs."""

    game_type: type | None
    game_error: str | None
    setup: Callable
    columns: tuple[tuple[str, str], ...]


SCHEMES = {
    "pgr": _Scheme(None, None, _pgr_setup, (
        ("N_k", "batches"), ("cum_samples", "cum_samples"),
        ("cum_prox", "cum_prox"), ("sq_error", "errors"))),
    "dist-pgr": _Scheme(
        AggregativeGame, "the distributed scheme needs an aggregative game",
        _dist_setup, (
            ("N_k", "batches"), ("tau_k", "taus"),
            ("cum_samples", "cum_samples"), ("cum_prox", "cum_prox"),
            ("cum_comm", "cum_comm"), ("consensus_error", "consensus_errors"),
            ("sq_error", "errors"))),
    "pbr": _Scheme(
        QuadraticGame, "the best-response scheme needs a quadratic game",
        _pbr_setup, (
            ("batch_N_k", "batches"), ("cum_samples", "cum_samples"),
            ("inner_solves", "cum_inner"), ("error_norm", "errors"))),
}


def _run_bounds(spec: ExperimentSpec) -> RunReport:
    s = dict(spec.solver)
    rc = rate_constants(s["eta"], s["lip"], s["alpha"], s["rho"], s["nu"],
                        s["c_start"], rho_tilde=s.get("rho_tilde"))
    constant, rate = envelope_params(rc, s["rho"])
    theory = {"q": rc.q, "c_rho_q": rc.c_rho_q, "d_tilde": rc.d_tilde,
              "rho_tilde": rc.rho_tilde, "envelope_constant": constant,
              "envelope_rate": rate,
              "k_eps": complexity_K(rc, s["rho"], s["eps"]),
              "m_eps": complexity_M(rc, s["rho"], s["eps"])}
    return RunReport({"scheme": "bounds", "seed": spec.seed,
                      "replications": spec.replications, "solver": s,
                      "theory": theory})


def prepare_experiment(spec: ExperimentSpec) -> tuple[dict, Callable]:
    """Make every check run_experiment makes before the solver runs,
    raising what it would raise. Returns the report.json fields known by
    then (for a solver scheme: game_constants, equilibrium,
    oracle_error_bound, theory, and graph for dist-pgr) and the function
    that runs the rest and returns (report, trace), trace None for bounds."""
    if spec.scheme == "bounds":
        report = _run_bounds(spec)
        return report.fields, lambda: (report, None)
    if spec.scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme '{spec.scheme}'")
    scheme = SCHEMES[spec.scheme]
    game = build_game(spec.game, spec.seed)
    if scheme.game_type is not None and not isinstance(game, scheme.game_type):
        raise ConfigError(scheme.game_error)
    consts = monotonicity_constants(game)
    x_star = solve_ne_oracle(game)
    oracle_error_bound = ne_error_bound(game, x_star)
    x0 = _spec_x0(spec, game)
    with np.errstate(over="ignore", invalid="ignore"):
        sq_distance = (dx := x0.vector - x_star.vector) @ dx
    if not np.isfinite(sq_distance):
        raise ValueError(f"x0 = {x0.vector.tolist()} has squared distance "
                         f"{sq_distance} to the equilibrium; a run needs it "
                         f"finite")
    solve, fields, envelope, finish = scheme.setup(spec, game, x0, x_star)
    fields.update(scheme=spec.scheme, seed=spec.seed,
                  replications=spec.replications, solver=dict(spec.solver),
                  game_constants=asdict(consts),
                  equilibrium=list(x_star.vector),
                  oracle_error_bound=oracle_error_bound)

    def run():
        trace = solve(range(spec.replications))
        mean_errors = np.mean(trace.errors, axis=0)
        fields["theory"]["envelope"] = _envelope_check(mean_errors, *envelope)
        if finish is not None:
            finish(trace)
        k_iter = trace.iterations
        return RunReport(dict(
            fields, counters=trace.counter.as_dict(), iterations=k_iter,
            mean_final_error=float(mean_errors[-1]),
            fit=_fit_dict(mean_errors, spec.fit, k_iter))), trace
    return fields, run


def run_experiment(spec: ExperimentSpec, out_dir: str | None = None) -> RunReport:
    """Run the replicated experiment an ExperimentSpec describes.

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
    state entering each iteration), formatting one column at a time."""
    columns, n = SCHEMES[scheme].columns, trace.iterations
    # shared columns are lists of n entries, per-row ones (R, >= n) arrays
    cols = [getattr(trace, field) for _, field in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", *(header for header, _ in columns),
                         "replication_id"])
        for rep in range(len(trace.errors)):
            # csv writes a Python float by repr and an int by str
            writer.writerows(zip(range(n), *(
                c[rep, :n].tolist() if isinstance(c, np.ndarray) else c
                for c in cols), [rep] * n))


def write_report_json(path: str, report: RunReport) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.as_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
