from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from nashprox import (
    ExperimentSpec,
    fit_linear_rate,
    generate_cournot_game,
    generate_quadratic_game,
    monotonicity_constants,
    run_experiment,
    write_report_json,
)

PGR_SPEC = dict(
    scheme="pgr",
    solver={"alpha": 0.2, "rho": 0.9, "max_iter": 25},
    game={"kind": "quadratic", "h": [[2.0, 1.0], [1.0, 2.0]], "c": [-1.0, -1.0],
          "noise": {"kind": "gaussian", "nu": 1.0}},
    seed=11, replications=5)


def test_generated_quadratic_game_is_validated_and_deterministic():
    game = generate_quadratic_game(3, 2, 0.4, seed=9)
    const = monotonicity_constants(game)
    assert const.eta >= 0.6 - 1e-12  # own-block curvature one minus the coupling budget
    again = generate_quadratic_game(3, 2, 0.4, seed=9)
    assert np.array_equal(game.h, again.h)
    assert np.array_equal(game.c, again.c)
    other = generate_quadratic_game(3, 2, 0.4, seed=10)
    assert not np.array_equal(game.h, other.h)


def test_zero_coupling_gives_block_diagonal_interactions():
    game = generate_quadratic_game(3, 2, 0.0, seed=9)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert np.all(game.block(i, j) == 0.0)
    const = monotonicity_constants(game)
    diag_min = min(float(np.linalg.eigvalsh(game.block(i, i)).min()) for i in range(3))
    assert const.eta == pytest.approx(diag_min, rel=1e-12)


def test_generated_cournot_game_constants():
    game = generate_cournot_game(4, seed=3, nu=0.5)
    const = monotonicity_constants(game)
    assert const.eta > 0.0
    assert const.m_compact == pytest.approx(4.0)  # unit boxes, scalar strategies
    assert const.nu == pytest.approx(1.0)  # four per-player components at 0.5 each
    decoupled = generate_cournot_game(3, seed=3, a=(1.0, 2.0, 3.0), c_price=0.0)
    assert monotonicity_constants(decoupled).eta == pytest.approx(1.0)


def test_rate_fit_recovers_exact_geometric_decay():
    fit = fit_linear_rate([0.8 ** k for k in range(30)], window=(0, 29))
    assert fit.slope == pytest.approx(math.log(0.8), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    scaled = fit_linear_rate([5 * 0.9 ** k for k in range(30)], window=(0, 29))
    assert scaled.slope == pytest.approx(math.log(0.9), abs=1e-12)
    assert scaled.intercept == pytest.approx(math.log(5.0), abs=1e-12)


def test_rate_fit_flat_input_has_zero_slope():
    fit = fit_linear_rate([1.0] * 30, window=(0, 29))
    assert fit.slope == 0.0


def test_rate_fit_drops_zeros_with_a_warning_and_rejects_short_windows():
    with pytest.warns(UserWarning):
        fit = fit_linear_rate([1.0, 0.5, 0.0, 0.25, 0.125, 0.06, 0.03, 0.01],
                              window=(0, 7))
    assert fit.n_points == 7
    with pytest.raises(ValueError):
        fit_linear_rate([1.0, 0.5], window=(0, 1))


def test_pgr_experiment_report_and_trace(tmp_path: Path):
    spec = ExperimentSpec(**PGR_SPEC)
    report = run_experiment(spec, out_dir=str(tmp_path))
    assert report["scheme"] == "pgr"
    assert report["replications"] == 5
    assert report["theory"]["q"] == pytest.approx(0.96, abs=1e-12)
    assert report["theory"]["envelope"]["ok"] is True
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "k,N_k,cum_samples,cum_prox,sq_error,replication_id"
    assert len(lines) - 1 == 25 * 5
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["theory"]["q"] == pytest.approx(0.96, abs=1e-12)


@pytest.mark.parametrize("target_eps", [0.5, 1.0])
def test_a_pgr_run_stops_at_the_iteration_bound_its_report_gives(
        tmp_path: Path, target_eps: float):
    """The report's K(target_eps) and the run's cut come from one
    calculator: with K below max_iter, the run makes max(1, ceil(K))
    iterations and writes that many trace rows per replication."""
    spec = ExperimentSpec(**dict(PGR_SPEC, solver=dict(
        PGR_SPEC["solver"], target_eps=target_eps)))
    report = run_experiment(spec, out_dir=str(tmp_path))
    k_eps = report["theory"]["k_eps"]
    assert k_eps < spec.solver["max_iter"]
    assert report["iterations"] == max(1, math.ceil(k_eps))
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    assert len(rows) == report["iterations"] * spec.replications


def test_experiment_outputs_are_byte_stable(tmp_path: Path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    run_experiment(ExperimentSpec(**PGR_SPEC), out_dir=str(d1))
    run_experiment(ExperimentSpec(**PGR_SPEC), out_dir=str(d2))
    assert (d1 / "trace.csv").read_bytes() == (d2 / "trace.csv").read_bytes()
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()


def test_envelope_verdict_matches_direct_recomputation(tmp_path: Path):
    spec = ExperimentSpec(**PGR_SPEC)
    report = run_experiment(spec, out_dir=str(tmp_path))
    env = report["theory"]["envelope"]
    lines = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    per_k: dict[int, list[float]] = {}
    for line in lines:
        parts = line.split(",")
        per_k.setdefault(int(parts[0]), []).append(float(parts[4]))
    worst = 0.0
    for k, vals in per_k.items():
        mean = sum(vals) / len(vals)
        worst = max(worst, mean / (env["constant"] * env["rate"] ** k))
    assert env["ok"] == (worst <= 1.0 + 1e-9)
    assert worst <= env["max_ratio"] + 1e-9


def test_dist_experiment_report(tmp_path: Path):
    spec = ExperimentSpec(
        scheme="dist-pgr",
        solver={"alpha": 0.02, "max_iter": 20},
        game={"kind": "cournot", "a": [1.0] * 5, "b": [0.0] * 5, "d": 2.0,
              "c_price": 1.0, "lo": 0.0, "hi": 1.0, "nu": 0.5},
        graph={"family": "ring", "nodes": 5},
        seed=5, replications=3)
    report = run_experiment(spec, out_dir=str(tmp_path))
    assert report["theory"]["varrho"] == pytest.approx(0.9592, rel=1e-12)
    assert report["theory"]["consensus_bound_ok"] is True
    assert report["graph"]["nodes"] == 5
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == ("k,N_k,tau_k,cum_samples,cum_prox,cum_comm,"
                       "consensus_error,sq_error,replication_id")
    assert len(lines) - 1 == 20 * 3


def test_pbr_experiment_report(tmp_path: Path):
    spec = ExperimentSpec(
        scheme="pbr",
        solver={"mu": 1.0, "eta_br": 0.7, "max_iter": 12, "eta_tilde": 0.75},
        game={"kind": "quadratic", "h": [[2.0, 1.0], [1.0, 2.0]], "c": [-1.0, -1.0],
              "noise": {"kind": "gaussian", "nu": math.sqrt(2.0)}},
        seed=2, replications=3)
    report = run_experiment(spec, out_dir=str(tmp_path))
    assert report["theory"]["a"] == pytest.approx(2 / 3, rel=1e-9)
    assert report["theory"]["envelope"]["ok"] is True
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "k,batch_N_k,cum_samples,inner_solves,error_norm,replication_id"
    assert len(lines) - 1 == 12 * 3


def test_bounds_experiment_reports_formula_values():
    spec = ExperimentSpec(
        scheme="bounds",
        solver={"eta": 1.0, "lip": 2.0, "nu": 1.0, "alpha": 0.25, "rho": 0.875,
                "c_start": 1.0, "eps": 0.01})
    report = run_experiment(spec)
    assert report["theory"]["q"] == pytest.approx(0.75, abs=1e-12)
    assert report["theory"]["k_eps"] == pytest.approx(37.20530118072842, rel=1e-9)
    assert report["theory"]["m_eps"] == pytest.approx(1267.5205930137872, rel=1e-9)


def test_random_game_experiment_round_trip(tmp_path: Path):
    spec = ExperimentSpec(
        scheme="pgr",
        solver={"alpha": 0.05, "rho": 0.9, "max_iter": 15},
        game={"kind": "quadratic-random", "players": 3, "dim": 2, "coupling": 0.4,
              "noise": {"kind": "gaussian", "nu": 0.5}},
        seed=8, replications=2)
    report = run_experiment(spec, out_dir=str(tmp_path))
    assert report["replications"] == 2
    assert report["game_constants"]["eta"] >= 0.6 - 1e-12


GOLDEN = Path(__file__).parent / "golden"
_BUILTINS = (dict, list, str, int, float, bool, type(None))


def _non_builtins(value, where: str = "") -> list[str]:
    """Where value holds anything but a JSON builtin, by exact type."""
    if type(value) not in _BUILTINS:
        return [f"{where}: {type(value).__name__}"]
    if isinstance(value, dict):
        return [bad for k, v in value.items()
                for bad in _non_builtins(v, f"{where}/{k}")]
    if isinstance(value, list):
        return [bad for i, v in enumerate(value)
                for bad in _non_builtins(v, f"{where}/{i}")]
    return []


_TARGETED = [
    dict(PGR_SPEC, solver=dict(PGR_SPEC["solver"], target_eps=1e-3)),
    dict(scheme="dist-pgr", solver={"alpha": 0.02, "max_iter": 10,
                                    "target_eps": 1e-3},
         game={"kind": "cournot", "a": [1.0] * 4, "b": [0.0] * 4, "d": 2.0,
               "c_price": 1.0, "lo": 0.0, "hi": [1.0, 2.0, 1.0, 2.0],
               "nu": [0.5, 0.1, 0.0, 0.2]},
         graph={"family": "erdos-renyi", "nodes": 4, "p": 0.8}),
    dict(scheme="pbr", solver={"mu": 1.0, "eta_br": 0.7, "max_iter": 6,
                               "target_eps": 1e-2},
         game={"kind": "quadratic-random", "players": 2, "dim": 2,
               "coupling": 0.3, "noise": {"kind": "gaussian", "nu": 0.5}}),
    dict(PGR_SPEC, game=dict(PGR_SPEC["game"], dims=[1, 1], regularizers=[
        {"kind": "box", "lo": -1.0, "hi": 1.0},
        {"kind": "l1", "weight": 0.1}])),
]


@pytest.mark.parametrize("spec", [
    *(ExperimentSpec.from_config(json.loads(p.read_text()))
      for p in sorted(GOLDEN.glob("*/config.json"))),
    *(ExperimentSpec(**doc) for doc in _TARGETED)],
    ids=[*(p.parent.name for p in sorted(GOLDEN.glob("*/config.json"))),
         "pgr-target-eps", "dist-pgr-target-eps", "pbr-target-eps",
         "pgr-box-l1"])
def test_a_report_holds_only_json_builtins(spec: ExperimentSpec):
    """run_experiment returns the dict report.json holds, built from
    builtins where each field is made: no numpy scalar or tuple inside."""
    report = run_experiment(spec)
    assert _non_builtins(report) == []
    assert json.loads(json.dumps(report)) == report


def _strict_json(text: str):
    """json.loads that rejects Infinity, -Infinity and NaN."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_a_report_with_non_finite_values_is_written_as_strict_json(
        tmp_path: Path):
    report = {"a": math.inf, "b": {"c": [1.0, -math.inf, math.nan], "d": 2},
              "e": (0.5, math.inf), "f": "Infinity", "g": None}
    path = tmp_path / "report.json"
    write_report_json(str(path), report)
    assert _strict_json(path.read_text()) == {
        "a": None, "b": {"c": [1.0, None, None], "d": 2},
        "e": [0.5, None], "f": "Infinity", "g": None,
        "nonfinite": {"a": "Infinity", "b.c[1]": "-Infinity",
                      "b.c[2]": "NaN", "e[1]": "Infinity"}}
    assert report["a"] == math.inf and report["b"]["c"][1] == -math.inf
    assert "nonfinite" not in report
    # a finite report is written as json.dump writes it, without the key
    write_report_json(str(path), {"b": [1.0, 2], "a": 0.1})
    assert path.read_text() == json.dumps({"a": 0.1, "b": [1.0, 2]},
                                          indent=2) + "\n"


_GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("case", sorted(
    p.parent.name for p in _GOLDEN.glob("*/report.json")))
def test_every_golden_report_is_strict_json(case: str):
    text = (_GOLDEN / case / "report.json").read_text()
    assert "nonfinite" not in _strict_json(text)
