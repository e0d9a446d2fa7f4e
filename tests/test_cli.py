from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox.cli import main

PGR_DOC = {
    "scheme": "pgr", "seed": 11, "replications": 2,
    "game": {"kind": "quadratic", "h": [[2.0, 1.0], [1.0, 2.0]], "c": [-1.0, -1.0],
             "noise": {"kind": "gaussian", "nu": 1.0}},
    "solver": {"alpha": 0.2, "rho": 0.9, "max_iter": 20},
}

DIST_DOC = {
    "scheme": "dist-pgr", "seed": 5, "replications": 2,
    "game": {"kind": "cournot", "a": [1.0] * 5, "b": [0.0] * 5, "d": 2.0,
             "c_price": 1.0, "lo": 0.0, "hi": 1.0, "nu": 0.5},
    "graph": {"family": "ring", "nodes": 5},
    "solver": {"alpha": 0.02, "max_iter": 15},
}

PBR_DOC = {
    "scheme": "pbr", "seed": 2, "replications": 2,
    "game": {"kind": "quadratic", "h": [[2.0, 1.0], [1.0, 2.0]], "c": [-1.0, -1.0],
             "noise": {"kind": "gaussian", "nu": 1.4142135623730951}},
    "solver": {"mu": 1.0, "eta_br": 0.7, "max_iter": 10, "eta_tilde": 0.75},
}

BOUNDS_DOC = {
    "scheme": "bounds",
    "solver": {"eta": 1.0, "lip": 2.0, "nu": 1.0, "alpha": 0.25, "rho": 0.875,
               "c_start": 1.0, "eps": 0.01},
}


def _write(tmp_path: Path, doc: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command,doc", [
    ("pgr", PGR_DOC),
    ("dist-pgr", DIST_DOC),
    ("pbr", PBR_DOC),
    ("bounds", BOUNDS_DOC),
])
def test_subcommands_run_and_emit_artifacts(tmp_path: Path, command: str, doc: dict):
    cfg = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scheme"] == command
    if command != "bounds":
        assert (out / "trace.csv").exists()


def test_validate_reports_game_and_graph_assumptions(tmp_path: Path, capsys):
    cfg = _write(tmp_path, DIST_DOC)
    assert main(["validate", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "eta" in text
    assert "beta" in text


def test_missing_required_solver_key_exits_with_config_error(tmp_path: Path):
    doc = dict(PGR_DOC)
    doc["solver"] = {"alpha": 0.2, "rho": 0.9}
    assert main(["pgr", "--config", _write(tmp_path, doc), "--quiet"]) == 2


def test_unknown_top_level_key_is_rejected(tmp_path: Path):
    doc = dict(PGR_DOC)
    doc["surprise"] = 1
    assert main(["pgr", "--config", _write(tmp_path, doc), "--quiet"]) == 2


def test_unknown_solver_key_is_rejected(tmp_path: Path):
    doc = dict(PGR_DOC)
    doc["solver"] = dict(PGR_DOC["solver"], momentum=0.9)
    assert main(["pgr", "--config", _write(tmp_path, doc), "--quiet"]) == 2


def test_scheme_mismatch_is_a_config_error(tmp_path: Path):
    assert main(["pbr", "--config", _write(tmp_path, PGR_DOC), "--quiet"]) == 2


def test_unreadable_config_is_a_config_error(tmp_path: Path):
    assert main(["pgr", "--config", str(tmp_path / "missing.json"), "--quiet"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["pgr", "--config", str(bad), "--quiet"]) == 2


def test_assumption_violations_exit_with_validation_code(tmp_path: Path):
    non_monotone = dict(PGR_DOC)
    non_monotone["game"] = {"kind": "quadratic", "h": [[1.0, 2.0], [0.0, 1.0]],
                            "c": [0.0, 0.0]}
    assert main(["pgr", "--config", _write(tmp_path, non_monotone), "--quiet"]) == 3
    bad_step = dict(PGR_DOC)
    bad_step["solver"] = {"alpha": 5.0, "rho": 0.9, "max_iter": 20}
    assert main(["pgr", "--config", _write(tmp_path, bad_step, "s.json"), "--quiet"]) == 3


def test_seed_and_replication_overrides_reach_the_report(tmp_path: Path):
    cfg = _write(tmp_path, PGR_DOC)
    out = tmp_path / "out"
    assert main(["pgr", "--config", cfg, "--out", str(out), "--seed", "99",
                 "--replications", "3", "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 99
    assert report["replications"] == 3
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) - 1 == 20 * 3


def test_module_entry_point_matches_the_console_script(tmp_path: Path):
    cfg = _write(tmp_path, BOUNDS_DOC)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "nashprox", "bounds", "--config", cfg,
         "--out", str(out), "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "report.json").exists()


@pytest.mark.parametrize("doc", [PGR_DOC, DIST_DOC, PBR_DOC],
                         ids=["pgr", "dist-pgr", "pbr"])
def test_an_integral_float_max_iter_runs_as_its_integer(
        tmp_path: Path, capsys, doc: dict):
    """JSON Schema's integer type takes 5.0, so validate and the run must
    take it too, and write what max_iter 5 writes."""
    written = []
    for max_iter in (5, 5.0):
        cfg = _write(tmp_path, dict(doc, solver=dict(doc["solver"],
                                                     max_iter=max_iter)))
        assert main(["validate", "--config", cfg, "--quiet"]) == 0
        out = tmp_path / f"out-{max_iter}"
        assert main([doc["scheme"], "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        written.append([(out / name).read_bytes()
                        for name in ("trace.csv", "report.json")])
    assert "Traceback" not in capsys.readouterr().err
    assert written[0] == written[1]


# One iteration past each limit the last batch size overflows a double:
# 2 * 0.5^-1023 (the joint dimension is 2), 0.01^-154.5, and
# (m_max c_r)^2 * 0.1^-308 with (m_max c_r)^2 about 3.6.
OVERFLOW_CASES = [
    ("pgr", PGR_DOC, {"alpha": 0.2, "rho": 0.5}, 1022),
    ("dist-pgr", DIST_DOC, {"alpha": 0.02, "beta": 0.01}, 308),
    ("pbr", PBR_DOC, {"mu": 1.0, "eta_br": 0.1}, 154),
]


@pytest.mark.parametrize("command,doc,solver,limit", OVERFLOW_CASES)
def test_batch_schedule_overflow_is_an_assumption_error(
        tmp_path: Path, capsys, command: str, doc: dict, solver: dict,
        limit: int):
    over = dict(doc, solver=dict(solver, max_iter=limit + 1))
    assert main([command, "--config", _write(tmp_path, over), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert f"max_iter must be at most {limit}" in err
    assert "Traceback" not in err
    at_limit = dict(doc, solver=dict(solver, max_iter=limit))
    assert main([command, "--config", _write(tmp_path, at_limit, "ok.json"),
                 "--quiet"]) == 0


def test_overflowing_pgr_config_exits_cleanly_from_the_console(tmp_path: Path):
    doc = dict(PGR_DOC, solver={"alpha": 0.2, "rho": 0.5, "max_iter": 1100})
    proc = subprocess.run(
        [sys.executable, "-m", "nashprox", "pgr", "--config",
         _write(tmp_path, doc), "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "max_iter must be at most 1022" in proc.stderr


@pytest.mark.parametrize("command,doc", [
    ("pgr", PGR_DOC),
    ("dist-pgr", DIST_DOC),
    ("pbr", PBR_DOC),
])
def test_report_records_the_oracle_error_bound(tmp_path: Path, command: str,
                                               doc: dict):
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, doc), "--out", str(out),
                 "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["oracle_error_bound"] <= 1e-9


def test_pbr_with_tiny_mu_runs(tmp_path: Path):
    # the default c_r is about 2/mu; 1 - lip/sqrt(mu^2 + lip^2) rounds to
    # zero here, so c_r must not be evaluated through it
    doc = dict(PBR_DOC, solver={"mu": 1e-8, "eta_br": 0.7, "max_iter": 3})
    out = tmp_path / "out"
    assert main(["pbr", "--config", _write(tmp_path, doc), "--out", str(out),
                 "--quiet"]) == 0
    c_r = json.loads((out / "report.json").read_text())["theory"]["c_r"]
    assert c_r == pytest.approx(2e8, rel=1e-12)


@pytest.mark.parametrize("solver", [
    {"mu": 1.0, "eta_br": 0.7, "max_iter": 3, "target_eps": 1e-300},
    # eta_tilde next to max(a, eta_br): the envelope constant over eps
    # overflows, its logarithm does not
    {"mu": 1.0, "eta_br": 0.7, "max_iter": 3, "target_eps": 1e-300,
     "eta_tilde": 0.7000000000001},
])
def test_pbr_sample_bound_past_the_float_range_is_infinity(
        tmp_path: Path, capsys, solver: dict):
    doc = dict(PBR_DOC, solver=solver)
    out = tmp_path / "out"
    assert main(["pbr", "--config", _write(tmp_path, doc), "--out", str(out),
                 "--quiet"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    theory = json.loads((out / "report.json").read_text())["theory"]
    assert theory["m_eps"] == float("inf")
    assert theory["m_eps_order"] == float("inf")
    assert 0 < theory["k_eps"] < 10 ** 5


@pytest.mark.parametrize("command,doc", [
    ("pgr", dict(PGR_DOC, solver={"alpha": 0.05, "rho": 0.9, "max_iter": 20})),
    ("dist-pgr", DIST_DOC),
])
def test_cournot_noise_levels_whose_squares_overflow_are_rejected(
        tmp_path: Path, capsys, command: str, doc: dict):
    # each of the five levels squares to 1e308, their sum overflows
    over = dict(doc, game=dict(DIST_DOC["game"], nu=1e154))
    assert main([command, "--config", _write(tmp_path, over), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "total noise level nu must have nu^2 = sum_i nu_i^2 finite" in err
    assert "Traceback" not in err
    fits = dict(doc, game=dict(DIST_DOC["game"], nu=5e153))
    assert main([command, "--config", _write(tmp_path, fits, "ok.json"),
                 "--quiet"]) == 0


# a Cournot game whose Jacobian has norm about 1e308, and a quadratic game
# with h = 1e200 I: lip^2 overflows a float in either
_HUGE_COURNOT = {"kind": "cournot", "a": [1e308, 1e308], "b": [0.0, 0.0],
                 "d": 2.0, "c_price": 1.0, "lo": 0.0, "hi": 1.0, "nu": 0.5}


_LIP_TOO_LARGE = "must be below 1e154, so that lip^2 stays finite"


@pytest.mark.parametrize("validate", [False, True], ids=["run", "validate"])
@pytest.mark.parametrize("command,doc,message", [
    ("pgr", dict(PGR_DOC, game=_HUGE_COURNOT), _LIP_TOO_LARGE),
    ("dist-pgr", dict(DIST_DOC, game=_HUGE_COURNOT,
                      graph={"family": "path", "nodes": 2}), _LIP_TOO_LARGE),
    ("pbr", dict(PBR_DOC, game=dict(PBR_DOC["game"],
                                    h=[[1e200, 0.0], [0.0, 1e200]])),
     _LIP_TOO_LARGE),
    ("bounds", dict(BOUNDS_DOC, solver=dict(BOUNDS_DOC["solver"], lip=1e200)),
     "need 0 < eta <= lip < 1e154, got eta=1.0, lip=1e+200"),
])
def test_lipschitz_constant_whose_square_overflows_is_an_assumption_error(
        tmp_path: Path, capsys, command: str, doc: dict, message: str,
        validate: bool):
    argv = ["validate"] if validate else [command]
    assert main(argv + ["--config", _write(tmp_path, doc), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


# eta = 1e-170 against lip = 1: (eta / lip)^2 underflows to 0, so the
# certified equilibrium error bound of report.json would divide by zero
_ILL_CONDITIONED = dict(
    DIST_DOC, game=dict(DIST_DOC["game"], a=[1.0, 1.0, 1.0, 1e-170],
                        b=[0.0] * 4, c_price=0.0),
    graph={"family": "ring", "nodes": 4},
    solver={"alpha": 1e-171, "max_iter": 5})


@pytest.mark.parametrize("argv", [["dist-pgr"], ["validate"]])
def test_condition_number_whose_square_overflows_stops_before_any_run(
        tmp_path: Path, capsys, monkeypatch, argv: list[str]):
    from nashprox import experiments

    def no_run(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(experiments, "run_dist_pgr", no_run)
    assert main(argv + ["--config", _write(tmp_path, _ILL_CONDITIONED),
                        "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "condition number kappa = lip/eta = 1e+170 must be below 1e154" \
        in err
    assert "Traceback" not in err


FUZZ_PBR_GAME = {
    "kind": "quadratic", "dims": [1, 2, 1],
    "h": [[2.0, 0.2, -0.1, 0.0], [0.1, 1.5, 0.3, 0.1],
          [0.0, 0.3, 2.5, -0.2], [0.2, 0.0, 0.1, 1.0]],
    "c": [-1.0, 0.5, 0.2, -0.3],
    "regularizers": [{"kind": "box", "lo": -1.0, "hi": 1.0},
                     {"kind": "l1", "weight": 0.2}, {"kind": "zero"}],
    "noise": {"kind": "gaussian", "nu": 1.0},
}


def _log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


@settings(max_examples=40, deadline=None)
@given(mu=_log_uniform(-12, 3), eta_br=st.floats(0.05, 0.95),
       m_max=st.none() | st.floats(0.0, 10.0),
       c_r=st.none() | _log_uniform(-6, 6),
       inner_tol=st.floats(1e-13, 1e-3), max_iter=st.integers(1, 4),
       target_eps=st.none() | _log_uniform(-300, 3),
       eta_tilde=st.none() | st.floats(0.0, 1.0))
def test_fuzzed_pbr_configs_exit_with_a_documented_code(
        mu, eta_br, m_max, c_r, inner_tol, max_iter, target_eps, eta_tilde):
    solver = {"mu": mu, "eta_br": eta_br, "inner_tol": inner_tol,
              "max_iter": max_iter}
    if m_max is not None:
        solver["m_max"] = m_max
    if c_r is not None:
        solver["c_r"] = c_r
    if target_eps is not None:
        solver["target_eps"] = target_eps
    if eta_tilde is not None:
        solver["eta_tilde"] = eta_tilde
    doc = {"scheme": "pbr", "seed": 3, "replications": 1,
           "game": FUZZ_PBR_GAME, "solver": solver}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write(Path(tmp), doc)
        out = Path(tmp) / "out"
        code = main(["pbr", "--config", cfg, "--out", str(out), "--quiet"])
        if code == 0:
            envelope = json.loads(
                (out / "report.json").read_text())["theory"]["envelope"]
            assert envelope["constant"] > 0.0
            assert 0.0 < envelope["rate"] < 1.0
    assert code in (0, 2, 3, 4)


# h = [[2, 0.1], [0.1, 2]] at mu = 1 has a = 1.1/3, so with eta_br = 0.5 the
# envelope needs eta_tilde in (0.5, 1)
@pytest.mark.parametrize("solver", [
    {"eta_tilde": 0.5}, {"eta_tilde": 0.3},
    {"eta_tilde": 0.3, "target_eps": 0.01},
])
def test_pbr_eta_tilde_outside_its_interval_is_rejected_before_any_run(
        tmp_path: Path, capsys, monkeypatch, solver: dict):
    from nashprox import experiments

    def no_run(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(experiments, "run_pbr", no_run)
    doc = dict(PBR_DOC, game=dict(PBR_DOC["game"], h=[[2.0, 0.1], [0.1, 2.0]]),
               solver=dict(solver, mu=1.0, eta_br=0.5, max_iter=5))
    assert main(["pbr", "--config", _write(tmp_path, doc), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "eta_tilde must lie in (max(a, eta_br), 1) = (0.5, 1)" in err
    assert "Traceback" not in err


def test_pbr_on_an_uncontractive_game_exits_3_and_has_no_override_key(
        tmp_path: Path, capsys):
    # a = 1.25 >= 1: no eta_tilde in (max(a, eta_br), 1) exists
    game = dict(PBR_DOC["game"], h=[[1.0, 1.5], [-1.5, 1.0]])
    doc = dict(PBR_DOC, game=game,
               solver={"mu": 1.0, "eta_br": 0.5, "max_iter": 5})
    assert main(["pbr", "--config", _write(tmp_path, doc), "--quiet"]) == 3
    assert "eta_tilde must lie in (max(a, eta_br), 1) = (1.25, 1)" in \
        capsys.readouterr().err
    loose = dict(doc, solver=dict(doc["solver"], allow_uncontractive=True))
    assert main(["pbr", "--config", _write(tmp_path, loose, "loose.json"),
                 "--quiet"]) == 2
    assert "allow_uncontractive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dist-pgr", "validate"])
def test_graph_edge_outside_the_node_range_is_an_assumption_error(
        tmp_path: Path, capsys, command: str):
    doc = dict(DIST_DOC, game=dict(DIST_DOC["game"], a=[1.0] * 3, b=[0.0] * 3),
               graph={"nodes": 3, "edges": [[0, 5], [1, 2]]})
    assert main([command, "--config", _write(tmp_path, doc), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "edge (0, 5) is not ordered within 0..2" in err
    assert "Traceback" not in err


def test_surplus_regularizers_are_an_assumption_error(tmp_path: Path, capsys):
    game = dict(PGR_DOC["game"], dims=[1, 1],
                regularizers=[{"kind": "zero"}, {"kind": "zero"},
                              {"kind": "l1", "weight": 0.1}])
    doc = dict(PGR_DOC, game=game)
    assert main(["pgr", "--config", _write(tmp_path, doc), "--quiet"]) == 3
    assert "3 regularizers for 2 players" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("h", [[float("nan"), 1.0], [1.0, 2.0]]),
                                         ("c", [float("inf"), -1.0])])
def test_non_finite_quadratic_game_is_an_assumption_error(
        tmp_path: Path, capsys, field: str, value: list):
    doc = dict(PGR_DOC, game=dict(PGR_DOC["game"], **{field: value}))
    assert main(["pgr", "--config", _write(tmp_path, doc), "--quiet"]) == 3
    assert "game parameters must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command,doc,game", [
    ("pgr", PGR_DOC, {"noise": {"kind": "gaussian", "nu": 1e160}}),
    ("dist-pgr", DIST_DOC, {"nu": 1e160}),
])
def test_overflowing_noise_level_is_rejected_before_any_replication(
        tmp_path: Path, capsys, monkeypatch, command: str, doc: dict,
        game: dict):
    from nashprox import experiments

    def no_run(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(experiments, "run_pgr", no_run)
    monkeypatch.setattr(experiments, "run_dist_pgr", no_run)
    over = dict(doc, game=dict(doc["game"], **game))
    assert main([command, "--config", _write(tmp_path, over), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "noise level nu must be >= 0 with nu^2 finite, got 1e+160" in err


def _fuzz_solver(draw_solver: dict) -> dict:
    return {k: v for k, v in draw_solver.items() if v is not None}


@settings(max_examples=60, deadline=None)
@given(alpha=_log_uniform(-6, 1), rho=st.floats(0.0, 1.0),
       max_iter=st.integers(1, 40),
       target_eps=st.none() | _log_uniform(-12, 3),
       nu=st.just(0.0) | _log_uniform(-6, 300))
def test_fuzzed_pgr_configs_exit_with_a_documented_code(
        alpha, rho, max_iter, target_eps, nu):
    solver = _fuzz_solver({"alpha": alpha, "rho": rho, "max_iter": max_iter,
                           "target_eps": target_eps})
    game = dict(PGR_DOC["game"], noise={"kind": "gaussian", "nu": nu})
    doc = {"scheme": "pgr", "seed": 3, "replications": 2, "game": game,
           "solver": solver}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write(Path(tmp), doc)
        code = main(["pgr", "--config", cfg, "--out", str(Path(tmp) / "out"),
                     "--quiet"])
    assert code in (0, 2, 3, 4)


@settings(max_examples=40, deadline=None)
@given(alpha=_log_uniform(-6, 0), beta=st.none() | st.floats(0.0, 1.0),
       max_iter=st.integers(1, 25),
       target_eps=st.none() | _log_uniform(-12, 3),
       nu=st.just(0.0) | _log_uniform(-6, 300))
def test_fuzzed_dist_pgr_configs_exit_with_a_documented_code(
        alpha, beta, max_iter, target_eps, nu):
    solver = _fuzz_solver({"alpha": alpha, "beta": beta, "max_iter": max_iter,
                           "target_eps": target_eps})
    doc = dict(DIST_DOC, game=dict(DIST_DOC["game"], nu=nu), solver=solver)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write(Path(tmp), doc)
        code = main(["dist-pgr", "--config", cfg, "--out",
                     str(Path(tmp) / "out"), "--quiet"])
    assert code in (0, 2, 3, 4)


def _no_replication(monkeypatch):
    from nashprox import experiments

    def no_run(*args, **kwargs):
        raise AssertionError("a replication ran")

    for name in ("run_pgr", "run_dist_pgr", "run_pbr"):
        monkeypatch.setattr(experiments, name, no_run)


@pytest.mark.parametrize("doc", [
    dict(PGR_DOC, solver={"alpha": 5.0, "rho": 0.9, "max_iter": 20}),
    dict(PBR_DOC, game=dict(PBR_DOC["game"], h=[[2.0, 0.1], [0.1, 2.0]]),
         solver={"mu": 1.0, "eta_br": 0.5, "max_iter": 5, "eta_tilde": 0.3}),
    # a complete graph of 2 nodes mixes in one round: beta = 0
    dict(DIST_DOC, game=dict(DIST_DOC["game"], a=[1.0] * 2, b=[0.0] * 2),
         graph={"family": "complete", "nodes": 2}),
], ids=["pgr-alpha", "pbr-eta-tilde", "dist-pgr-zero-beta"])
def test_validate_rejects_solver_parameters_as_the_run_does(
        tmp_path: Path, capsys, monkeypatch, doc: dict):
    _no_replication(monkeypatch)
    cfg = _write(tmp_path, doc)
    assert main([doc["scheme"], "--config", cfg, "--quiet"]) == 3
    run_err = capsys.readouterr().err
    assert main(["validate", "--config", cfg, "--quiet"]) == 3
    assert capsys.readouterr().err == run_err
    assert run_err and "Traceback" not in run_err


@pytest.mark.parametrize("doc", [PGR_DOC, DIST_DOC, PBR_DOC, BOUNDS_DOC],
                         ids=["pgr", "dist-pgr", "pbr", "bounds"])
def test_validate_runs_no_replication(tmp_path: Path, monkeypatch, doc: dict):
    _no_replication(monkeypatch)
    assert main(["validate", "--config", _write(tmp_path, doc), "--quiet"]) == 0


@pytest.mark.parametrize("command", ["pgr", "validate"])
@pytest.mark.parametrize("game,message", [
    (dict(PGR_DOC["game"], dims=[1, 1],
          regularizers=[{"kind": "zero"},
                        {"kind": "box", "lo": [0.0, 0.0], "hi": 1.0}]),
     "2 'lo' bounds for player 1 of dimension 1"),
    (dict(PGR_DOC["game"], dims=[2], regularizers=[
        {"kind": "box", "lo": -1.0, "hi": [1.0, 1.0, 1.0]}]),
     "3 'hi' bounds for player 0 of dimension 2"),
    (dict(DIST_DOC["game"], hi=[1.0, 1.0, 1.0]), "3 'hi' entries for 5 players"),
], ids=["box-lo", "box-hi", "cournot-hi"])
def test_per_player_arrays_of_the_wrong_length_are_an_assumption_error(
        tmp_path: Path, capsys, command: str, game: dict, message: str):
    doc = dict(PGR_DOC, solver={"alpha": 0.05, "rho": 0.9, "max_iter": 5},
               game=game)
    assert main([command, "--config", _write(tmp_path, doc), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["pgr", "validate"])
@pytest.mark.parametrize("game,where", [
    (dict(PGR_DOC["game"], dims=[1, 1],
          regularizers=[{"kind": "zero"},
                        {"kind": "box", "lo": ["a"], "hi": 1.0}]),
     "game/regularizers/1/lo/0"),
    (dict(PGR_DOC["game"], dims=[1, 1],
          regularizers=[{"kind": "zero"},
                        {"kind": "box", "lo": 0.0, "hi": []}]),
     "game/regularizers/1/hi"),
    (dict(DIST_DOC["game"], lo=[[0.0]] * 5), "game/lo/0"),
    (dict(DIST_DOC["game"], hi=[]), "game/hi"),
    (dict(DIST_DOC["game"], nu=["x"] * 5), "game/nu/0"),
    # a failure at the depth of the kind discriminator names its key
    (dict(DIST_DOC["game"], nu=-3.0), "game/nu"),
    (dict(DIST_DOC["game"], nu=[0.5, -1.0, 0.5, 0.5, 0.5]), "game/nu/1"),
    (dict(PGR_DOC["game"], noise={"kind": "gaussian", "nu": -1}),
     "game/noise/nu"),
    (dict(PGR_DOC["game"], dims=[1, 1],
          regularizers=[{"kind": "zero"}, {"kind": "l1", "weight": -1}]),
     "game/regularizers/1/weight"),
], ids=["box-lo-string", "box-hi-empty", "cournot-lo-nested",
        "cournot-hi-empty", "cournot-nu-string", "cournot-nu-negative",
        "cournot-nu-negative-entry", "quadratic-noise-nu-negative",
        "l1-weight-negative"])
def test_per_player_arrays_must_hold_numbers(tmp_path: Path, capsys,
                                             command: str, game: dict,
                                             where: str):
    doc = dict(PGR_DOC, solver={"alpha": 0.05, "rho": 0.9, "max_iter": 5},
               game=game)
    assert main([command, "--config", _write(tmp_path, doc), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"config invalid at {where}:" in err
    assert "Traceback" not in err


def test_a_run_that_starts_at_its_equilibrium_names_its_zero_errors(
        tmp_path: Path, capsys):
    # the box midpoint is the equilibrium of this noise-free game
    doc = {"scheme": "pgr",
           "game": {"kind": "cournot", "a": [1.0, 1.0], "b": [0.0, 0.0],
                    "d": 2.0, "c_price": 1.0, "lo": 0.0, "hi": 1.0,
                    "nu": 0.0},
           "solver": {"alpha": 0.1, "rho": 0.9, "max_iter": 30}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["pgr", "--config", _write(tmp_path, doc), "--quiet"]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "every mean error is 0" in err
    assert "Traceback" not in err


README_PBR_DOC = json.loads(
    (Path(__file__).parent / "golden" / "readme-pbr" / "config.json")
    .read_text())


@pytest.mark.parametrize("validate", [False, True], ids=["run", "validate"])
@pytest.mark.parametrize("doc,x0,shown", [
    # the squared distance overflows although x0 is finite
    (PGR_DOC, [1e200, 1e200], "[1e+200, 1e+200] has squared distance inf"),
    (README_PBR_DOC, [1e300, 1e300],
     "[1e+300, 1e+300] has squared distance inf"),
    (PGR_DOC, [float("nan"), 0.0], "[nan, 0.0] has squared distance nan"),
    (PGR_DOC, [float("inf"), 0.0], "[inf, 0.0] has squared distance inf"),
], ids=["pgr-1e200", "pbr-1e300", "pgr-nan", "pgr-inf"])
def test_a_start_too_far_to_measure_exits_3_before_any_replication(
        tmp_path: Path, capsys, doc: dict, x0: list, shown: str,
        validate: bool):
    out = tmp_path / "out"
    argv = ["validate"] if validate else [doc["scheme"], "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--config", _write(tmp_path, dict(doc, x0=x0)),
                            "--quiet"]) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == (
        f"invalid parameters: x0 = {shown} to the equilibrium; a run needs "
        f"it finite\n")
    assert not (out / "report.json").exists()


def test_a_fit_window_of_integral_floats_writes_the_report_of_its_ints(
        tmp_path: Path):
    written = []
    for window in ([1, 4], [1.0, 4.0]):
        cfg = _write(tmp_path, dict(PGR_DOC, fit={"window": window}))
        out = tmp_path / f"out-{window[0]}"
        assert main(["pgr", "--config", cfg, "--out", str(out),
                     "--quiet"]) == 0
        written.append((out / "report.json").read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0])["fit"]["window"] == [1, 4]


@pytest.mark.parametrize("doc,graphs", [
    (dict(DIST_DOC, graph={"family": "erdos-renyi", "nodes": 5, "p": 0.6,
                           "seed": 3}), 1),
    (dict(PBR_DOC, game={"kind": "quadratic-random", "players": 3, "dim": 2,
                         "coupling": 0.3, "noise": {"kind": "gaussian",
                                                    "nu": 0.5}},
          solver={"mu": 1.0, "eta_br": 0.7, "max_iter": 5}), 0),
], ids=["dist-pgr-erdos-renyi", "pbr-quadratic-random"])
def test_validate_builds_the_game_and_the_graph_once(
        tmp_path: Path, monkeypatch, doc: dict, graphs: int):
    from nashprox.games import AggregativeGame, QuadraticGame
    from nashprox.graphs import CommGraph

    built = {"game": 0, "graph": 0}

    def counting(cls, what):
        init = cls.__init__

        def __init__(self, *args, **kwargs):
            built[what] += 1
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", __init__)

    counting(QuadraticGame, "game")
    counting(AggregativeGame, "game")
    counting(CommGraph, "graph")
    assert main(["validate", "--config", _write(tmp_path, doc)]) == 0
    assert built == {"game": 1, "graph": graphs}


@pytest.mark.parametrize("argv", [["pgr"], ["validate"],
                                  ["pgr", "--seed", "4", "--replications", "3"]])
def test_a_request_validates_its_config_once(tmp_path: Path, monkeypatch,
                                             argv: list[str]):
    from nashprox import experiments, serialize

    calls, check = [], serialize.validate_config

    def counting(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)
    monkeypatch.setattr(serialize, "validate_config", counting)
    monkeypatch.setattr(experiments, "validate_config", counting)
    assert main(argv[:1] + ["--config", _write(tmp_path, PGR_DOC), "--quiet"]
                + argv[1:]) == 0
    assert calls == [1]


@pytest.mark.parametrize("argv,message", [
    (["validate"], "config error: no scheme given (config key 'scheme' or "
                   "argument)"),
    (["pgr", "--replications", "0"],
     "config error: config invalid at replications: 0 is less than the "
     "minimum of 1"),
    (["pgr", "--seed", "-1"],
     "config error: config invalid at seed: -1 is less than the minimum of 0"),
])
def test_the_one_validation_sees_the_overrides_and_a_missing_scheme(
        tmp_path: Path, capsys, argv: list[str], message: str):
    doc = {k: v for k, v in PGR_DOC.items() if k != "scheme"} \
        if argv == ["validate"] else PGR_DOC
    assert main(argv[:1] + ["--config", _write(tmp_path, doc), "--quiet"]
                + argv[1:]) == 2
    assert capsys.readouterr().err.strip() == message


@pytest.mark.parametrize("text,message", [
    ("[1, 2]", "config error: configuration must be a JSON object"),
    ("{not json", "is not valid JSON"),
])
def test_a_document_that_is_not_an_object_is_a_config_error_with_overrides(
        tmp_path: Path, capsys, text: str, message: str):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["pgr", "--config", str(bad), "--seed", "3",
                 "--replications", "2", "--quiet"]) == 2
    assert message in capsys.readouterr().err
