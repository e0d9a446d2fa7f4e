from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox import (DistConfig, build_game, build_graph, dist_rate_constants,
                      mixing_params, ring_graph, run_dist_pgr)
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


@pytest.mark.parametrize("digits", [401, 5001])
def test_an_integer_past_the_float_range_is_a_config_error(
        tmp_path: Path, capsys, digits: int):
    """An alpha of 1 and 400 zeros cannot become a float; one of 5000
    zeros cannot even be read (Python's int_max_str_digits)."""
    text = json.dumps(PGR_DOC).replace('"alpha": 0.2', '"alpha": 1'
                                       + "0" * (digits - 1))
    (tmp_path / "config.json").write_text(text)
    cfg = str(tmp_path / "config.json")
    want = "config invalid at solver/alpha: 1" if digits < 4300 else \
        f"config {cfg} is not valid JSON: "
    for command in ("validate", "pgr"):
        assert main([command, "--config", cfg, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and want in err, err


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
# (m_max c_r)^2 * 0.1^-308 with (m_max c_r)^2 about 3.6. beta = 0.01 is
# below a ring's mixing rate, so dist-pgr runs on a complete graph
# (beta = 0), which accepts any beta in (0, 1).
OVERFLOW_CASES = [
    ("pgr", PGR_DOC, {"alpha": 0.2, "rho": 0.5}, 1022),
    ("dist-pgr", dict(DIST_DOC, graph={"family": "complete", "nodes": 5}),
     {"alpha": 0.02, "beta": 0.01}, 308),
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


@pytest.mark.parametrize("command", ["pbr", "validate"])
def test_a_first_batch_that_overflows_says_no_run_length_fits(
        tmp_path: Path, capsys, command: str):
    """mu = 1e-300 makes c_r about 2e300, so N_0 already overflows; the
    message used to advise max_iter at most 0."""
    doc = dict(PBR_DOC, solver=dict(PBR_DOC["solver"], mu=1e-300))
    assert main([command, "--config", _write(tmp_path, doc), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invalid parameters: batch size N_0 of "
                          "BestResponseBatch(")
    assert err.endswith(" overflows a float at iteration 0, so no max_iter "
                        "fits this schedule\n")


def test_an_equilibrium_solve_past_its_budget_exits_4(tmp_path: Path, capsys):
    """h = diag(1, 1000) (kappa = 1000) exhausts the oracle's 200,000
    forward-backward steps."""
    doc = dict(PGR_DOC, game={"kind": "quadratic", "h": [[1.0, 0.0],
                                                         [0.0, 1000.0]],
                              "c": [1.0, 1.0]})
    assert main(["validate", "--config", _write(tmp_path, doc)]) == 4
    assert capsys.readouterr().err == (
        "runtime failure: equilibrium solve did not reach displacement "
        "1e-12 in 200000 iterations\n")


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


def test_pbr_from_a_start_past_the_inner_tolerance_resolution_runs(
        tmp_path: Path):
    """The box-midpoint start anchors the first subproblem at 1.075e32,
    where an ulp is 1.8e16, so no step can move z by at most inner_tol:
    the inner solve stops at the rounding floor of ||z|| instead."""
    doc = {"scheme": "pbr",
           "game": {"kind": "cournot", "a": [0.7487], "b": [0.0],
                    "d": -1.762, "c_price": 1.0, "lo": [-1.7036],
                    "hi": [2.15e32], "nu": 0.5},
           "solver": {"mu": 1.0, "eta_br": 0.7, "max_iter": 5}}
    out = tmp_path / "out"
    assert main(["pbr", "--config", _write(tmp_path, doc), "--out", str(out),
                 "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["iterations"] == 5 and report["theory"]["envelope"]["ok"]


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
    report = json.loads((out / "report.json").read_text())
    theory = report["theory"]
    # report.json is strict JSON: an infinite value is null, named in
    # nonfinite
    assert theory["m_eps"] is None and theory["m_eps_order"] is None
    assert report["nonfinite"] == {"theory.m_eps": "Infinity",
                                   "theory.m_eps_order": "Infinity"}
    assert 0 < theory["k_eps"] < 10 ** 5


def test_bounds_past_the_float_range_keep_a_finite_iteration_bound(
        tmp_path: Path, capsys):
    # constant / eps overflows a float; K(eps) is about 2.0e4, M(eps) is inf
    solver = {"eta": 1.0, "lip": 3.0, "nu": 1e150, "alpha": 0.1111,
              "rho": 0.9444, "c_start": 1.0, "eps": 1e-200}
    out = tmp_path / "out"
    assert main(["bounds", "--config", _write(tmp_path, dict(
        BOUNDS_DOC, solver=solver)), "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    # strict JSON: M(eps) = inf is null, named in nonfinite
    report = json.loads((out / "report.json").read_text(),
                        parse_constant=reject)
    theory = report["theory"]
    assert 1.9e4 < theory["k_eps"] < 2.1e4
    assert theory["m_eps"] is None
    assert report["nonfinite"] == {"theory.m_eps": "Infinity"}
    assert f"K(eps) = {theory['k_eps']:.12g}, M(eps) = inf" in \
        capsys.readouterr().out


def test_bounds_of_a_zero_envelope_need_no_iterations(tmp_path: Path, capsys):
    # c_start = 0 and nu = 0 make the envelope constant 0
    solver = dict(BOUNDS_DOC["solver"], c_start=0.0, nu=0.0)
    out = tmp_path / "out"
    assert main(["bounds", "--config", _write(tmp_path, dict(
        BOUNDS_DOC, solver=solver)), "--out", str(out)]) == 0
    theory = json.loads((out / "report.json").read_text())["theory"]
    assert (theory["envelope_constant"], theory["k_eps"], theory["m_eps"]) \
        == (0.0, 0.0, 0.0)
    assert "K(eps) = 0, M(eps) = 0" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["rho_tilde", "nu", "eps"])
@pytest.mark.parametrize("token,shown", [
    ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"),
    ("1e400", "inf")])
def test_a_non_finite_bounds_value_exits_2_naming_its_key(
        tmp_path: Path, capsys, key: str, token: str, shown: str):
    """Python's json reads these tokens (1e400 as inf), but none of them is
    a JSON number. A NaN rho_tilde passed every bound and exited 0."""
    text = json.dumps(dict(BOUNDS_DOC, solver=dict(BOUNDS_DOC["solver"],
                                                   **{key: "@"})))
    path = tmp_path / "config.json"
    path.write_text(text.replace('"@"', token))
    assert main(["bounds", "--config", str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"config error: config invalid at solver/{key}: {shown} is not of "
        f"type 'number'\n")


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
    from nashprox import distributed

    def no_run(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(distributed, "run_dist_pgr", no_run)
    assert main(argv + ["--config", _write(tmp_path, _ILL_CONDITIONED),
                        "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "condition number kappa = lip/eta = 1e+170 must be below 1e154" \
        in err
    assert "Traceback" not in err


# alpha eta = 9.4e-142 is below an ulp of 1, so varrho = 1 - 2 alpha eta +
# 2 alpha^2 lip^2 rounds to exactly 1 although alpha < eta / lip^2
_VARRHO_ONE = dict(
    DIST_DOC, game=dict(DIST_DOC["game"], a=[0.0], b=[0.0], c_price=9.4e-141),
    graph={"family": "complete", "nodes": 1},
    solver={"alpha": 0.1, "beta": 0.5, "max_iter": 5, "target_eps": 1.0})


@pytest.mark.parametrize("argv", [["dist-pgr"], ["validate"]])
def test_a_step_factor_that_rounds_to_one_is_an_assumption_error(
        tmp_path: Path, capsys, argv: list[str]):
    assert main(argv + ["--config", _write(tmp_path, _VARRHO_ONE),
                        "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "alpha=0.1 gives step factor varrho=1.0 >= 1" in err
    assert "Traceback" not in err


# three Cournot players with boxes [-1e160, 1e160]: c3 leaves the float range
_BOXES_1E160 = dict(
    DIST_DOC, game=dict(DIST_DOC["game"], a=[1.0] * 3, b=[0.0] * 3,
                        lo=-1e160, hi=1e160),
    graph={"family": "path", "nodes": 3},
    solver={"alpha": 0.05, "max_iter": 10})
# the 5-node ring's own mixing rate is 0.5393446629166316
_BETA_BELOW_THE_RING = dict(
    DIST_DOC, solver={"alpha": 0.02, "beta": 0.1, "max_iter": 15})


@pytest.mark.parametrize("doc,message", [
    (_VARRHO_ONE, "alpha=0.1 gives step factor varrho=1.0 >= 1"),
    (_BOXES_1E160, "rate constant c3 = inf leaves the float range"),
    (_BETA_BELOW_THE_RING,
     "beta=0.1 must lie in [0.5393446629166316, 1): below the graph's "
     "mixing rate the consensus bound theta beta^tau fails"),
], ids=["varrho-one", "boxes-1e160", "beta-below-the-graph"])
def test_a_library_run_rejects_what_validate_rejects(
        tmp_path: Path, capsys, doc: dict, message: str):
    """run_dist_pgr checks its inputs through dist_rate_constants, so a
    library run, a library rate call, the command-line run and validate
    stop with one message."""
    cfg = _write(tmp_path, doc)
    lines = []
    for argv in (["validate"], ["dist-pgr"]):
        assert main(argv + ["--config", cfg, "--quiet"]) == 3
        lines.append(capsys.readouterr().err)
    game, graph = build_game(doc["game"]), build_graph(doc["graph"])
    s = doc["solver"]
    config = DistConfig(alpha=s["alpha"], max_iter=s["max_iter"],
                        beta=s.get("beta"))
    with pytest.raises(ValueError) as run_err:
        run_dist_pgr(game, graph, config)
    with pytest.raises(ValueError) as rate_err:
        dist_rate_constants(game, graph, config.alpha, config.beta)
    assert message in str(run_err.value)
    assert str(rate_err.value) == str(run_err.value)
    assert lines[0] == lines[1] and lines[0].count("\n") == 1
    assert lines[0].endswith(f": {run_err.value}\n")


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
    from nashprox import best_response

    def no_run(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(best_response, "run_pbr", no_run)
    doc = dict(PBR_DOC, game=dict(PBR_DOC["game"], h=[[2.0, 0.1], [0.1, 2.0]]),
               solver=dict(solver, mu=1.0, eta_br=0.5, max_iter=5))
    assert main(["pbr", "--config", _write(tmp_path, doc), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "eta_tilde must lie in (max(a, eta_br), 1) = (0.5, 1)" in err
    assert "Traceback" not in err


def test_pbr_on_an_uncontractive_game_exits_3_and_has_no_override_key(
        tmp_path: Path, capsys):
    # a = 1.25 >= 1: the setup names a, before any eta_tilde is derived
    game = dict(PBR_DOC["game"], h=[[1.0, 1.5], [-1.5, 1.0]])
    doc = dict(PBR_DOC, game=game,
               solver={"mu": 1.0, "eta_br": 0.5, "max_iter": 5})
    assert main(["pbr", "--config", _write(tmp_path, doc), "--quiet"]) == 3
    assert capsys.readouterr().err == (
        "invalid parameters: best-response map is not certified contractive: "
        "a = 1.250000 >= 1\n")
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
def test_non_finite_quadratic_game_is_a_config_error(
        tmp_path: Path, capsys, field: str, value: list):
    """NaN and Infinity are not JSON numbers, so the schema rejects them."""
    doc = dict(PGR_DOC, game=dict(PGR_DOC["game"], **{field: value}))
    assert main(["pgr", "--config", _write(tmp_path, doc), "--quiet"]) == 2
    at = "h/0/0: nan" if field == "h" else "c/0: inf"
    assert capsys.readouterr().err == (
        f"config error: config invalid at game/{at} is not of type "
        f"'number'\n")


@pytest.mark.parametrize("command,doc,game", [
    ("pgr", PGR_DOC, {"noise": {"kind": "gaussian", "nu": 1e160}}),
    ("dist-pgr", DIST_DOC, {"nu": 1e160}),
])
def test_overflowing_noise_level_is_rejected_before_any_replication(
        tmp_path: Path, capsys, monkeypatch, command: str, doc: dict,
        game: dict):
    from nashprox import distributed, experiments

    def no_run(*args, **kwargs):
        raise AssertionError("a replication ran")

    monkeypatch.setattr(experiments, "run_pgr", no_run)
    monkeypatch.setattr(distributed, "run_dist_pgr", no_run)
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


_RING5_BETA = mixing_params(ring_graph(5)).beta


@settings(max_examples=40, deadline=None)
@given(alpha=_log_uniform(-6, 0),
       beta=st.none() | st.floats(0.0, 1.0)
       | st.floats(0.5, 1.5).map(lambda f: f * _RING5_BETA),
       max_iter=st.integers(1, 25),
       target_eps=st.none() | _log_uniform(-12, 3),
       nu=st.just(0.0) | _log_uniform(-6, 300))
def test_fuzzed_dist_pgr_configs_exit_with_a_documented_code(
        alpha, beta, max_iter, target_eps, nu):
    """beta is drawn on both sides of the ring's own mixing rate; in (0,
    that rate) the run exits 3, with the rate's message once alpha and nu
    pass."""
    solver = _fuzz_solver({"alpha": alpha, "beta": beta, "max_iter": max_iter,
                           "target_eps": target_eps})
    doc = dict(DIST_DOC, game=dict(DIST_DOC["game"], nu=nu), solver=solver)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write(Path(tmp), doc)
        code, err = _exit_and_stderr(["dist-pgr", "--config", cfg, "--out",
                                      str(Path(tmp) / "out"), "--quiet"])
    assert code in (0, 2, 3, 4)
    if beta is not None and 0.0 < beta < _RING5_BETA:
        assert code == 3
        if alpha < 2 / 49 and nu < 1e150:
            assert "below the graph's mixing rate" in err


def _no_replication(monkeypatch):
    """Make every solver fail if called, where the experiment driver looks
    it up: run_pgr on experiments, the others on their defining modules,
    which the dist-pgr and pbr setup steps import from when they run."""
    from nashprox import best_response, distributed, experiments

    def no_run(*args, **kwargs):
        raise AssertionError("a replication ran")

    for module, name in ((experiments, "run_pgr"),
                         (distributed, "run_dist_pgr"),
                         (best_response, "run_pbr")):
        monkeypatch.setattr(module, name, no_run)


@pytest.mark.parametrize("doc", [
    dict(PGR_DOC, solver={"alpha": 5.0, "rho": 0.9, "max_iter": 20}),
    dict(PBR_DOC, game=dict(PBR_DOC["game"], h=[[2.0, 0.1], [0.1, 2.0]]),
         solver={"mu": 1.0, "eta_br": 0.5, "max_iter": 5, "eta_tilde": 0.3}),
    # a complete graph mixes in one round (beta = 0): without a beta key,
    # dist_rate_constants rejects it before any batch is scheduled
    dict(DIST_DOC, game=dict(DIST_DOC["game"], a=[1.0] * 2, b=[0.0] * 2),
         graph={"family": "complete", "nodes": 2}),
    dict(DIST_DOC, game=dict(DIST_DOC["game"], a=[1.0] * 3, b=[0.0] * 3),
         graph={"family": "complete", "nodes": 3}),
    dict(DIST_DOC, graph={"family": "complete", "nodes": 5}),
], ids=["pgr-alpha", "pbr-eta-tilde", "dist-pgr-zero-beta",
        "dist-pgr-complete-3", "dist-pgr-complete-5"])
def test_validate_rejects_solver_parameters_as_the_run_does(
        tmp_path: Path, capsys, monkeypatch, doc: dict):
    _no_replication(monkeypatch)
    cfg = _write(tmp_path, doc)
    assert main([doc["scheme"], "--config", cfg, "--quiet"]) == 3
    run_err = capsys.readouterr().err
    assert main(["validate", "--config", cfg, "--quiet"]) == 3
    assert capsys.readouterr().err == run_err
    assert run_err and "Traceback" not in run_err


@pytest.mark.parametrize("doc,message", [
    (dict(DIST_DOC, graph={"family": "ring", "nodes": 4}),
     "graph has 4 nodes for 5 players"),
    (dict(PGR_DOC, solver={"alpha": 0.2, "rho": 0.5, "max_iter": 1100}),
     "max_iter must be at most 1022"),
    (dict(PBR_DOC, solver={"mu": 1.0, "eta_br": 0.5, "max_iter": 600}),
     "max_iter must be at most 512"),
    (dict(PGR_DOC, fit={"window": [0, 1]}),
     "rate fit needs at least 3 usable points, got 2"),
    (dict(PGR_DOC, solver=dict(PGR_DOC["solver"], max_iter=60),
          fit={"window": [50, 70]}),
     "window (50, 70) out of range for 61 error entries"),
    (dict(PGR_DOC, x0=[0.0, 0.0, 0.0]),
     "vector of size 3 does not split into blocks (1, 1)"),
    # each player's best response moves by up to nu_i / (mu + zeta_min_i)
    # = 1 / 3 per unit of noise, which m_max * c_r must cover
    (dict(PBR_DOC, solver=dict(PBR_DOC["solver"], m_max=0.0)),
     "batch constant m_max * c_r = 0 is below max_i nu_i / (mu + "
     "zeta_min_i) = 0.333333, so the batches do not cover the best "
     "responses' noise"),
    (dict(PBR_DOC, solver=dict(PBR_DOC["solver"], c_r=1e-3)),
     "batch constant m_max * c_r = 0.001 is below max_i nu_i / (mu + "
     "zeta_min_i) = 0.333333, so the batches do not cover the best "
     "responses' noise"),
    # an explicit skip s is the window (s, K), which a fit needs to hold 3
    # points, so s <= K - 2; it is not moved into range, as the default 5 is
    (dict(PGR_DOC, solver=dict(PGR_DOC["solver"], max_iter=60),
          fit={"skip": 100}),
     "fit.skip = 100 is too large for the run's 60 iterations; the largest "
     "skip is 58"),
    (dict(PGR_DOC, solver=dict(PGR_DOC["solver"], max_iter=60),
          fit={"skip": 59}),
     "fit.skip = 59 is too large for the run's 60 iterations; the largest "
     "skip is 58"),
    # counted after the target_eps cut at ceil(K(0.5)) = 14 of 20
    # iterations, where skip 13 would fit
    (dict(PGR_DOC, solver=dict(PGR_DOC["solver"], target_eps=0.5),
          fit={"skip": 13}),
     "fit.skip = 13 is too large for the run's 14 iterations; the largest "
     "skip is 12"),
    # as the window (0, 1) is
    (dict(PGR_DOC, solver=dict(PGR_DOC["solver"], max_iter=1),
          fit={"skip": 0}),
     "fit.skip = 0 is too large for the run's 1 iteration; no skip leaves "
     "the 3 points a rate fit needs"),
    # a max_iter past sys.maxsize, where range() stops, still finds the
    # first overflowing batch
    (dict(PGR_DOC, solver=dict(PGR_DOC["solver"], max_iter=10 ** 19)),
     "max_iter must be at most 6730"),
    (dict(PGR_DOC, solver=dict(PGR_DOC["solver"], max_iter=1e300)),
     "max_iter must be at most 6730"),
    (dict(DIST_DOC, solver=dict(DIST_DOC["solver"], max_iter=10 ** 19)),
     "max_iter must be at most 2299"),
    (dict(PBR_DOC, solver=dict(PBR_DOC["solver"], max_iter=10 ** 19)),
     "max_iter must be at most 994"),
    # pbr's complexity bound once divided by eta_br^2 = 0 here
    (dict(PBR_DOC, solver=dict(PBR_DOC["solver"], eta_br=5e-324,
                               target_eps=1e-3)),
     "BestResponseBatch(m_max=1.0000000000000002, c_r=1.8944271909999157, "
     "eta_br=5e-324) overflows a float at iteration 1; max_iter must be at "
     "most 1"),
], ids=["graph-nodes", "pgr-batch-overflow", "pbr-batch-overflow",
        "fit-too-few-points", "fit-window-out-of-range", "x0-size",
        "pbr-zero-m-max", "pbr-small-c-r", "fit-skip-past-the-run",
        "fit-skip-one-past-the-largest", "fit-skip-after-a-target-cut",
        "fit-skip-1-iter", "pgr-max-iter-1e19", "pgr-max-iter-1e300",
        "dist-pgr-max-iter-1e19", "pbr-max-iter-1e19",
        "pbr-least-eta-br"])
def test_validate_rejects_what_the_run_rejects_before_any_replication(
        tmp_path: Path, capsys, monkeypatch, doc: dict, message: str):
    """Each config used to pass validate and fail only in or after its
    replications; now the run stops before the first one, with the line
    validate prints."""
    _no_replication(monkeypatch)
    cfg = _write(tmp_path, doc)
    assert main([doc["scheme"], "--config", cfg, "--quiet"]) == 3
    run_err = capsys.readouterr().err
    assert main(["validate", "--config", cfg, "--quiet"]) == 3
    assert capsys.readouterr().err == run_err
    assert run_err.startswith("invalid parameters: ")
    assert run_err.endswith(f"{message}\n") and run_err.count("\n") == 1


@pytest.mark.parametrize("graph,nodes", [
    ({"family": "ring", "nodes": 1_000_000_000}, 1_000_000_000),
    ({"family": "complete", "nodes": 10 ** 12}, 10 ** 12),
    ({"family": "path", "nodes": 6}, 6),
    ({"family": "grid", "rows": 100_000, "cols": 100_000}, 10 ** 10),
    ({"family": "erdos-renyi", "nodes": 10 ** 9, "p": 0.5}, 10 ** 9),
    ({"nodes": 10 ** 9, "edges": [[0, 1]]}, 10 ** 9),
], ids=["ring", "complete", "path", "grid", "erdos-renyi", "edges"])
def test_a_graph_of_the_wrong_size_is_rejected_before_it_is_built(
        tmp_path: Path, capsys, monkeypatch, graph: dict, nodes: int):
    """The node count is read from the graph document, so a billion-node
    graph is not built (every graph constructor fails here if called)."""
    from nashprox import graphs

    def no_build(*args, **kwargs):
        raise AssertionError("a graph was built")
    for name in ("build_metropolis_weights", "complete_graph", "ring_graph",
                 "path_graph", "grid_graph", "erdos_renyi_graph"):
        monkeypatch.setattr(graphs, name, no_build)
    cfg = _write(tmp_path, dict(DIST_DOC, graph=graph))
    for argv in (["validate", "--config", cfg, "--quiet"],
                 ["dist-pgr", "--config", cfg, "--quiet"]):
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"invalid parameters: graph has {nodes} nodes for 5 players\n")


def _exit_and_stderr(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@st.composite
def _boundary_configs(draw) -> dict:
    """Small configs around three pre-run boundaries: graph nodes against
    players, max_iter against the iteration at which a batch size
    overflows a double (3 or 5 for pgr, 3 or 6 for dist-pgr and pbr, none
    within 8 for the last choice of each), and fit windows against the
    iteration count."""
    scheme = draw(st.sampled_from(["pgr", "dist-pgr", "pbr"]))
    solver = {"max_iter": draw(st.integers(1, 8))}
    if scheme == "pgr":
        doc = dict(PGR_DOC, replications=1)
        solver.update(alpha=0.2, rho=draw(st.sampled_from([1e-100, 1e-60,
                                                           0.5])))
        if draw(st.booleans()):
            solver["target_eps"] = draw(st.sampled_from([1e-3, 0.05]))
    elif scheme == "dist-pgr":
        players = draw(st.integers(3, 5))
        doc = dict(DIST_DOC, replications=1,
                   game=dict(DIST_DOC["game"], a=[1.0] * players,
                             b=[0.0] * players),
                   graph={"family": "ring", "nodes": draw(st.integers(3, 5))})
        solver["alpha"] = 0.02
        beta = draw(st.sampled_from([None, 1e-200, 1e-100]))
        if beta is not None:
            solver["beta"] = beta
    else:
        doc = dict(PBR_DOC, replications=1)
        solver.update(mu=1.0, eta_br=draw(st.sampled_from([1e-60, 1e-30,
                                                           0.5])))
    fit = draw(st.sampled_from(["default", "window", "skip"]))
    if fit == "window":
        doc["fit"] = {"window": draw(st.lists(st.integers(0, 10), min_size=2,
                                              max_size=2))}
    elif fit == "skip":
        doc["fit"] = {"skip": draw(st.integers(0, 8))}
    return dict(doc, solver=solver)


@settings(max_examples=80, deadline=None)
@given(doc=_boundary_configs())
def test_validate_and_the_run_agree_on_pre_run_failures(doc: dict):
    """validate exiting 0 means the run does not stop with a config or
    parameter error (2 or 3); a validate failure is the run's failure,
    with the same code and the same stderr line."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write(Path(tmp), doc)
        checked = _exit_and_stderr(["validate", "--config", cfg, "--quiet"])
        ran = _exit_and_stderr([doc["scheme"], "--config", cfg, "--quiet"])
    if checked[0] == 0:
        assert ran[0] not in (2, 3), ran
    else:
        assert ran == checked
        assert checked[1].count("\n") == 1


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
    """Mean errors that are all 0 leave no rate to fit: the report's fit
    gives the reason, the envelope verdict decides, and the run exits 0."""
    # the box midpoint is the equilibrium of this noise-free game
    doc = {"scheme": "pgr",
           "game": {"kind": "cournot", "a": [1.0, 1.0], "b": [0.0, 0.0],
                    "d": 2.0, "c_price": 1.0, "lo": 0.0, "hi": 1.0,
                    "nu": 0.0},
           "solver": {"alpha": 0.1, "rho": 0.9, "max_iter": 30}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["pgr", "--config", _write(tmp_path, doc), "--out",
                     str(tmp_path / "out")]) == 0
    assert [str(w.message) for w in caught] == []
    out, err = capsys.readouterr()
    assert err == ""
    reason = ("every mean error is 0, so there is no rate to fit (the run "
              "starts at the equilibrium and stays there)")
    assert f"no rate fit: {reason}" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["fit"] == {"reason": reason, "window": [5, 30]}
    assert report["theory"]["envelope"]["ok"] is True
    assert report["mean_final_error"] == 0.0


@pytest.mark.parametrize("solver", [{"target_eps": 1.0}, {"max_iter": 1}],
                         ids=["target-eps-cut", "max-iter-1"])
def test_a_one_iteration_run_reports_why_it_has_no_rate_fit(
        tmp_path: Path, capsys, solver: dict):
    """The default fit window of a one-iteration run holds two points: the
    run and validate exit 0, and the report's fit gives the reason (K(1.0)
    of this game is below 1, so target_eps 1.0 cuts the run to one)."""
    doc = dict(PGR_DOC, solver=dict(PGR_DOC["solver"], **solver))
    cfg, out = _write(tmp_path, doc), tmp_path / "out"
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    assert main(["pgr", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text())
    assert report["iterations"] == 1
    assert report["fit"] == {
        "reason": "rate fit needs at least 3 usable points, got 2",
        "window": [0, 1]}


def test_a_warning_of_a_console_run_is_one_line_without_its_source(
        tmp_path: Path):
    """With c_price = 0, 20 mean errors in the fit window of the ring-5
    example are not positive, and the rate fit drops them with a warning,
    which the console used to print with its file path and source line."""
    doc = json.loads((Path(__file__).parent / "golden" / "readme-dist-pgr"
                      / "config.json").read_text())
    doc["game"]["c_price"] = 0.0
    proc = subprocess.run(
        [sys.executable, "-m", "nashprox", "dist-pgr", "--config",
         _write(tmp_path, doc), "--quiet"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ("warning: dropped 20 nonpositive or non-finite "
                           "error entries from the rate fit\n")


README_PBR_DOC = json.loads(
    (Path(__file__).parent / "golden" / "readme-pbr" / "config.json")
    .read_text())


@pytest.mark.parametrize("validate", [False, True], ids=["run", "validate"])
@pytest.mark.parametrize("doc,x0,code,stderr", [
    # the squared distance overflows although x0 is finite
    (PGR_DOC, [1e200, 1e200], 3, "invalid parameters: x0 = [1e+200, 1e+200] "
     "has squared distance inf to the equilibrium; a run needs it finite"),
    (README_PBR_DOC, [1e300, 1e300], 3, "invalid parameters: x0 = [1e+300, "
     "1e+300] has squared distance inf to the equilibrium; a run needs it "
     "finite"),
    # NaN and Infinity are not JSON numbers: the schema rejects them
    (PGR_DOC, [float("nan"), 0.0], 2,
     "config error: config invalid at x0/0: nan is not of type 'number'"),
    (PGR_DOC, [float("inf"), 0.0], 2,
     "config error: config invalid at x0/0: inf is not of type 'number'"),
], ids=["pgr-1e200", "pbr-1e300", "pgr-nan", "pgr-inf"])
def test_a_start_too_far_to_measure_exits_3_before_any_replication(
        tmp_path: Path, capsys, doc: dict, x0: list, code: int, stderr: str,
        validate: bool):
    """A finite start too far to measure exits 3; a NaN or infinite one
    is no JSON number and exits 2. Neither writes a report."""
    out = tmp_path / "out"
    argv = ["validate"] if validate else [doc["scheme"], "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--config", _write(tmp_path, dict(doc, x0=x0)),
                            "--quiet"]) == code
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == stderr + "\n"
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


@pytest.mark.parametrize("max_iter,fit,window", [
    (20, None, [5, 20]), (4, None, [1, 4]), (1, None, [0, 1]),
    (20, {"skip": 17}, [17, 20]), (20, {"skip": 0}, [0, 20]),
    (60, {"skip": 57}, [57, 60]), (60, {"skip": 58}, [58, 60])],
    ids=["default", "default-clamped", "default-one-iteration", "skip-17",
         "skip-0", "skip-57", "skip-58"])
def test_the_default_skip_is_clamped_and_an_explicit_one_in_range_is_kept(
        tmp_path: Path, max_iter: int, fit: dict | None, window: list[int]):
    doc = dict(PGR_DOC, solver=dict(PGR_DOC["solver"], max_iter=max_iter))
    if fit is not None:
        doc["fit"] = fit
    cfg, out = _write(tmp_path, doc), tmp_path / "out"
    assert main(["validate", "--config", cfg, "--quiet"]) == 0
    assert main(["pgr", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["fit"]["window"] == window


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


@pytest.mark.parametrize("command,doc", [
    ("pgr", PGR_DOC), ("pbr", PBR_DOC), ("bounds", BOUNDS_DOC)])
@pytest.mark.parametrize("out", ["file", "file/sub", ""])
def test_an_out_that_cannot_be_a_directory_exits_2_before_the_run(
        tmp_path: Path, capsys, monkeypatch, command: str, doc: dict,
        out: str):
    """It used to run the whole experiment and then fail to write, with a
    FileExistsError traceback (FileNotFoundError for an empty --out) and
    exit 1."""
    _no_replication(monkeypatch)
    (tmp_path / "file").write_text("kept")
    path = str(tmp_path / out) if out else ""
    assert main([command, "--config", _write(tmp_path, doc), "--out",
                 path, "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: " + (
        f"--out {path}: {tmp_path / 'file'} exists and is not a directory"
        if out else "--out is empty; it must name a directory") + "\n"
    assert (tmp_path / "file").read_text() == "kept"


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


@pytest.mark.parametrize("command", ["pbr", "validate"])
def test_a_misspelled_game_kind_is_one_short_line_naming_it(
        tmp_path: Path, capsys, command: str):
    """The 57 KB game block of the pbr benchmark config is not echoed."""
    doc = json.loads((Path(__file__).parent / "golden" / "pbr-quad50-seed1"
                      / "config.json").read_text())
    doc["game"]["kind"] = "quadratc"
    assert main([command, "--config", _write(tmp_path, doc), "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "config error: config invalid at game/kind: 'quadratc' is not one "
        "of ['quadratic', 'quadratic-random', 'cournot']\n")
