"""All replications of a run in one solver call.

run_pgr, run_dist_pgr and run_pbr take a sequence of replication ids, run
every replication in one stacked loop and return one RunTrace for all of
them, row j for the j-th id; a bare int or an empty sequence is rejected.
Row j of a stacked call must be exactly row 0 of the call with the j-th
id alone, and the stacked call must still make one oracle call, one
consensus refresh and one inner solve per replication where one
replication alone makes one. A run failure names the iteration and the
replication.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox import (
    DistConfig,
    Divergence,
    ExperimentSpec,
    InnerSolveFailure,
    PbrConfig,
    PgrConfig,
    RunTrace,
    build_game,
    generate_cournot_game,
    ring_graph,
    run_dist_pgr,
    run_experiment,
    run_pbr,
    run_pgr,
    solve_ne_oracle,
)
from nashprox import best_response as best_response_module
from nashprox import pgr as pgr_module
from nashprox import sampling as sampling_module
from nashprox.cli import main

# three players with a box, an l1 and no regularizer, so the stacked prox
# runs every branch
_QUAD_DOC = {
    "kind": "quadratic", "dims": [1, 2, 1],
    "h": [[2.0, 0.2, -0.1, 0.0], [0.1, 1.5, 0.3, 0.1],
          [0.0, 0.3, 2.5, -0.2], [0.2, 0.0, 0.1, 1.0]],
    "c": [-1.0, 0.5, 0.2, -0.3],
    "regularizers": [{"kind": "box", "lo": -0.4, "hi": 0.4},
                     {"kind": "l1", "weight": 0.2}, {"kind": "zero"}],
    "noise": {"kind": "gaussian", "nu": 1.5},
}
_QUAD = build_game(_QUAD_DOC)
_QUAD_STAR = solve_ne_oracle(_QUAD)
_COURNOT = generate_cournot_game(5, seed=2, nu=0.8)
_COURNOT_STAR = solve_ne_oracle(_COURNOT)
_RING = ring_graph(5)


def _pgr(replications, seed=3):
    x0 = np.array([0.9, -0.7, 0.8, 1.2])
    return run_pgr(_QUAD, PgrConfig(alpha=0.2, rho=0.8, max_iter=11,
                                    seed=seed), x0, _QUAD_STAR, replications)


def _dist(replications, seed=3):
    return run_dist_pgr(_COURNOT, _RING,
                        DistConfig(alpha=0.02, max_iter=9, seed=seed),
                        _COURNOT_STAR, replications=replications)


def _pbr(replications, seed=3):
    return run_pbr(_QUAD, PbrConfig(mu=1.0, eta_br=0.6, max_iter=7, seed=seed),
                   np.zeros(_QUAD.dim), _QUAD_STAR,
                   replications)


_RUNS = {"pgr": _pgr, "dist-pgr": _dist, "pbr": _pbr}
_RUNS_DIM = {"pgr": _QUAD.dim, "dist-pgr": _COURNOT.dim, "pbr": _QUAD.dim}


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _assert_same_row(stacked: RunTrace, j: int, single: RunTrace) -> None:
    """Row j of stacked equals the one row of single, bit for bit, and
    the shared columns are equal."""
    assert len(single.errors) == len(single.final) == 1
    assert _bits(stacked.errors[j]) == _bits(single.errors[0])
    assert _bits(stacked.final[j]) == _bits(single.final[0])
    for column in ("batches", "cum_samples", "cum_prox", "cum_comm",
                   "cum_inner", "taus"):
        assert getattr(stacked, column) == getattr(single, column)
    assert stacked.counter == single.counter
    if single.consensus_errors is None:
        assert stacked.consensus_errors is None
    else:
        assert _bits(stacked.consensus_errors[j]) == \
            _bits(single.consensus_errors[0])


@pytest.mark.parametrize("reps", [1, 2, 7])
@pytest.mark.parametrize("scheme", sorted(_RUNS))
def test_the_all_rows_call_equals_one_call_per_replication(scheme, reps):
    run = _RUNS[scheme]
    stacked = run(range(reps))
    assert isinstance(stacked, RunTrace)
    assert stacked.errors.shape == (reps, stacked.iterations + 1)
    assert stacked.final.shape == (reps, _RUNS_DIM[scheme])
    for r in range(reps):
        _assert_same_row(stacked, r, run([r]))


@settings(max_examples=15, deadline=None)
@given(scheme=st.sampled_from(sorted(_RUNS)), seed=st.integers(0, 2 ** 32),
       ids=st.lists(st.integers(0, 2 ** 20), min_size=1, max_size=6,
                    unique=True))
def test_any_replication_ids_in_any_order_match_their_own_runs(scheme, seed,
                                                                 ids):
    run = _RUNS[scheme]
    stacked = run(ids, seed=seed)
    for j, r in enumerate(ids):
        _assert_same_row(stacked, j, run([r], seed=seed))


@pytest.mark.parametrize("scheme", sorted(_RUNS))
def test_an_empty_sequence_of_replication_ids_is_rejected(scheme):
    with pytest.raises(ValueError, match="at least one replication id"):
        _RUNS[scheme]([])


@pytest.mark.parametrize("scheme", sorted(_RUNS))
def test_a_bare_replication_id_is_rejected(scheme):
    # a bare 50 would otherwise run the replication with id 50 alone
    with pytest.raises(ValueError, match=r"id, as \[r\] or range\(R\), "
                       r"got 50$"):
        _RUNS[scheme](50)


@pytest.mark.parametrize("scheme", sorted(_RUNS))
def test_a_range_of_ids_is_counted_without_an_array(scheme):
    """np.ndim(range(R)) built an array of R ids: MemoryError at 10**12,
    and at 10**20 a range it read as holding no id."""
    run = _RUNS[scheme]
    _assert_same_row(run(range(5, 0, -2)), 1, run([3]))
    assert len(run(range(4, 7, 2)).errors) == 2
    with pytest.raises(ValueError, match="at least one replication id"):
        run(range(3, 3))
    # numpy refuses either block size without touching memory
    for count in (10 ** 12, 10 ** 20):
        with pytest.raises(MemoryError, match=f"^{count} replications do "
                                              f"not fit in memory"):
            run(range(count))


@pytest.mark.parametrize("scheme", sorted(_RUNS))
@pytest.mark.parametrize("count", [10 ** 12, 10 ** 20])
def test_a_replication_count_too_large_to_allocate_exits_4(
        capsys, scheme: str, count: int):
    cfg = Path(__file__).parent / "golden" / f"readme-{scheme}" / "config.json"
    assert main([scheme, "--config", str(cfg), "--replications", str(count),
                 "--quiet"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"runtime failure: {count} replications do not "
                          f"fit in memory: a run holds {count} rows of ")
    assert err.count("\n") == 1


def test_replications_differ_and_each_trace_owns_its_columns():
    trace, again = _pgr([0, 1]), _pgr([0, 1])
    assert _bits(trace.errors[0]) != _bits(trace.errors[1])
    assert _bits(trace.final[0]) != _bits(trace.final[1])
    trace.cum_samples.append(-1)
    trace.counter.total_samples += 1
    assert again.cum_samples[-1] != -1
    assert again.counter != trace.counter


def _rebind(monkeypatch, module, name: str, amount) -> list[int]:
    """Count amount(args, kwargs) over every call of module.name, by
    rebinding the function at every nashprox module that holds it."""
    orig, total = getattr(module, name), [0]

    def counted(*args, **kwargs):
        total[0] += amount(args, kwargs)
        return orig(*args, **kwargs)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "nashprox" or mod_name.startswith("nashprox."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return total


def _spec(scheme: str, reps: int, k: int) -> ExperimentSpec:
    if scheme == "pgr":
        return ExperimentSpec(scheme, {"alpha": 0.2, "rho": 0.8,
                                       "max_iter": k}, _QUAD_DOC, seed=4,
                              replications=reps)
    if scheme == "pbr":
        return ExperimentSpec(scheme, {"mu": 1.0, "eta_br": 0.6,
                                       "max_iter": k}, _QUAD_DOC, seed=4,
                              replications=reps)
    game = {"kind": "cournot", "a": [1.0, 1.5, 2.0, 1.2], "b": [0.0] * 4,
            "d": 2.0, "c_price": 1.0, "lo": 0.0, "hi": 1.0, "nu": 0.5}
    return ExperimentSpec(scheme, {"alpha": 0.02, "max_iter": k}, game,
                          graph={"family": "ring", "nodes": 4}, seed=4,
                          replications=reps)


def test_one_experiment_makes_one_oracle_call_per_replication_and_step(
        monkeypatch):
    from nashprox import graphs

    reps, k = 6, 9
    calls = _rebind(monkeypatch, sampling_module, "sample_batch_gradient",
                    lambda a, kw: 1)
    saa = _rebind(monkeypatch, best_response_module, "saa_best_response",
                  lambda a, kw: 1)
    rounds = _rebind(monkeypatch, graphs, "consensus_apply",
                     lambda a, kw: a[2])
    run_experiment(_spec("pgr", reps, k))
    assert (calls[0], saa[0], rounds[0]) == (reps * k, 0, 0)
    run_experiment(_spec("pbr", reps, k))
    assert (calls[0], saa[0], rounds[0]) == (reps * k, reps * k * 3, 0)
    run_experiment(_spec("dist-pgr", reps, k))
    assert (calls[0], saa[0], rounds[0]) == \
        (reps * k, reps * k * 3, reps * k * (k + 1) // 2)


_HUGE_START = [1e308, 1e308]
_DIVERGING_DOC = {
    "scheme": "pgr", "seed": 11, "replications": 3, "x0": _HUGE_START,
    "game": {"kind": "quadratic", "h": [[2.0, 1.0], [1.0, 2.0]],
             "c": [-1.0, -1.0], "regularizers": [{"kind": "zero"}] * 2,
             "noise": {"kind": "gaussian", "nu": 1.0}},
    "solver": {"alpha": 0.2, "rho": 0.9, "max_iter": 20},
}


# A run can only diverge from a start whose distance to the equilibrium
# already overflows: with lip < 1e154 a gradient at a start of finite
# squared norm stays finite, and an admissible noise level (nu^2 finite) is
# far below the spacing of floats near 1e308. The command line rejects
# such a start before the first replication (exit 3); the library reports
# the overflow as the divergence. Neither prints a numpy warning (which
# pytest turns into an error here).
def test_a_diverging_run_exits_4_naming_the_iteration_and_replication(
        tmp_path: Path, capsys, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_DIVERGING_DOC))
    assert main(["pgr", "--config", str(cfg), "--quiet"]) == 3
    assert capsys.readouterr().err == (
        "invalid parameters: x0 = [1e+308, 1e+308] has squared distance "
        "inf to the equilibrium; a run needs it finite\n")
    # from the default start, an oracle gradient that overflows at
    # iteration 2 of the second of three replications (the 8th call)
    gradient, calls = pgr_module.sample_batch_gradient, [0]

    def overflowing(*args, **kwargs):
        calls[0] += 1
        g = gradient(*args, **kwargs)
        if calls[0] == 2 * 3 + 2:
            g[...] = np.inf  # g is the step's row, kwargs["out"]
        return g

    monkeypatch.setattr(pgr_module, "sample_batch_gradient", overflowing)
    doc = {k: v for k, v in _DIVERGING_DOC.items() if k != "x0"}
    cfg.write_text(json.dumps(doc))
    assert main(["pgr", "--config", str(cfg), "--quiet"]) == 4
    assert capsys.readouterr().err == (
        "runtime failure: iterate became non-finite at iteration 2 of "
        "replication 1\n")


@pytest.mark.parametrize("replication,named", [
    pytest.param([3], 3, id="3-3"), ([5, 2], 5)])
def test_a_diverging_library_run_names_its_replication(replication, named):
    game = build_game(_DIVERGING_DOC["game"])
    x0 = np.array(_HUGE_START, dtype=float)
    with pytest.raises(Divergence, match=f"non-finite at iteration 0 of "
                       f"replication {named}$") as info:
        run_pgr(game, PgrConfig(alpha=0.2, rho=0.9, max_iter=5), x0,
                replications=replication)
    assert info.value.iteration == 0
    # the aggregate N v_hat = 1.5e308 plus a_i x_i overflows
    start = np.full(5, 3e307)
    with pytest.raises(Divergence, match=f"non-finite at iteration 0 of "
                       f"replication {named}$"):
        run_dist_pgr(_COURNOT, _RING, DistConfig(alpha=0.02, max_iter=5),
                     replications=replication, x0=start)


def test_an_inner_solve_failure_names_the_iteration_and_replication(
        monkeypatch):
    solve, calls = best_response_module.saa_best_response, [0]

    def failing(*args, **kwargs):
        calls[0] += 1
        # iteration 1, second replication, third player: (1 * 3 + 1) * 3 + 3
        if calls[0] == 15:
            raise InnerSolveFailure("anchored best response of player 2 did "
                                    "not converge", residual=0.25)
        return solve(*args, **kwargs)

    monkeypatch.setattr(best_response_module, "saa_best_response", failing)
    with pytest.raises(InnerSolveFailure) as info:
        _pbr([4, 7, 9])
    assert str(info.value) == ("anchored best response of player 2 did not "
                               "converge at iteration 1 of replication 7")
    assert info.value.residual == 0.25
