"""The noise stream of a replication and its calibration.

Replication r of a run with seed s draws its standard normals from
substream(s, r, 1), row by row, and scales block i of row k by
nu_i / sqrt(d_i N_k) (noise.iteration_errors, which draws every
replication of a run a few rows at a time). These tests pin that
definition, check that a row does not depend on how many rows or
replications are drawn, that the stream differs from the game-generator
and graph streams, and that the solvers' errors have the calibrated second
moment nu_i^2 / N_k and no correlation across replications.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox import (
    AggregativeGame,
    DistConfig,
    GaussianNoise,
    PbrConfig,
    PgrConfig,
    QuadraticGame,
    StrategyProfile,
    ring_graph,
    run_dist_pgr,
    run_pbr,
    run_pgr,
    solve_ne_oracle,
    substream,
)
from nashprox import trace as trace_module
from nashprox.cli import main
from nashprox.noise import DRAW_CHUNK, iteration_errors

# one word, zero, and two or more words (at and above 2^32)
component = (st.integers(0, 2 ** 32 - 1) | st.just(0)
             | st.integers(2 ** 32, 2 ** 160))


def _rows(nus, dims, seed, replication, batches) -> np.ndarray:
    """The rows iteration_errors draws for one replication, stacked."""
    return np.concatenate(list(iteration_errors(nus, dims, seed,
                                                [replication], batches)))


@settings(max_examples=100, deadline=None)
@given(seed=component, replication=component,
       nus=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4),
       data=st.data())
def test_site_draws_equal_substream_draws(seed, replication, nus, data):
    """Block i of row k is that slice of the replication's substream block,
    scaled by nu_i / sqrt(d_i N_k), bit for bit."""
    dims = data.draw(st.lists(st.integers(1, 5), min_size=len(nus),
                              max_size=len(nus)))
    batches = data.draw(st.lists(st.integers(1, 10 ** 6) | st.just(2 ** 60),
                                 min_size=1, max_size=6))
    got = _rows(nus, dims, seed, replication, batches)
    z = substream(seed, replication, 1).standard_normal(
        (len(batches), sum(dims)))
    offsets = np.cumsum([0] + dims)
    for k, n_k in enumerate(batches):
        for i, d in enumerate(dims):
            sl = slice(offsets[i], offsets[i + 1])
            want = z[k, sl] * (nus[i] / math.sqrt(d * float(n_k)))
            assert got[k, sl].tobytes() == want.tobytes()


def test_rows_do_not_depend_on_how_many_are_drawn():
    nus, dims = (0.4, 2.0), (3, 1)
    batches = [1, 2, 4, 9, 20, 41]
    full = _rows(nus, dims, 5, 3, batches)
    for n in range(1, len(batches)):
        head = _rows(nus, dims, 5, 3, batches[:n])
        assert head.tobytes() == full[:n].tobytes()


@pytest.mark.parametrize("n_iter", [1, DRAW_CHUNK - 1, DRAW_CHUNK,
                                    2 * DRAW_CHUNK + 1])
def test_stacked_rows_are_each_replications_own_rows(n_iter):
    """Row j of the k-th array iteration_errors yields, which draws every
    replication a few iterations at a time, is row k of replication
    ids[j]'s stream block, bit for bit."""
    nus, dims, ids = (0.4, 2.0), (3, 1), [7, 0, 3]
    batches = [3 ** k for k in range(n_iter)]
    rows = list(iteration_errors(nus, dims, 5, ids, batches))
    assert len(rows) == n_iter
    assert all(w.shape == (len(ids), sum(dims)) for w in rows)
    for j, r in enumerate(ids):
        z = substream(5, r, 1).standard_normal((n_iter, sum(dims)))
        for k, n_k in enumerate(batches):
            want = np.concatenate([
                z[k, :3] * (nus[0] / math.sqrt(3 * float(n_k))),
                z[k, 3:] * (nus[1] / math.sqrt(1 * float(n_k)))])
            assert rows[k][j].tobytes() == want.tobytes()


def _quadratic_game(nu: float) -> QuadraticGame:
    h = np.array([[2.0, 0.3, 0.1], [0.3, 2.5, 0.0], [0.1, 0.0, 3.0]])
    return QuadraticGame(dims=(2, 1), h=h, c=np.array([-1.0, 0.5, 1.0]),
                         noise=GaussianNoise(nu))


def _cournot_game(nus) -> AggregativeGame:
    n = len(nus)
    return AggregativeGame(
        a=tuple(np.linspace(1.0, 2.0, n)), b=tuple(np.linspace(0.0, 0.2, n)),
        d=2.0, c_price=1.0, lo=(0.0,) * n, hi=(1.0,) * n,
        noises=tuple(GaussianNoise(v) for v in nus))


_DOCS = {
    "pgr": {"scheme": "pgr", "seed": 3,
            "game": {"kind": "quadratic", "h": [[2.0, 1.0], [1.0, 2.0]],
                     "c": [-1.0, -1.0],
                     "noise": {"kind": "gaussian", "nu": 1.0}},
            "solver": {"alpha": 0.2, "rho": 0.9, "max_iter": 12}},
    "dist-pgr": {"scheme": "dist-pgr", "seed": 5,
                 "game": {"kind": "cournot", "a": [1.0] * 4, "b": [0.0] * 4,
                          "d": 2.0, "c_price": 1.0, "lo": 0.0, "hi": 1.0,
                          "nu": [0.2, 0.5, 0.8, 1.1]},
                 "graph": {"family": "ring", "nodes": 4},
                 "solver": {"alpha": 0.02, "max_iter": 10}},
    "pbr": {"scheme": "pbr", "seed": 2,
            "game": {"kind": "quadratic", "h": [[2.0, 1.0], [1.0, 2.0]],
                     "c": [-1.0, -1.0],
                     "noise": {"kind": "gaussian", "nu": 1.5}},
            "solver": {"mu": 1.0, "eta_br": 0.7, "max_iter": 8,
                       "eta_tilde": 0.75}},
}


def _rows_of_replication(path, replication: int) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [row for row in rows[1:] if row[-1] == str(replication)]


@pytest.mark.parametrize("scheme", sorted(_DOCS))
def test_replication_zero_is_the_same_at_one_and_five_replications(
        tmp_path, scheme):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(_DOCS[scheme]))
    rows = {}
    for reps in (1, 5):
        out = tmp_path / f"out{reps}"
        assert main([scheme, "--config", str(cfg), "--out", str(out),
                     "--replications", str(reps), "--quiet"]) == 0
        rows[reps] = _rows_of_replication(out / "trace.csv", 0)
    assert len(rows[1]) == _DOCS[scheme]["solver"]["max_iter"]
    assert rows[1] == rows[5]


@pytest.mark.parametrize("game", [_quadratic_game(1.5),
                                  _cournot_game((0.3, 0.9, 1.4))],
                         ids=["quadratic", "cournot"])
def test_a_run_cut_short_by_target_eps_draws_the_leading_rows(game):
    x_star = solve_ne_oracle(game)
    x0 = StrategyProfile.from_vector(np.full(game.dim, 0.9), game.dims)
    full = PgrConfig(alpha=0.1, rho=0.8, max_iter=40, seed=9)
    short = PgrConfig(alpha=0.1, rho=0.8, max_iter=40, seed=9,
                      target_eps=0.05)
    whole = run_pgr(game, full, x0, x_star, replications=[2])
    cut = run_pgr(game, short, x0, x_star, replications=[2])
    k = len(cut.batches)
    assert 1 <= k < len(whole.batches)
    assert cut.errors[0].tobytes() == whole.errors[0, :k + 1].tobytes()
    assert cut.batches == whole.batches[:k]


@pytest.mark.parametrize("seed", [0, 1, 17, 7001, 2 ** 40])
def test_replication_streams_differ_from_the_game_and_graph_streams(seed):
    def state(*entropy):
        return np.random.SeedSequence(entropy).generate_state(4, np.uint64)

    # SeedSequence pads entropy with zero words up to its four-word pool,
    # so a path ending in 0 can alias the shorter path: this is why the
    # replication path ends in 1.
    assert np.array_equal(state(seed, 3), state(seed, 3, 0))
    if seed < 2 ** 32:
        assert np.array_equal(state(seed, 3), state(seed, 3, 0, 0))
    others = [state(seed, 7001), state(seed, 7002)]
    others += [state(seed, n) for n in range(2, 64)]  # Erdos-Renyi graphs
    for r in list(range(64)) + [7001, 7002]:
        mine = state(seed, r, 1)
        assert not any(np.array_equal(mine, other) for other in others)
        draws = substream(seed, r, 1).standard_normal(4)
        assert not np.array_equal(draws,
                                  substream(seed, 7001).standard_normal(4))
        assert not np.array_equal(draws,
                                  substream(seed, 7002).standard_normal(4))


def _recorded(monkeypatch) -> list[list[np.ndarray]]:
    """Every error array the solvers' shared loop (trace.iterate) draws
    through iteration_errors, one list of (R, n) arrays per run."""
    seen = []

    def recording(*args):
        rows = []
        seen.append(rows)
        for w in iteration_errors(*args):
            rows.append(w)
            yield w

    monkeypatch.setattr(trace_module, "iteration_errors", recording)
    return seen


def _pgr_runs(game, reps):
    config = PgrConfig(alpha=0.1, rho=0.7, max_iter=12, seed=4)
    x0 = StrategyProfile.zeros(game.dims)
    return run_pgr(game, config, x0, replications=range(reps))


def _dist_runs(game, reps):
    config = DistConfig(alpha=0.02, max_iter=12, seed=6)
    return run_dist_pgr(game, ring_graph(game.n_players), config,
                        replications=range(reps))


def _pbr_runs(game, reps):
    config = PbrConfig(mu=1.0, eta_br=0.6, max_iter=8, seed=8)
    x0 = StrategyProfile.zeros(game.dims)
    return run_pbr(game, config, x0, replications=range(reps))


_CASES = {
    # per-player nu_i of a Cournot game, one coordinate each
    "pgr-cournot": (_pgr_runs, _cournot_game((0.3, 0.9, 1.4)), 300,
                    [(0.3, 1), (0.9, 1), (1.4, 1)]),
    "dist-pgr-cournot": (_dist_runs,
                         _cournot_game((0.5, 1.0, 2.0, 0.7)), 300,
                         [(0.5, 1), (1.0, 1), (2.0, 1), (0.7, 1)]),
    # one model on the joint gradient of a quadratic game
    "pgr-quadratic": (_pgr_runs, _quadratic_game(1.5), 300, [(1.5, 3)]),
    # a quadratic game's per-block share nu_i = nu sqrt(d_i / n) in pbr
    "pbr-quadratic": (_pbr_runs, _quadratic_game(1.5), 300,
                      [(1.5 * math.sqrt(2 / 3), 2),
                       (1.5 * math.sqrt(1 / 3), 1)]),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_errors_have_the_calibrated_second_moment(monkeypatch, case):
    """Over every site, mean(||w||^2 N_k / nu_i^2) = 1 within 4 standard
    errors, with ||w||^2 N_k / nu_i^2 ~ chi^2_d / d of variance 2/d; the
    standardized errors have mean 0 within 4 standard errors, and the
    correlation of consecutive replications, of standard error 1/sqrt(M)
    for M entries per replication, has mean 0 within 4 standard errors
    and no pair beyond 5/sqrt(M) (under 2e-4 for all pairs together)."""
    runs, game, reps, blocks = _CASES[case]
    seen = _recorded(monkeypatch)
    trace = runs(game, reps)
    assert len(seen) == 1 and all(w.shape[0] == reps for w in seen[0])
    n_k = np.array(trace.batches, dtype=float)[:, None]
    ratios, variance, standardized = [], 0.0, []
    for w in np.stack(seen[0], axis=1):  # one (K, n) block per replication
        offset, cols = 0, []
        for nu, d in blocks:
            block = w[:, offset:offset + d]
            ratios.extend(np.sum(block ** 2, axis=1) * n_k[:, 0] / nu ** 2)
            variance += len(n_k) * 2.0 / d
            cols.append(block * np.sqrt(d * n_k) / nu)
            offset += d
        assert offset == w.shape[1]
        standardized.append(np.hstack(cols).ravel())
    sites = len(ratios)
    assert abs(np.mean(ratios) - 1.0) <= 4.0 * math.sqrt(variance) / sites
    z = np.array(standardized)
    assert abs(z.mean()) <= 4.0 / math.sqrt(z.size)
    corr = np.diagonal(np.corrcoef(z), 1)
    m = z.shape[1]
    assert abs(corr.mean()) <= 4.0 / math.sqrt(m * len(corr))
    assert np.max(np.abs(corr)) <= 5.0 / math.sqrt(m)
