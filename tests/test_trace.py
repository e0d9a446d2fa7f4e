"""The growing-batch loop the three solvers share (trace.iterate) and the
RunTrace it returns: every scheme carries the four cumulative counter
columns, one entry per iteration and shared by every row, ending at the
run's counter."""

from __future__ import annotations

import numpy as np
import pytest

from nashprox import (
    DistConfig,
    GaussianNoise,
    GeometricBatch,
    PbrConfig,
    PgrConfig,
    QuadraticGame,
    check_schedule,
    generate_cournot_game,
    generate_quadratic_game,
    ring_graph,
    run_dist_pgr,
    run_pbr,
    run_pgr,
    solve_ne_oracle,
)

_QUAD = generate_quadratic_game(3, 2, 0.3, seed=1, nu=0.5)
_COURNOT = generate_cournot_game(4, seed=2, nu=0.3)


def _pgr(x0=None, x_star=None):
    x0 = np.zeros(_QUAD.dim) if x0 is None else x0
    x_star = solve_ne_oracle(_QUAD) if x_star is None else x_star
    return run_pgr(_QUAD, PgrConfig(alpha=0.05, rho=0.8, max_iter=12, seed=3),
                   x0, x_star, replications=[1])


def _dist(x0=None, x_star=None):
    x_star = solve_ne_oracle(_COURNOT) if x_star is None else x_star
    return run_dist_pgr(_COURNOT, ring_graph(4),
                        DistConfig(alpha=0.02, max_iter=12, seed=3),
                        x_star, replications=[1], x0=x0)


def _pbr(x0=None, x_star=None):
    x0 = np.zeros(_QUAD.dim) if x0 is None else x0
    x_star = solve_ne_oracle(_QUAD) if x_star is None else x_star
    return run_pbr(_QUAD, PbrConfig(mu=1.0, eta_br=0.6, max_iter=8, seed=3),
                   x0, x_star, replications=[1])


_RUNS = {"pgr": _pgr, "dist-pgr": _dist, "pbr": _pbr}


@pytest.mark.parametrize("scheme", sorted(_RUNS))
def test_counter_columns_have_one_entry_per_iteration_and_end_at_the_counter(
        scheme):
    trace = _RUNS[scheme]()
    n = trace.iterations
    assert n == len(trace.batches) > 0
    assert trace.errors.shape == (1, n + 1)
    assert np.all(np.isfinite(trace.errors))
    c = trace.counter
    for column, total in ((trace.cum_samples, c.total_samples),
                          (trace.cum_prox, c.prox_evals),
                          (trace.cum_comm, c.comm_rounds),
                          (trace.cum_inner, c.inner_solves)):
        assert len(column) == n
        assert all(type(v) is int for v in column)
        assert all(a <= b for a, b in zip(column, column[1:]))
        assert column[-1] == total


def test_each_scheme_counts_its_own_effort():
    ks = np.arange(1, 13)
    pgr = _pgr()
    assert pgr.cum_samples == np.cumsum(pgr.batches).tolist()
    assert pgr.cum_prox == ks.tolist()
    assert pgr.cum_comm == pgr.cum_inner == [0] * 12
    assert pgr.taus is None and pgr.consensus_errors is None
    dist = _dist()
    assert dist.taus == ks.tolist()
    assert dist.cum_comm == np.cumsum(ks).tolist()
    assert dist.cum_samples == (4 * np.cumsum(dist.batches)).tolist()
    assert dist.cum_prox == ks.tolist()
    assert dist.cum_inner == [0] * 12
    assert dist.consensus_errors.shape == (1, 12)
    pbr = _pbr()
    assert pbr.cum_inner == (3 * np.arange(1, 9)).tolist()
    assert pbr.cum_samples == (3 * np.cumsum(pbr.batches)).tolist()
    assert pbr.cum_prox == pbr.cum_comm == [0] * 8
    assert pbr.taus is None and pbr.consensus_errors is None


@pytest.mark.parametrize("scheme", sorted(_RUNS))
def test_a_start_of_the_wrong_shape_is_rejected_by_every_solver(scheme):
    with pytest.raises(ValueError, match="x0 dims"):
        _RUNS[scheme](np.zeros(7))


@pytest.mark.parametrize("scheme", sorted(_RUNS))
def test_a_size_one_start_or_reference_is_rejected_before_it_broadcasts(
        scheme):
    """numpy would broadcast a size-1 x0 or x_star against every row;
    both are rejected by shape, as is anything but an ndarray."""
    for x0 in (np.zeros(1), np.zeros((1, 6)), [0.0] * 6):
        with pytest.raises(ValueError, match="x0 dims"):
            _RUNS[scheme](x0)
    for x_star in (np.zeros(1), np.zeros(7)):
        with pytest.raises(ValueError, match="x_star dims"):
            _RUNS[scheme](x_star=x_star)


@pytest.mark.parametrize("scheme", sorted(_RUNS))
def test_a_start_that_is_a_list_is_rejected_naming_its_type(scheme):
    """A list of the right size was said not to split into the blocks."""
    dim = (_COURNOT if scheme == "dist-pgr" else _QUAD).dim
    with pytest.raises(ValueError, match=r"^x0 dims do not match game dims: "
                       rf"got a list, not a numpy array of {dim} entries$"):
        _RUNS[scheme]([0.0] * dim)


def _far_start(game) -> np.ndarray:
    return np.full(game.dim, 1e200)


@pytest.mark.parametrize("scheme", sorted(_RUNS))
def test_a_start_too_far_to_measure_is_rejected_by_every_solver(scheme):
    x0 = _far_start(_COURNOT if scheme == "dist-pgr" else _QUAD)
    with pytest.raises(ValueError) as err:
        _RUNS[scheme](x0)
    assert str(err.value) == (
        f"x0 = {x0.tolist()} has squared distance inf to the "
        f"equilibrium; a run needs it finite")


def test_a_target_eps_run_from_a_start_too_far_to_measure_is_rejected():
    # the start is checked before its distance sets the iteration bound
    game = QuadraticGame(dims=(1, 1), h=np.array([[2.0, 1.0], [1.0, 2.0]]),
                         c=np.array([-1.0, -1.0]), noise=GaussianNoise(1.0))
    config = PgrConfig(alpha=0.2, rho=0.9, max_iter=50, target_eps=1e-3)
    with pytest.raises(ValueError, match=r"^x0 = \[1e\+200, 1e\+200\] has "
                                         r"squared distance inf"):
        run_pgr(game, config, _far_start(game), solve_ne_oracle(game))


@pytest.mark.parametrize("config", [
    lambda **run: PgrConfig(alpha=0.05, rho=0.8, **run),
    lambda **run: DistConfig(alpha=0.02, **run),
    lambda **run: PbrConfig(mu=1.0, eta_br=0.6, **run)],
    ids=["pgr", "dist-pgr", "pbr"])
@pytest.mark.parametrize("run,name", [
    ({"max_iter": 2.5, "seed": 1}, "max_iter"),
    ({"max_iter": True, "seed": 1}, "max_iter"),
    ({"max_iter": 5, "seed": 1.5}, "seed"),
    ({"max_iter": 5, "seed": False}, "seed")],
    ids=["float-max-iter", "bool-max-iter", "float-seed", "bool-seed"])
def test_every_solver_config_takes_integer_max_iter_and_seed(config, run,
                                                             name):
    """A float max_iter failed inside the run; a seed of 1.5 ran seed 1."""
    with pytest.raises(ValueError, match=(
            rf"^{name} must be an integer, got {run[name]!r}$")):
        config(**run)
    config(max_iter=np.int64(5), seed=np.uint32(1))


def test_a_run_of_no_iterations_is_rejected_saying_so():
    with pytest.raises(ValueError, match=(
            "^a run needs at least one iteration, got 0$")):
        check_schedule(GeometricBatch(0.5), 0)
