"""The growing-batch loop the three solvers share (trace.iterate) and the
RunTrace it returns: every scheme carries the four cumulative counter
columns, one entry per iteration and shared by every row, ending at the
run's counter."""

from __future__ import annotations

import numpy as np
import pytest

from nashprox import (
    DistConfig,
    PbrConfig,
    PgrConfig,
    StrategyProfile,
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


def _pgr(x0=None):
    x0 = x0 or StrategyProfile.zeros(_QUAD.dims)
    return run_pgr(_QUAD, PgrConfig(alpha=0.05, rho=0.8, max_iter=12, seed=3),
                   x0, solve_ne_oracle(_QUAD), replications=[1])


def _dist(x0=None):
    return run_dist_pgr(_COURNOT, ring_graph(4),
                        DistConfig(alpha=0.02, max_iter=12, seed=3),
                        solve_ne_oracle(_COURNOT), replications=[1], x0=x0)


def _pbr(x0=None):
    x0 = x0 or StrategyProfile.zeros(_QUAD.dims)
    return run_pbr(_QUAD, PbrConfig(mu=1.0, eta_br=0.6, max_iter=8, seed=3),
                   x0, solve_ne_oracle(_QUAD), replications=[1])


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
        _RUNS[scheme](StrategyProfile.zeros((1,) * 7))
