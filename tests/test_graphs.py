from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nashprox import (
    CommGraph,
    NoGeometricMixing,
    build_metropolis_weights,
    complete_graph,
    consensus_apply,
    erdos_renyi_graph,
    grid_graph,
    mixing_params,
    path_graph,
    ring_graph,
)


def max_mixing_deviation(g: CommGraph, k: int) -> float:
    """max_ij |[A^k]_ij - 1/N|, the quantity the mixing bound controls."""
    power = np.linalg.matrix_power(g.weights, int(k))
    return float(np.max(np.abs(power - 1.0 / g.n_nodes)))


def test_complete_graph_weights_are_uniform():
    g = complete_graph(3)
    assert np.allclose(g.weights, np.full((3, 3), 1 / 3), atol=1e-15)


def test_path_graph_metropolis_weights_and_gap():
    g = path_graph(3)
    expected = np.array([[2 / 3, 1 / 3, 0.0],
                         [1 / 3, 1 / 3, 1 / 3],
                         [0.0, 1 / 3, 2 / 3]])
    assert np.allclose(g.weights, expected, atol=1e-15)
    assert mixing_params(g).beta == pytest.approx(2 / 3, abs=1e-12)


def test_ring_of_four_has_uniform_metropolis_weights():
    g = ring_graph(4)
    # every vertex has degree 2, so each neighbor weight is 1/3
    for i in range(4):
        row = g.weights[i]
        assert row[i] == pytest.approx(1 / 3)
        assert row.sum() == pytest.approx(1.0, abs=1e-15)


def test_mixing_params_reports_theta_one():
    mp = mixing_params(ring_graph(5))
    assert mp.theta == 1.0
    assert 0.0 < mp.beta < 1.0


def test_disconnected_weight_matrix_has_no_geometric_mixing():
    """A spectrum whose second eigenvalue has modulus 1, as the weights of
    a disconnected support would have, stops mixing_params; a graph with
    its cached spectrum replaced stands in for one, which CommGraph
    itself rejects."""
    g = path_graph(3)
    vars(g)["spectrum"] = (np.array([0.0, 1.0, 1.0]), np.eye(3))
    with pytest.raises(NoGeometricMixing):
        mixing_params(g)
    vars(g)["spectrum"] = (np.array([-1.0, 0.5, 1.0]), np.eye(3))
    with pytest.raises(NoGeometricMixing):
        mixing_params(g)


def test_a_graph_is_its_node_count_and_edge_list():
    assert [f.name for f in dataclasses.fields(CommGraph)] == \
        ["n_nodes", "edges"]
    with pytest.raises(AttributeError):
        mixing_params(np.eye(2))


@pytest.mark.parametrize("n,edges,message", [
    (0, [], "graph needs at least one node, got 0"),
    (3, [(0, 1), (1, 1)], "self-loop (1, 1) is not an edge"),
    (3, [(0, 1), (1, 5)], "edge (1, 5) is not ordered within 0..2"),
    (3, [(0, 1), (-1, 2)], "edge (-1, 2) is not ordered within 0..2"),
    (4, [(0, 1), (2, 3)], "graph is not connected"),
], ids=["no-nodes", "self-loop", "past-the-end", "negative", "disconnected"])
def test_edge_lists_from_outside_are_checked(n, edges, message):
    with pytest.raises(ValueError) as err:
        build_metropolis_weights(n, edges)
    assert str(err.value) == message


def _parent_metropolis_weights(n: int, edges) -> np.ndarray:
    """The weight loop graphs.build_metropolis_weights ran before CommGraph
    derived its own weights: the reference for their bits."""
    deg = [0] * n
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    a = np.zeros((n, n))
    for i, j in edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        a[i, j] = w
        a[j, i] = w
    for i in range(n):
        a[i, i] = 1.0 - a[i].sum()
    return a


@settings(max_examples=60, deadline=None)
@given(g=st.one_of(
    st.integers(1, 300).map(complete_graph),
    st.integers(3, 400).map(ring_graph),
    st.integers(2, 400).map(path_graph),
    st.tuples(st.integers(1, 20), st.integers(1, 20)).map(
        lambda rc: grid_graph(*rc)),
    st.tuples(st.integers(2, 150), st.floats(0.3, 1.0),
              st.integers(0, 2 ** 16)).map(
        lambda t: erdos_renyi_graph(t[0], t[1], seed=t[2]))))
def test_derived_weights_have_the_bits_of_the_metropolis_loop(g):
    """Sizes up to 400 reach numpy's blocked pairwise row sums (blocks of
    128), where a different summation order would show."""
    assert g.weights.tobytes() == \
        _parent_metropolis_weights(g.n_nodes, g.edges).tobytes()


def test_consensus_step_on_complete_graph_averages_exactly():
    out = consensus_apply(complete_graph(3), np.array([1.0, 2.0, 3.0]), 1)
    assert np.allclose(out, [2.0, 2.0, 2.0], atol=1e-15)


def test_consensus_two_steps_on_path_graph():
    out = consensus_apply(path_graph(3), np.array([1.0, 0.0, 0.0]), 2)
    assert np.allclose(out, [5 / 9, 3 / 9, 1 / 9], atol=1e-12)


def test_consensus_zero_rounds_is_identity():
    values = np.array([1.0, 2.0, 3.0])
    out = consensus_apply(path_graph(3), values, 0)
    assert np.array_equal(out, values)
    assert out is not values


def test_consensus_preserves_the_mean():
    rng = np.random.default_rng(2)
    g = grid_graph(2, 3)
    for _ in range(20):
        v = rng.normal(size=6) * 3.0
        out = consensus_apply(g, v, 3)
        assert abs(out.mean() - v.mean()) <= 1e-14 * max(1.0, abs(v.mean()))


def test_powers_of_the_weight_matrix_stay_symmetric_doubly_stochastic():
    g = ring_graph(6)
    a = np.linalg.matrix_power(g.weights, 7)
    assert np.allclose(a, a.T, atol=1e-12)
    assert np.allclose(a.sum(axis=1), np.ones(6), atol=1e-12)


@pytest.mark.parametrize("g", [
    complete_graph(5),
    ring_graph(6),
    path_graph(5),
    grid_graph(3, 3),
    erdos_renyi_graph(8, 0.5, seed=1),
])
def test_mixing_certificate_holds_for_fifty_rounds(g):
    mp = mixing_params(g)
    for k in range(1, 51):
        assert max_mixing_deviation(g, k) <= mp.theta * mp.beta ** k + 1e-12


def test_erdos_renyi_graphs_are_connected_and_deterministic():
    g1 = erdos_renyi_graph(8, 0.4, seed=3)
    g2 = erdos_renyi_graph(8, 0.4, seed=3)
    assert g1.edges == g2.edges
    assert np.array_equal(g1.weights, g2.weights)
    assert mixing_params(g1).beta < 1.0


def _per_pair_erdos_renyi(n: int, p: float, seed: int):
    """(edges, tries) of the per-pair loop erdos_renyi_graph replaced: one
    rng.random() call per node pair i < j, row by row, until the draw is
    connected."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), n)))
    for tries in range(1, 101):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p]
        try:
            return CommGraph(n, edges).edges, tries
        except ValueError:  # not connected: draw again
            pass
    raise AssertionError("no connected draw")


def test_erdos_renyi_block_draw_matches_the_per_pair_loop():
    cases = [(8, 0.4, 3), (12, 0.4, 3), (20, 0.15, 1), (30, 0.1, 0),
             (40, 0.08, 0), (2, 1.0, 0)]
    tries = []
    for n, p, seed in cases:
        edges, t = _per_pair_erdos_renyi(n, p, seed)
        assert erdos_renyi_graph(n, p, seed=seed).edges == edges
        tries.append(t)
    assert max(tries) >= 4  # retries draw the same numbers too


@pytest.mark.parametrize("g", [complete_graph(2), complete_graph(3),
                               complete_graph(5), ring_graph(3)],
                         ids=["complete-2", "complete-3", "complete-5",
                              "ring-3"])
def test_complete_graphs_mix_in_one_round(g):
    """eigh leaves a second eigenvalue modulus of up to about 1e-16 on
    these weights (all 1/n); mixing_params reads it as the exact 0."""
    assert mixing_params(g).beta == 0.0
    assert max_mixing_deviation(g, 1) <= 1e-12


def test_erdos_renyi_rejects_hopeless_density():
    with pytest.raises(ValueError):
        erdos_renyi_graph(8, 0.0, seed=0)


def test_graph_family_sizes():
    with pytest.raises(ValueError):
        ring_graph(2)
    with pytest.raises(ValueError):
        path_graph(1)
    g = grid_graph(2, 2)
    assert g.n_nodes == 4
    assert len(g.edges) == 4


graphs = st.one_of(
    st.integers(3, 24).map(ring_graph),
    st.tuples(st.integers(1, 5), st.integers(1, 5)).map(
        lambda rc: grid_graph(*rc)),
    st.tuples(st.integers(2, 16), st.floats(0.3, 1.0),
              st.integers(0, 2 ** 16)).map(
        lambda t: erdos_renyi_graph(t[0], t[1], seed=t[2])),
)


@settings(max_examples=150, deadline=None)
@example(g=ring_graph(22), tau=1, columns=0, scale=1e-3, seed=0)
@given(g=graphs, tau=st.integers(0, 200), columns=st.sampled_from((0, 1, 3)),
       scale=st.sampled_from((1e-3, 1.0, 1e3)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_closed_form_consensus_matches_repeated_averaging(g, tau, columns,
                                                          scale, seed):
    """A^tau v from the eigenpairs against tau products with A.

    Tolerance, fixed from the dtype: the product loop rounds by at most
    tau n u ||v||_inf (u = eps / 2; the rows of A are nonnegative and sum
    to one, so earlier errors are not amplified), and the eigendecomposition
    adds O(n eps ||v||_inf), taken as 16 n eps ||v||_inf. The node mean is
    kept within 4 eps ||v||_inf.
    """
    rng = np.random.default_rng(seed)
    shape = (g.n_nodes,) if columns == 0 else (g.n_nodes, columns)
    v = scale * (rng.standard_normal(shape) + rng.uniform(-3.0, 3.0))
    out = consensus_apply(g, v, tau)
    want = v.copy()
    for _ in range(tau):
        want = g.weights @ want
    eps, n, size = np.finfo(float).eps, g.n_nodes, np.max(np.abs(v))
    assert out.shape == v.shape
    assert np.max(np.abs(out - want)) <= (tau / 2 + 16) * n * eps * size
    assert np.max(np.abs(out.mean(axis=0) - v.mean(axis=0))) <= 4 * eps * size


def _uncached_consensus_apply(g: CommGraph, values, tau: int) -> np.ndarray:
    """consensus_apply as written before it kept its basis views and the
    last lambda^tau on the graph: the reference for its bits."""
    if tau < 0:
        raise ValueError(f"consensus rounds must be >= 0, got {tau}")
    v = np.asarray(values, dtype=float)
    if v.shape[0] != g.n_nodes:
        raise ValueError(
            f"values have {v.shape[0]} rows for {g.n_nodes} nodes")
    if tau == 0:
        return v.copy()
    lam, vec = g.spectrum
    mean = v.sum(axis=0) / g.n_nodes
    basis = vec[:, :-1]
    coef = basis.T @ (v - mean)
    out = basis @ (coef.T * lam[:-1] ** int(tau)).T
    return out + (mean - out.sum(axis=0) / g.n_nodes)


@pytest.mark.parametrize("g", [
    ring_graph(20), path_graph(7), complete_graph(6), grid_graph(3, 4),
    erdos_renyi_graph(12, 0.4, seed=3)],
    ids=["ring", "path", "complete", "grid", "erdos-renyi"])
def test_consensus_apply_gives_the_bits_of_the_uncached_form(g: CommGraph):
    """tau from 0 to 70 in the ascending order of a dist-pgr run, then
    each twice more in shuffled order, on 1-D and (N, m) values with
    signed zeros. Each tau is applied to g, then to a second graph, then
    to g again, so g's cached lambda^tau is both missed and hit, and the
    second graph's cache must not leak into g's."""
    rng = np.random.default_rng(g.n_nodes)
    other = ring_graph(9)
    shuffled = list(range(71)) * 2
    rng.shuffle(shuffled)
    taus = list(range(71)) + shuffled

    def draw(n, shape):
        v = rng.standard_normal((n, *shape)) * 10.0 ** rng.integers(-3, 4)
        v[rng.random(v.shape) < 0.2] = 0.0
        v[rng.random(v.shape) < 0.2] = -0.0
        return v

    for tau in taus:
        for graph in (g, other, g):
            for shape in ((), (3,), (1,)):
                v = draw(graph.n_nodes, shape)
                got = consensus_apply(graph, v, tau)
                want = _uncached_consensus_apply(graph, v, tau)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (tau, shape)
    zeros = -np.zeros(g.n_nodes)  # every entry -0.0
    for tau in (0, 1, 70):
        assert consensus_apply(g, zeros, tau).tobytes() == \
            _uncached_consensus_apply(g, zeros, tau).tobytes()
    ints = list(range(g.n_nodes))  # through np.asarray
    assert consensus_apply(g, ints, 5).tobytes() == \
        _uncached_consensus_apply(g, ints, 5).tobytes()
