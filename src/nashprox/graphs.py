"""Communication graphs, Metropolis weights, and geometric mixing constants.

A graph is its node count and edge list. Its Metropolis weight matrix
follows from the edges alone: symmetric, doubly stochastic, positive
exactly on the edges and on the diagonal (Xiao & Boyd, "Fast linear
iterations for distributed averaging", 2004). For such matrices the
consensus powers satisfy |[A^k]_ij - 1/N| <= theta * beta^k with theta=1
and beta the second largest eigenvalue modulus, which is the geometric
mixing estimate the distributed rate constants consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoGeometricMixing

_FLOAT = np.dtype(float)
_ER_TRIES = 100


@dataclass(frozen=True, eq=False)
class CommGraph:
    """Undirected connected communication graph with Metropolis consensus
    weights.

    edges are (i, j) pairs with 0 <= i < j < n_nodes; the graph must be
    connected (checked by traversal).
    """

    n_nodes: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = int(self.n_nodes)
        if n < 1:
            raise ValueError(f"graph needs at least one node, got {n}")
        edges = frozenset((int(i), int(j)) for i, j in self.edges)
        for i, j in edges:
            if not (0 <= i < j < n):
                raise ValueError(f"edge ({i}, {j}) is not ordered within 0..{n - 1}")
        if not _connected(n, edges):
            raise ValueError("graph is not connected")
        object.__setattr__(self, "n_nodes", n)
        object.__setattr__(self, "edges", edges)

    @cached_property
    def weights(self) -> np.ndarray:
        """Metropolis weights a_ij = 1/(1 + max(deg_i, deg_j)) on each edge;
        the diagonal a_ii = 1 - a[i].sum() absorbs the slack, so rows sum
        to one and the diagonal stays positive. Computed once."""
        n = self.n_nodes
        i, j = np.array(list(self.edges), dtype=int).reshape(-1, 2).T
        deg = np.bincount(np.concatenate((i, j)), minlength=n)
        a = np.zeros((n, n))
        a[i, j] = a[j, i] = 1.0 / (1.0 + np.maximum(deg[i], deg[j]))
        a[np.diag_indices(n)] = 1.0 - a.sum(axis=1)
        return a

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues in ascending order, orthonormal eigenvectors as
        columns) of the weight matrix, read-only, computed once."""
        lam, vec = np.linalg.eigh(self.weights)
        lam.setflags(write=False)
        vec.setflags(write=False)
        return lam, vec

    @cached_property
    def deviation_basis(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(V', V, lambda) without the consensus eigenpair (the last one),
        views into spectrum that consensus_apply multiplies with."""
        lam, vec = self.spectrum
        basis = vec[:, :-1]
        return basis.T, basis, lam[:-1]

    @cached_property
    def _powers(self) -> dict[int, np.ndarray]:
        """{tau: lambda[:-1] ** tau} for the last tau consensus_apply took."""
        return {}


@dataclass(frozen=True)
class MixingParams:
    """Geometric mixing estimate |[A^k]_ij - 1/N| <= theta * beta^k."""

    theta: float
    beta: float


def _connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return all(seen)


def build_metropolis_weights(n_nodes: int, edges) -> CommGraph:
    """The graph on a set of unordered node pairs, with the Metropolis
    weights a_ij = 1/(1 + max(deg_i, deg_j)) that CommGraph derives."""
    edge_set = frozenset(tuple(sorted((int(i), int(j)))) for i, j in edges)
    for i, j in edge_set:
        if i == j:
            raise ValueError(f"self-loop ({i}, {j}) is not an edge")
    return CommGraph(n_nodes, edge_set)


def complete_graph(n: int) -> CommGraph:
    return build_metropolis_weights(n, [(i, j) for i in range(n)
                                        for j in range(i + 1, n)])


def ring_graph(n: int) -> CommGraph:
    if n < 3:
        raise ValueError(f"a ring needs at least 3 nodes, got {n}")
    return build_metropolis_weights(
        n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> CommGraph:
    if n < 2:
        raise ValueError(f"a path needs at least 2 nodes, got {n}")
    return build_metropolis_weights(n, [(i, i + 1) for i in range(n - 1)])


def grid_graph(rows: int, cols: int) -> CommGraph:
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return build_metropolis_weights(rows * cols, edges)


def erdos_renyi_graph(n: int, p: float, seed: int = 0) -> CommGraph:
    """Random G(n, p) graph, resampled until connected, at most
    _ER_TRIES times. Each try draws one uniform per node pair (i < j, row
    by row) in one block and keeps the pairs below p."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), n)))
    i, j = np.triu_indices(n, 1)
    for _ in range(_ER_TRIES):
        keep = rng.random(i.size) < p
        edges = list(zip(i[keep].tolist(), j[keep].tolist()))
        if _connected(n, edges):
            return build_metropolis_weights(n, edges)
    raise ValueError(
        f"no connected graph in {_ER_TRIES} draws at n={n}, p={p}")


def mixing_params(g: CommGraph) -> MixingParams:
    """theta and beta of the geometric mixing bound of a graph's weights:
    theta = 1 and beta the second largest eigenvalue modulus, read as 0
    (mixing in one round, as on a complete graph) when it is at most 1e-12.

    Raises NoGeometricMixing when beta >= 1 up to the same tolerance, as on
    a disconnected support.
    """
    spectrum = g.spectrum[0]
    # Largest eigenvalue of a stochastic matrix is 1; beta is the runner-up
    # in modulus.
    beta = float(max(abs(spectrum[0]), abs(spectrum[-2]))) if len(spectrum) > 1 else 0.0
    if beta <= 1e-12:
        beta = 0.0
    elif beta >= 1.0 - 1e-12:
        raise NoGeometricMixing(
            f"second largest eigenvalue modulus {beta} is not below one; "
            f"no geometric mixing (is the graph connected?)")
    return MixingParams(theta=1.0, beta=beta)


def consensus_apply(g: CommGraph, values, tau: int) -> np.ndarray:
    """tau rounds of synchronous averaging: values <- A^tau values.

    values has one row per node (a 1-D array is treated as one scalar per
    node). A^tau is applied in closed form from the cached eigenpairs
    (CommGraph.deviation_basis): the node mean is kept and the deviation
    from it goes through V diag(lambda^tau) V' without the consensus
    eigenvector (lambda = 1, the largest eigenvalue of a connected graph),
    then is centred again, so the mean stays exact up to one rounding
    however large tau is. tau = 0 returns a copy of the input. The powers
    lambda^tau are kept for the last tau only, which every row of a
    dist-pgr iteration shares.
    """
    if tau < 0:
        raise ValueError(f"consensus rounds must be >= 0, got {tau}")
    v = values if type(values) is np.ndarray and values.dtype is _FLOAT \
        else np.asarray(values, dtype=float)
    n = g.n_nodes
    if v.shape[0] != n:
        raise ValueError(f"values have {v.shape[0]} rows for {n} nodes")
    if tau == 0:
        return v.copy()
    basis_t, basis, lam = g.deviation_basis
    powers = g._powers
    if (power := powers.get(tau)) is None:
        powers.clear()
        power = powers[tau] = lam ** int(tau)
    mean = np.add.reduce(v, 0) / n  # the bits of v.sum(axis=0) / n
    coef = basis_t @ (v - mean)
    out = basis @ (coef.T * power).T
    return out + (mean - np.add.reduce(out, 0) / n)
