"""Seeded workload generator.

Each workload is one replicated experiment (R replications x K iterations)
on an explicit game. make_config(name, seed) turns the workload seed into a
complete config document; config_bytes() serialises it canonically, so the
same seed always gives a byte-identical config file. Only numpy is used
here: the program under test sees nothing but the generated document.

Game shapes are fixed per workload and only the values are drawn, so the
amount of work does not depend on the seed. Own blocks of the quadratic
games get a fixed spectrum behind a random rotation for the same reason:
the best-response inner solves and the equilibrium oracle then take about
the same number of steps for every seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    players: int
    dim: int
    iterations: int
    replications: int


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("pgr-replicated", "pgr", players=10, dim=5, iterations=60,
             replications=200),
    Workload("dist-cournot-ring", "dist-pgr", players=20, dim=1,
             iterations=60, replications=20),
    Workload("pbr-quad50", "pbr", players=10, dim=5, iterations=20,
             replications=40),
)}

# Own-block spectrum of the quadratic games and the total coupling weight:
# the strong monotonicity modulus is at least 1 - COUPLING, and with mu = 1
# the best-response certificate is a = 0.5 + COUPLING / 2 < 1.
OWN_SPECTRUM = (1.0, 1.5, 2.0, 2.5, 3.0)
COUPLING = 0.5


def _rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _quadratic_game(rng: np.random.Generator, players: int, dim: int,
                    nu: float) -> dict:
    n = players * dim
    h = np.zeros((n, n))
    cap = COUPLING / (players - 1)
    for i in range(players):
        u = _rotation(rng, dim)
        own = (u * np.asarray(OWN_SPECTRUM)) @ u.T
        h[i * dim:(i + 1) * dim, i * dim:(i + 1) * dim] = (own + own.T) / 2.0
        for j in range(players):
            if j != i:
                b = rng.standard_normal((dim, dim))
                h[i * dim:(i + 1) * dim, j * dim:(j + 1) * dim] = \
                    b * (cap / np.linalg.norm(b, 2))
    c = rng.standard_normal(n)
    regularizers = []
    for i in range(players):
        kind = ("box", "l1", "zero")[i % 3]
        if kind == "box":
            regularizers.append({"kind": "box", "lo": -1.0, "hi": 1.0})
        elif kind == "l1":
            regularizers.append({"kind": "l1",
                                 "weight": float(rng.uniform(0.1, 0.5))})
        else:
            regularizers.append({"kind": "zero"})
    return {"kind": "quadratic", "dims": [dim] * players, "h": h.tolist(),
            "c": c.tolist(), "regularizers": regularizers,
            "noise": {"kind": "gaussian", "nu": nu}}


def _stratified(rng: np.random.Generator, lo: float, hi: float,
                n: int) -> np.ndarray:
    """n draws, each uniform on [lo, hi] alone, one per n-th of the range
    in shuffled order: the spread of the values, and with it the
    conditioning of the game, is the same for every seed."""
    u = (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n
    return lo + (hi - lo) * rng.permutation(u)


def _eta_lip(jacobian: np.ndarray) -> tuple[float, float]:
    eta = float(np.linalg.eigvalsh((jacobian + jacobian.T) / 2.0)[0])
    return eta, float(np.linalg.norm(jacobian, 2))


def make_config(name: str, seed: int) -> dict:
    """Config document of workload `name` for workload seed `seed`."""
    w = WORKLOADS[name]
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x6e70)))
    doc = {"scheme": w.scheme, "seed": int(seed) % 2 ** 32,
           "replications": w.replications}
    if w.scheme == "pgr":
        game = _quadratic_game(rng, w.players, w.dim, nu=1.0)
        eta, lip = _eta_lip(np.asarray(game["h"]))
        # recommended_parameters: alpha = eta/L^2, rho = 1 - 1/(2 kappa^2).
        doc["game"] = game
        doc["solver"] = {"alpha": eta / lip ** 2,
                         "rho": 1.0 - 1.0 / (2.0 * (lip / eta) ** 2),
                         "max_iter": w.iterations}
    elif w.scheme == "dist-pgr":
        a = _stratified(rng, 1.0, 2.0, w.players)
        b = _stratified(rng, 0.0, 0.2, w.players)
        c_price = 1.0
        jac = np.diag(a + c_price) + c_price * np.ones((w.players, w.players))
        eta, lip = _eta_lip(jac)
        doc["game"] = {"kind": "cournot", "a": a.tolist(), "b": b.tolist(),
                       "d": 2.0, "c_price": c_price, "lo": 0.0, "hi": 1.0,
                       "nu": 0.5}
        doc["graph"] = {"family": "ring", "nodes": w.players}
        doc["solver"] = {"alpha": 0.9 * eta / lip ** 2,
                         "max_iter": w.iterations}
    else:
        doc["game"] = _quadratic_game(rng, w.players, w.dim, nu=1.0)
        doc["solver"] = {"mu": 1.0, "eta_br": 0.7, "max_iter": w.iterations}
    return doc


def config_bytes(doc: dict) -> bytes:
    """Canonical serialisation: sorted keys, shortest round-trip floats."""
    return (json.dumps(doc, sort_keys=True, allow_nan=False) + "\n").encode()


def player_count(doc: dict) -> int:
    game = doc["game"]
    return len(game["a"]) if game["kind"] == "cournot" else len(game["dims"])


def schedule_total(doc: dict, report: dict) -> int:
    """Closed-form samples of one replication: the batch schedule summed
    over the executed iterations (all players for the per-player schemes)."""
    solver, k_iter = doc["solver"], report["iterations"]
    if doc["scheme"] == "pgr":
        rho = solver["rho"]
        return sum(math.ceil(rho ** -(k + 1)) for k in range(k_iter))
    players = player_count(doc)
    if doc["scheme"] == "dist-pgr":
        beta = report["theory"]["beta"]
        return players * sum(math.ceil(beta ** (-(k + 1) / 2.0))
                             for k in range(k_iter))
    theory = report["theory"]
    gain = (theory["m_max"] * theory["c_r"]) ** 2
    return players * sum(max(1, math.ceil(gain * solver["eta_br"] ** (-2 * k)))
                         for k in range(k_iter))
