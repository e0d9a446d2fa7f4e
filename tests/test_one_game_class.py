"""QuadraticGame is the library's only game class.

A Cournot game is a QuadraticGame with scalar players, box strategy sets
and an aggregate; AggregativeGame only builds one. So no module of the
package branches on a game's class or names a union of game classes, and
every scheme that works from (h, c, dims, regularizers) runs on a Cournot
game: pbr included, whose best response there is a one-dimensional clip.
"""

from __future__ import annotations

import ast
import json
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox import (AggregativeGame, GaussianNoise, QuadraticGame,
                      generate_cournot_game, proximal_best_response)
from nashprox.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "nashprox"
GOLDEN = Path(__file__).parent / "golden"
GAME_CLASSES = {"QuadraticGame", "AggregativeGame"}


def _isinstance_on_a_game_class(tree: ast.AST) -> list[int]:
    """Lines of isinstance/issubclass calls whose class argument names a
    game class, alone, in a tuple or in a union."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("isinstance", "issubclass") \
                and len(node.args) == 2:
            named = {n.id for n in ast.walk(node.args[1])
                     if isinstance(n, ast.Name)}
            if named & GAME_CLASSES:
                lines.append(node.lineno)
    return lines


def _game_alias(tree: ast.AST) -> list[int]:
    """Lines that bind or read a name `Game`, such as a union alias."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "Game"]


def test_no_module_branches_on_a_game_class_or_names_a_game_union():
    modules = sorted(SRC.glob("*.py"))
    assert {m.name for m in modules} >= {"games.py", "experiments.py",
                                         "pgr.py", "distributed.py"}
    found = {m.name: (_isinstance_on_a_game_class(tree), _game_alias(tree))
             for m in modules
             for tree in [ast.parse(m.read_text("utf-8"))]}
    assert {name: hits for name, hits in found.items()
            if hits != ([], [])} == {}


def test_the_checks_see_what_they_look_for():
    tree = ast.parse("Game = QuadraticGame | AggregativeGame\n"
                     "isinstance(g, QuadraticGame | AggregativeGame)\n"
                     "isinstance(g, (int, AggregativeGame))\n"
                     "isinstance(g, np.ndarray)\n")
    assert _isinstance_on_a_game_class(tree) == [2, 3]
    assert _game_alias(tree) == [1]


def test_aggregative_game_adds_only_a_constructor():
    assert issubclass(AggregativeGame, QuadraticGame)
    behaviour = {k for k, v in vars(AggregativeGame).items()
                 if callable(v) or isinstance(v, (property, cached_property,
                                                  classmethod, staticmethod))}
    assert behaviour == {"__init__"}


def test_a_cournot_game_is_its_quadratic_game():
    game = AggregativeGame(a=(1.0, 2.0), b=(0.0, 0.1), d=2.0, c_price=0.5,
                           lo=(0.0, -1.0), hi=(1.0, 1.0),
                           noises=(GaussianNoise(0.3), GaussianNoise(0.4)))
    assert np.array_equal(game.h, [[2.0, 0.5], [0.5, 3.0]])
    assert np.array_equal(game.c, [-2.0, -1.9])
    assert game.dims == (1, 1)
    assert [(r.lo.tolist(), r.hi.tolist()) for r in game.regularizers] == \
        [([0.0], [1.0]), ([-1.0], [1.0])]
    assert game.noise_blocks == ((0.3, 0.4), (1, 1))
    assert game.constants.nu_i == (0.3, 0.4)
    assert game.constants.nu == game.noise.nu == 0.5
    assert game.constants.m_compact == 2.0
    plain = QuadraticGame(dims=game.dims, h=game.h, c=game.c,
                          regularizers=game.regularizers,
                          noise=GaussianNoise(0.5))
    assert plain.aggregate is None
    assert plain.noise_blocks == ((0.5,), (2,))
    for field in ("eta", "lip", "kappa", "nu", "m_compact"):
        assert getattr(plain.constants, field) == \
            getattr(game.constants, field)


def test_a_one_dimensional_box_has_its_corner_norm_exactly():
    """The Cournot m_compact is the sum of max(|lo_i|, |hi_i|) even where
    the square of a 2-norm would leave the float range."""
    for lo, hi in ((-3e160, 1e160), (-1e-160, 0.0)):
        game = AggregativeGame(a=(1.0,) * 3, b=(0.0,) * 3, d=2.0,
                               c_price=1.0, lo=(lo,) * 3, hi=(hi,) * 3)
        assert game.constants.m_compact == float(sum([abs(lo)] * 3))


@st.composite
def _cournot_and_profile(draw):
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lo = rng.uniform(-1.0, 0.5, n)
    game = AggregativeGame(
        a=tuple(rng.uniform(0.2, 3.0, n)), b=tuple(rng.uniform(-0.5, 0.5, n)),
        d=float(rng.uniform(0.0, 5.0)), c_price=float(rng.uniform(0.0, 2.0)),
        lo=tuple(lo), hi=tuple(lo + rng.uniform(0.0, 2.0, n)))
    return game, 2.0 * rng.standard_normal(n), 10.0 ** draw(st.floats(-2, 2))


@settings(max_examples=100, deadline=None)
@given(_cournot_and_profile())
def test_a_cournot_best_response_is_the_anchored_clip(drawn):
    game, y, mu = drawn
    a, b, d, c_price, lo, hi = game.aggregate
    for i in range(game.n_players):
        rivals = float(np.sum(y)) - y[i]
        clip = np.clip((mu * y[i] + d - b[i] - c_price * rivals)
                       / (a[i] + 2.0 * c_price + mu), lo[i], hi[i])
        got = proximal_best_response(game, i, y, mu)
        assert got.shape == (1,)
        assert abs(got[0] - clip) <= 1e-12


def _write(tmp_path: Path, doc: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _pbr_doc(game: dict) -> dict:
    return {"scheme": "pbr", "seed": 1, "replications": 20, "game": game,
            "solver": {"mu": 1.0, "eta_br": 0.7, "max_iter": 20}}


def test_pbr_runs_on_a_cournot_game_and_holds_its_envelope(tmp_path: Path,
                                                           capsys):
    """The dist-cournot-ring costs with a price slope small enough that the
    best-response certificate is below one (17 c_price < min a_i)."""
    game = json.loads((GOLDEN / "dist-cournot-ring-seed1" / "config.json")
                      .read_text())["game"]
    doc = _pbr_doc(dict(game, c_price=0.05))
    out = tmp_path / "out"
    assert main(["pbr", "--config", _write(tmp_path, doc), "--out", str(out),
                 "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text())
    assert report["theory"]["a"] < 1.0
    assert report["theory"]["envelope"]["ok"] is True
    assert report["fit"]["slope"] < 0.0


def test_pbr_on_the_dist_cournot_ring_game_is_not_certified(tmp_path: Path,
                                                            capsys):
    """With c_price = 1 each of the 20 players reacts to its 19 rivals more
    than to its anchor, so the certificate is above one at every mu and
    the run stops before its first replication, as validate does."""
    game = json.loads((GOLDEN / "dist-cournot-ring-seed1" / "config.json")
                      .read_text())["game"]
    cfg = _write(tmp_path, _pbr_doc(game))
    for command in ("validate", "pbr"):
        assert main([command, "--config", cfg, "--quiet"]) == 3
        assert capsys.readouterr().err == (
            "invalid parameters: best-response map is not certified "
            "contractive: a = 4.467654 >= 1\n")


@pytest.mark.parametrize("game", [
    {"kind": "quadratic", "h": [[2.0, 1.0], [1.0, 2.0]], "c": [-1.0, -1.0]},
    {"kind": "quadratic-random", "players": 2, "dim": 1, "coupling": 0.3},
], ids=["quadratic", "quadratic-random"])
def test_dist_pgr_still_needs_a_cournot_game(tmp_path: Path, capsys,
                                             game: dict):
    doc = {"scheme": "dist-pgr", "game": game,
           "graph": {"family": "ring", "nodes": 2},
           "solver": {"alpha": 0.01, "max_iter": 10}}
    cfg = _write(tmp_path, doc)
    for argv in (["validate", "--config", cfg],
                 ["dist-pgr", "--config", cfg, "--quiet"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "config error: the distributed scheme needs an aggregative "
            "game\n")


def test_the_library_dist_pgr_rejects_a_game_without_an_aggregate():
    from nashprox import DistConfig, complete_graph, run_dist_pgr

    cournot = generate_cournot_game(2, seed=1)
    plain = QuadraticGame(dims=cournot.dims, h=cournot.h, c=cournot.c,
                          regularizers=cournot.regularizers)
    with pytest.raises(ValueError, match="needs an aggregative game"):
        run_dist_pgr(plain, complete_graph(2),
                     DistConfig(alpha=0.01, max_iter=2))
