"""Whole config documents, fuzzed: every input runs or stops with a
documented exit code and one stderr line, and prints no numpy warning.

The documents cover every game kind (quadratic with drawn h, c and
regularizers, box bounds up to +-1e300; the random quadratic generator;
Cournot with scalar or per-player lo, hi and nu), a start x0 up to 1e300,
every graph family and size, and the solver keys of each scheme with
alpha up to 1e300. `nashprox validate` must predict the run: a config it
accepts does not make the run exit 2 or 3. The examples are the inputs
that once gave a traceback or a numpy warning.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nashprox.cli import main

def _magnitudes(lo_exp: float, hi_exp: float):
    """Signed numbers 10^e with e drawn from [lo_exp, hi_exp], or 0."""
    return st.just(0.0) | st.builds(
        lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
        st.floats(lo_exp, hi_exp))


# mostly moderate values, and now and then one out to 1e300
_WIDE = st.sampled_from([False] * 3 + [True]).flatmap(
    lambda wide: _magnitudes(-3, 300) if wide else st.floats(-3.0, 3.0))


def _number_or_list(draw, values, size: int):
    if draw(st.booleans()):
        return draw(values)
    return draw(st.lists(values, min_size=size, max_size=size))


def _bounds(draw, size: int) -> tuple:
    """Box bounds (lo, hi), each a number or one per coordinate; mostly
    lo <= 0 <= hi, sometimes two free draws."""
    lo, hi = (_number_or_list(draw, _WIDE, size) for _ in range(2))
    if draw(st.sampled_from([True] * 4 + [False])):
        lo, hi = ([-abs(v) for v in lo] if isinstance(lo, list) else -abs(lo),
                  [abs(v) for v in hi] if isinstance(hi, list) else abs(hi))
    return lo, hi


def _regularizer(draw, dim: int) -> dict:
    kind = draw(st.sampled_from(["zero", "l1", "box"]))
    if kind == "zero":
        return {"kind": "zero"}
    if kind == "l1":
        return {"kind": "l1", "weight": draw(st.floats(0.0, 10.0))}
    lo, hi = _bounds(draw, dim)
    return {"kind": "box", "lo": lo, "hi": hi}


def _noise(draw) -> dict:
    if draw(st.booleans()):
        return {"kind": "zero"}
    return {"kind": "gaussian", "nu": abs(draw(_magnitudes(-3, 200)))}


def _game(draw, kind: str) -> tuple[dict, int]:
    """A game document and the size of its strategy vector."""
    if kind == "quadratic-random":
        players, dim = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        return {"kind": kind, "players": players, "dim": dim,
                "coupling": draw(st.floats(0.0, 0.99)),
                "noise": _noise(draw)}, players * dim
    if kind == "quadratic":
        dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
        n = sum(dims)
        owner = [i for i, d in enumerate(dims) for _ in range(d)]
        shift = draw(st.floats(0.0, 5.0))
        h = [[draw(st.floats(-1.0, 1.0)) + (shift if i == j else 0.0)
              for j in range(n)] for i in range(n)]
        for i in range(n):  # own blocks must be symmetric
            for j in range(i):
                if owner[i] == owner[j]:
                    h[i][j] = h[j][i]
        game = {"kind": kind, "dims": dims, "h": h,
                "c": [draw(_WIDE) for _ in range(n)], "noise": _noise(draw)}
        if draw(st.booleans()):
            game["regularizers"] = [_regularizer(draw, d) for d in dims]
        return game, n
    n = draw(st.integers(1, 4))
    lo, hi = _bounds(draw, n)
    game = {"kind": "cournot",
            "a": [draw(st.floats(-0.5, 3.0)) for _ in range(n)],
            "b": [draw(st.floats(-1.0, 1.0)) for _ in range(n)],
            "d": draw(_WIDE), "c_price": draw(st.floats(0.0, 3.0)),
            "lo": lo, "hi": hi}
    if draw(st.booleans()):
        game["nu"] = _number_or_list(
            draw, st.just(0.0) | st.floats(1e-3, 1e3), n)
    return game, n


def _graph(draw, players: int) -> dict:
    family = draw(st.sampled_from(["complete", "ring", "path", "grid",
                                   "erdos-renyi", "edges"]))
    nodes = max(1, players + draw(st.sampled_from([0] * 5 + [1, -1])))
    if family == "grid":
        return {"family": "grid", "rows": 1, "cols": nodes}
    if family == "erdos-renyi":
        return {"family": family, "nodes": max(2, nodes),
                "p": draw(st.floats(0.0, 1.0)), "seed": draw(st.integers(0, 3))}
    if family == "edges":
        return {"nodes": nodes,
                "edges": [[i, i + 1] for i in range(nodes - 1)]}
    return {"family": family, "nodes": nodes}


def _optional(draw, values):
    return draw(st.none() | values)


def _solver(draw, scheme: str) -> dict:
    # mostly a step below the usual bounds, sometimes one out to 1e300
    alpha = 10.0 ** draw(st.sampled_from([(-4.0, -1.0)] * 3 + [(-6.0, 300.0)])
                         .flatmap(lambda r: st.floats(*r)))
    eps = st.floats(-12, 3).map(lambda e: 10.0 ** e)
    if scheme == "pgr":
        solver = {"alpha": alpha, "rho": draw(st.floats(0.01, 0.99)),
                  "max_iter": draw(st.integers(1, 12)),
                  "target_eps": _optional(draw, eps)}
    elif scheme == "dist-pgr":
        solver = {"alpha": alpha, "max_iter": draw(st.integers(1, 10)),
                  "beta": _optional(draw, st.floats(0.01, 0.99)),
                  "target_eps": _optional(draw, eps)}
    else:
        solver = {"mu": 10.0 ** draw(st.floats(-3, 3)),
                  "eta_br": draw(st.floats(0.05, 0.95)),
                  "max_iter": draw(st.integers(1, 6)),
                  "eta_tilde": _optional(draw, st.floats(0.05, 0.99)),
                  "target_eps": _optional(draw, eps)}
    return {k: v for k, v in solver.items() if v is not None}


@st.composite
def documents(draw) -> dict:
    scheme = draw(st.sampled_from(["pgr", "dist-pgr", "pbr"]))
    kinds = {"pgr": ["quadratic", "quadratic-random", "cournot"],
             "dist-pgr": ["cournot"] * 5 + ["quadratic"],
             "pbr": ["quadratic"] * 2 + ["quadratic-random"] * 2
             + ["cournot"]}
    game, size = _game(draw, draw(st.sampled_from(kinds[scheme])))
    doc = {"scheme": scheme, "seed": draw(st.integers(0, 3)),
           "replications": draw(st.integers(1, 2)), "game": game,
           "solver": _solver(draw, scheme)}
    if scheme == "dist-pgr":
        doc["graph"] = _graph(draw, size)
    if draw(st.sampled_from([False] * 2 + [True])):
        doc["x0"] = [draw(_WIDE) for _ in range(
            size + draw(st.sampled_from([0] * 5 + [1])))]
    return doc


def _call(argv: list[str]) -> tuple[int, str, list[str]]:
    """Exit code, stderr and the RuntimeWarnings of one command."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught
                                  if issubclass(w.category, RuntimeWarning)]


def _validate_and_run(doc: dict) -> tuple[tuple, tuple]:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        checked = _call(["validate", "--config", str(cfg), "--quiet"])
        ran = _call([doc["scheme"], "--config", str(cfg), "--out",
                     str(Path(tmp) / "out"), "--quiet"])
    return checked, ran


_QUAD = {"kind": "quadratic", "h": [[2.0, 1.0], [1.0, 2.0]], "c": [-1.0, -1.0]}


def _cournot(n: int, **kw) -> dict:
    return dict({"kind": "cournot", "a": [1.0] * n, "b": [0.0] * n, "d": 2.0,
                 "c_price": 1.0, "lo": 0.0, "hi": 1.0}, **kw)


# (id, document, exit code, the stderr line)
REPROS = [
    ("pgr-alpha-1e300",
     {"scheme": "pgr", "game": _QUAD,
      "solver": {"alpha": 1e300, "rho": 0.9, "max_iter": 10}}, 3,
     "assumption violated: alpha=1e+300 outside (0, 2 eta/lip^2) = "
     "(0, 0.22222222222222227)"),
    # on a 3-node path (beta = 2/3); a 3-node ring is complete (beta = 0),
    # which is rejected before its constants are computed
    ("dist-pgr-boxes-1e160",
     {"scheme": "dist-pgr", "game": _cournot(3, lo=-1e160, hi=1e160),
      "graph": {"family": "path", "nodes": 3},
      "solver": {"alpha": 0.05, "max_iter": 10}}, 3,
     "invalid parameters: rate constant c3 = inf leaves the float range; "
     "the boxes give m_compact = 3e+160"),
    ("quadratic-box-lo-1e300",
     {"scheme": "pgr",
      "game": {"kind": "quadratic", "h": [[1.0]], "c": [1.0],
               "regularizers": [{"kind": "box", "lo": -1e300, "hi": 1.0}]},
      "solver": {"alpha": 0.5, "rho": 0.9, "max_iter": 10}}, 0, ""),
    ("quadratic-equilibrium-5e299",
     {"scheme": "pgr", "game": {"kind": "quadratic", "h": [[2.0]],
                                "c": [-1e300]},
      "solver": {"alpha": 0.5, "rho": 0.9, "max_iter": 10}}, 3,
     "invalid parameters: x0 = [0.0] has squared distance inf to the "
     "equilibrium; a run needs it finite"),
    ("cournot-boxes-hi-1e308",
     {"scheme": "pgr", "game": _cournot(2, hi=1e308),
      "solver": {"alpha": 0.1, "rho": 0.9, "max_iter": 10}}, 3,
     "invalid parameters: x0 = [5e+307, 5e+307] has squared distance inf "
     "to the equilibrium; a run needs it finite"),
    # lip^2 = 1e-400 underflows to 0, and the oracle step eta / lip^2
    # divided by it
    ("quadratic-lip-1e-200",
     {"scheme": "pgr", "game": {"kind": "quadratic", "h": [[1e-200]],
                                "c": [0.0]},
      "solver": {"alpha": 0.5, "rho": 0.9, "max_iter": 10}}, 3,
     "invalid parameters: Lipschitz constant lip = 1e-200 of the gradient "
     "map must be above 1e-150, so that the steps it bounds have finite "
     "squares"),
    # the oracle's best reply (d - b) / (a + c_price) = -1e198 / 1.3e-111
    # is past the float range, and so is the residual's step
    ("cournot-reply-past-the-range",
     {"scheme": "pbr", "game": _cournot(1, a=[1.3060096234603126e-111],
                                        d=-1e198, c_price=0.0, hi=0.0),
      "solver": {"mu": 1.0, "eta_br": 0.5, "max_iter": 1}}, 3,
     "invalid parameters: best-response map is not certified contractive: "
     "a = 1.000000 >= 1"),
    # the equilibrium -2.56e229 is exact; its residual's square is not
    ("cournot-residual-past-1e154",
     {"scheme": "pgr", "game": _cournot(1, a=[0.390625], d=-1e229,
                                        c_price=0.0, lo=-1e230, hi=0.0),
      "solver": {"alpha": 0.1, "rho": 0.9, "max_iter": 10}}, 3,
     "invalid parameters: x0 = [-5e+229] has squared distance inf to the "
     "equilibrium; a run needs it finite"),
    ("pbr-uncontractive",
     {"scheme": "pbr",
      "game": {"kind": "quadratic", "h": [[1.0, 3.0], [-3.0, 1.0]],
               "c": [1.0, 1.0], "noise": {"kind": "gaussian", "nu": 0.1}},
      "solver": {"mu": 1.0, "eta_br": 0.5, "max_iter": 10}}, 3,
     "invalid parameters: best-response map is not certified contractive: "
     "a = 2.000000 >= 1"),
]


@pytest.mark.parametrize("doc,code,line", [r[1:] for r in REPROS],
                         ids=[r[0] for r in REPROS])
def test_a_float_range_edge_gives_one_line_and_no_warning(
        doc: dict, code: int, line: str):
    for got in _validate_and_run(doc):
        assert got == (code, f"{line}\n" if line else "", [])


def test_bounds_with_a_step_whose_square_overflows_exits_3(tmp_path: Path):
    doc = {"scheme": "bounds",
           "solver": {"eta": 1, "lip": 3, "nu": 1, "alpha": 1e300,
                      "rho": 0.9, "c_start": 1, "eps": 1e-3}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    line = ("assumption violated: alpha=1e+300 outside (0, 2 eta/lip^2) = "
            "(0, 0.2222222222222222)\n")
    for command in ("validate", "bounds"):
        assert _call([command, "--config", str(cfg), "--quiet"]) == \
            (3, line, [])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=documents())
@example(doc=REPROS[0][1])
@example(doc=REPROS[1][1])
@example(doc=REPROS[2][1])
@example(doc=REPROS[3][1])
@example(doc=REPROS[4][1])
@example(doc=REPROS[5][1])
def test_fuzzed_documents_exit_with_a_documented_code_and_no_warning(
        doc: dict):
    checked, ran = _validate_and_run(doc)
    for code, err, caught in (checked, ran):
        assert code in (0, 2, 3, 4), err
        assert caught == [], (doc, caught)
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), err
    if checked[0] == 0:
        assert ran[0] not in (2, 3), (doc, ran)
