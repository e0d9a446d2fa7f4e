"""Experiment configuration documents: JSON schema validation and builders.

A configuration is a single JSON object naming a scheme ("pgr", "dist-pgr",
"pbr", or "bounds"), a game description, an optional communication graph,
and the solver parameters. Documents are validated against the published
schema for their scheme before anything is built; unknown keys are
rejected.
"""

from __future__ import annotations

import json
import operator
from collections import namedtuple
from numbers import Number
from typing import Any

import numpy as np

from .errors import ConfigError
from .games import AggregativeGame, Game, QuadraticGame
from .graphs import (CommGraph, build_metropolis_weights, complete_graph,
                     erdos_renyi_graph, grid_graph, path_graph, ring_graph)
from .noise import GaussianNoise
from .prox import BoxIndicator, L1, Zero

_NOISE_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["gaussian", "zero"]},
        "nu": {"type": "number", "minimum": 0.0},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

# A number, or one number per coordinate or player.
_NUMBER_OR_ARRAY = {"type": ["number", "array"], "items": {"type": "number"},
                    "minItems": 1}

_REG_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"properties": {"kind": {"const": "zero"}},
         "required": ["kind"], "additionalProperties": False},
        {"properties": {"kind": {"const": "l1"},
                        "weight": {"type": "number", "minimum": 0.0}},
         "required": ["kind", "weight"], "additionalProperties": False},
        {"properties": {"kind": {"const": "box"},
                        "lo": _NUMBER_OR_ARRAY, "hi": _NUMBER_OR_ARRAY},
         "required": ["kind", "lo", "hi"], "additionalProperties": False},
    ],
}

_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}, "minItems": 1}

_GAME_SCHEMA = {
    "type": "object",
    "oneOf": [
        {
            "properties": {
                "kind": {"const": "quadratic"},
                "dims": {"type": "array", "minItems": 1,
                         "items": {"type": "integer", "minimum": 1}},
                "h": {"type": "array", "items": _NUMBER_ARRAY, "minItems": 1},
                "c": _NUMBER_ARRAY,
                "regularizers": {"type": "array", "items": _REG_SCHEMA},
                "noise": _NOISE_SCHEMA,
            },
            "required": ["kind", "h", "c"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "kind": {"const": "quadratic-random"},
                "players": {"type": "integer", "minimum": 1},
                "dim": {"type": "integer", "minimum": 1},
                "coupling": {"type": "number", "minimum": 0.0,
                             "exclusiveMaximum": 1.0},
                "noise": _NOISE_SCHEMA,
            },
            "required": ["kind", "players", "dim", "coupling"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "kind": {"const": "cournot"},
                "a": _NUMBER_ARRAY,
                "b": _NUMBER_ARRAY,
                "d": {"type": "number"},
                "c_price": {"type": "number", "minimum": 0.0},
                "lo": _NUMBER_OR_ARRAY,
                "hi": _NUMBER_OR_ARRAY,
                "nu": {"type": ["number", "array"], "minimum": 0.0,
                       "items": {"type": "number", "minimum": 0.0},
                       "minItems": 1},
            },
            "required": ["kind", "a", "b", "d", "c_price", "lo", "hi"],
            "additionalProperties": False,
        },
    ],
}

_GRAPH_SCHEMA = {
    "type": "object",
    "oneOf": [
        {
            "properties": {
                "family": {"enum": ["complete", "ring", "path"]},
                "nodes": {"type": "integer", "minimum": 1},
            },
            "required": ["family", "nodes"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "family": {"const": "grid"},
                "rows": {"type": "integer", "minimum": 1},
                "cols": {"type": "integer", "minimum": 1},
            },
            "required": ["family", "rows", "cols"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "family": {"const": "erdos-renyi"},
                "nodes": {"type": "integer", "minimum": 2},
                "p": {"type": "number", "minimum": 0.0, "maximum": 1.0},
                "seed": {"type": "integer", "minimum": 0},
            },
            "required": ["family", "nodes", "p"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "edges": {"type": "array",
                          "items": {"type": "array", "minItems": 2,
                                    "maxItems": 2,
                                    "items": {"type": "integer",
                                              "minimum": 0}}},
                "nodes": {"type": "integer", "minimum": 1},
            },
            "required": ["edges", "nodes"],
            "additionalProperties": False,
        },
    ],
}

_FIT_SCHEMA = {
    "type": "object",
    "properties": {
        "skip": {"type": "integer", "minimum": 0},
        "window": {"type": "array", "minItems": 2, "maxItems": 2,
                   "items": {"type": "integer", "minimum": 0}},
    },
    "additionalProperties": False,
}


def _top_schema(scheme: str, solver_props: dict, solver_required: list[str],
                extra: dict | None = None,
                extra_required: list[str] | None = None) -> dict:
    properties = {
        "scheme": {"const": scheme},
        "seed": {"type": "integer", "minimum": 0},
        "replications": {"type": "integer", "minimum": 1},
        "solver": {
            "type": "object",
            "properties": solver_props,
            "required": solver_required,
            "additionalProperties": False,
        },
        "fit": _FIT_SCHEMA,
    }
    required = ["solver"]
    if extra:
        properties.update(extra)
        required += extra_required or []
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "properties": properties,
        "required": required,
        "additionalProperties": False,
    }


CONFIG_SCHEMAS: dict[str, dict] = {
    "pgr": _top_schema(
        "pgr",
        {
            "alpha": {"type": "number", "exclusiveMinimum": 0.0},
            "rho": {"type": "number", "exclusiveMinimum": 0.0,
                    "exclusiveMaximum": 1.0},
            "max_iter": {"type": "integer", "minimum": 1},
            "target_eps": {"type": "number", "exclusiveMinimum": 0.0},
        },
        ["alpha", "rho", "max_iter"],
        extra={"game": _GAME_SCHEMA, "x0": _NUMBER_ARRAY},
        extra_required=["game"],
    ),
    "dist-pgr": _top_schema(
        "dist-pgr",
        {
            "alpha": {"type": "number", "exclusiveMinimum": 0.0},
            "max_iter": {"type": "integer", "minimum": 1},
            "beta": {"type": "number", "exclusiveMinimum": 0.0,
                     "exclusiveMaximum": 1.0},
            "target_eps": {"type": "number", "exclusiveMinimum": 0.0},
        },
        ["alpha", "max_iter"],
        extra={"game": _GAME_SCHEMA, "graph": _GRAPH_SCHEMA,
               "x0": _NUMBER_ARRAY},
        extra_required=["game", "graph"],
    ),
    "pbr": _top_schema(
        "pbr",
        {
            "mu": {"type": "number", "exclusiveMinimum": 0.0},
            "eta_br": {"type": "number", "exclusiveMinimum": 0.0,
                       "exclusiveMaximum": 1.0},
            "max_iter": {"type": "integer", "minimum": 1},
            "eta_tilde": {"type": "number", "exclusiveMinimum": 0.0,
                          "exclusiveMaximum": 1.0},
            "m_max": {"type": "number", "minimum": 0.0},
            "c_r": {"type": "number", "exclusiveMinimum": 0.0},
            "inner_tol": {"type": "number", "exclusiveMinimum": 0.0},
            "target_eps": {"type": "number", "exclusiveMinimum": 0.0},
        },
        ["mu", "eta_br", "max_iter"],
        extra={"game": _GAME_SCHEMA, "x0": _NUMBER_ARRAY},
        extra_required=["game"],
    ),
    "bounds": _top_schema(
        "bounds",
        {
            "eta": {"type": "number", "exclusiveMinimum": 0.0},
            "lip": {"type": "number", "exclusiveMinimum": 0.0},
            "nu": {"type": "number", "minimum": 0.0},
            "alpha": {"type": "number", "exclusiveMinimum": 0.0},
            "rho": {"type": "number", "exclusiveMinimum": 0.0,
                    "exclusiveMaximum": 1.0},
            "c_start": {"type": "number", "minimum": 0.0},
            "eps": {"type": "number", "exclusiveMinimum": 0.0},
            "rho_tilde": {"type": "number", "exclusiveMinimum": 0.0,
                          "exclusiveMaximum": 1.0},
        },
        ["eta", "lip", "nu", "alpha", "rho", "c_start", "eps"],
    ),
}


# as in JSON Schema, a bool is not a number and 5.0 is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": lambda v: isinstance(v, Number) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
# when a number fails a bound keyword, and how jsonschema says so
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}
_Error = namedtuple("_Error", "path message context rank")


def _is(value, types) -> bool:
    return any(_TYPES[t](value)
               for t in ([types] if isinstance(types, str) else types))


def _check(value, schema: dict, path: tuple, errors: list) -> list:
    """Append to `errors`, and return it, what jsonschema's Draft 2020-12
    validator finds in `value`, in its order and words ($schema is ignored)."""
    def fail(keyword, message, context=()):
        # jsonschema's relevance: shallower, later, non-oneOf, mistyped rank higher
        errors.append(_Error(path, message, context, (
            -len(path), path, keyword != "oneOf",
            not _is(value, schema.get("type", ())))))
    for keyword, arg in schema.items():
        if keyword == "type" and not _is(value, arg):
            fail(keyword, f"{value!r} is not of type " + ", ".join(
                map(repr, [arg] if isinstance(arg, str) else arg)))
        # enums and consts hold strings only, which == compares as JSON does
        elif keyword == "enum" and value not in arg:
            fail(keyword, f"{value!r} is not one of {arg!r}")
        elif keyword == "const" and value != arg:
            fail(keyword, f"{arg!r} was expected")
        elif keyword in _BOUNDS and _TYPES["number"](value) \
                and _BOUNDS[keyword][0](value, arg):
            fail(keyword, f"{value!r} is {_BOUNDS[keyword][1]} {arg!r}")
        elif keyword == "oneOf":
            # A "kind" matching the const of one branch is checked against
            # that branch alone: the others reject that "kind", and the error
            # then names the failing key instead of the whole object.
            kinds = [b["properties"].get("kind", {}).get("const") for b in arg]
            if isinstance(value, dict) and kinds.count(value.get("kind", ...)) == 1:
                arg = [arg[kinds.index(value["kind"])]]
            found = [_check(value, branch, path, []) for branch in arg]
            valid = [branch for branch, f in zip(arg, found) if not f]
            if not valid:
                fail(keyword, f"{value!r} is not valid under any of the given "
                     "schemas", [err for f in found for err in f])
            elif len(valid) > 1:  # the first valid branch is named last
                fail(keyword, f"{value!r} is valid under each of "
                     + ", ".join(map(repr, valid[1:] + valid[:1])))
        elif isinstance(value, list):
            # a list of plain ints and floats passes {"type": "number"} at once
            if keyword == "items" and (arg != {"type": "number"} or not set(
                    map(type, value)) <= {float, int}):
                for i, item in enumerate(value):
                    _check(item, arg, path + (i,), errors)
            elif keyword == "minItems" and len(value) < arg:
                fail(keyword, f"{value!r} " + ("should be non-empty" if arg == 1
                                             else "is too short"))
            elif keyword == "maxItems" and len(value) > arg:  # arg > 0 here
                fail(keyword, f"{value!r} is too long")
        elif isinstance(value, dict):
            if keyword == "properties":
                for name, sub in arg.items():
                    if name in value:
                        _check(value[name], sub, path + (name,), errors)
            elif keyword == "required":
                for name in arg:
                    if name not in value:
                        fail(keyword, f"{name!r} is a required property")
            elif keyword == "additionalProperties":  # always false here
                if extra := sorted(value.keys() - schema["properties"], key=str):
                    verb = "was" if len(extra) == 1 else "were"
                    fail(keyword, "Additional properties are not allowed ("
                         f"{', '.join(map(repr, extra))} {verb} unexpected)")
    return errors


def _best_match(errors: list) -> _Error | None:
    """The error jsonschema's best_match (4.26) reports: the first of highest
    rank, then down each context to its lowest-ranked error while unique."""
    rank = operator.attrgetter("rank")
    best = max(errors, key=rank, default=None)
    while best is not None and best.context:
        low = sorted(best.context, key=rank)[:2]
        if len(low) == 2 and low[0].rank == low[1].rank:
            break
        best = low[0]
    return best


def validate_config(doc: Any, scheme: str | None = None) -> dict:
    """Validate a configuration document against its scheme's schema.

    The scheme comes from the document's "scheme" key or the argument; when
    both are present they must agree. Returns the document unchanged.
    Raises ConfigError on any mismatch.
    """
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    doc_scheme = doc.get("scheme")
    if scheme is None:
        scheme = doc_scheme
    if scheme is None:
        raise ConfigError("no scheme given (config key 'scheme' or argument)")
    if doc_scheme is not None and doc_scheme != scheme:
        raise ConfigError(
            f"config names scheme '{doc_scheme}' but '{scheme}' was requested")
    if not isinstance(scheme, str) or scheme not in CONFIG_SCHEMAS:
        raise ConfigError(
            f"unknown scheme '{scheme}'; expected one of "
            f"{sorted(CONFIG_SCHEMAS)}")
    err = _best_match(_check(doc, CONFIG_SCHEMAS[scheme], (), []))
    if err is not None:
        path = "/".join(map(str, err.path)) or "<root>"
        raise ConfigError(f"config invalid at {path}: {err.message}")
    return doc


def load_config(path: str) -> dict:
    """Read a config document (ExperimentSpec.from_config validates it)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err
    return doc


def _noise_level(doc: dict) -> float:
    """nu of a quadratic game's "noise" object: 0 when absent or "zero"."""
    noise = doc.get("noise")
    if noise is None or noise["kind"] == "zero":
        return 0.0
    return float(noise.get("nu", 1.0))


def _spread(value, size: int, what: str) -> np.ndarray:
    """A number or a `size`-array as a float array; `what` ends the error."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim and arr.shape != (size,):
        raise ValueError(f"{arr.size} {what}")
    return np.broadcast_to(arr, (size,)).copy()


def _build_regularizer(doc: dict, dim: int, i: int):
    kind = doc["kind"]
    if kind == "zero":
        return Zero()
    if kind == "l1":
        return L1(weight=float(doc["weight"]))
    return BoxIndicator(*(_spread(doc[key], dim, f"'{key}' bounds for player "
                                  f"{i} of dimension {dim}")
                          for key in ("lo", "hi")))


def build_game(doc: dict, seed: int = 0) -> Game:
    """Construct a validated game from its configuration object."""
    kind = doc["kind"]
    if kind == "quadratic":
        c = np.asarray(doc["c"], dtype=float)
        dims = tuple(doc.get("dims", (1,) * c.size))
        regs = doc.get("regularizers")
        if regs and len(regs) != len(dims):
            raise ValueError(
                f"{len(regs)} regularizers for {len(dims)} players")
        built_regs = tuple(_build_regularizer(r, d, i) for i, (r, d) in
                           enumerate(zip(regs, dims))) if regs else ()
        return QuadraticGame(dims=dims, h=np.asarray(doc["h"], dtype=float),
                             c=c, regularizers=built_regs,
                             noise=GaussianNoise(_noise_level(doc)))
    if kind == "quadratic-random":
        from .experiments import generate_quadratic_game
        return generate_quadratic_game(
            n_players=int(doc["players"]), dim=int(doc["dim"]),
            coupling_strength=float(doc["coupling"]), seed=seed,
            nu=_noise_level(doc))
    if kind == "cournot":
        a = [float(v) for v in doc["a"]]
        n = len(a)
        lo, hi, nu = (_spread(doc.get(key, 0.0), n, f"'{key}' entries for "
                              f"{n} players") for key in ("lo", "hi", "nu"))
        return AggregativeGame(a=tuple(a),
                               b=tuple(float(v) for v in doc["b"]),
                               d=float(doc["d"]),
                               c_price=float(doc["c_price"]),
                               lo=tuple(lo), hi=tuple(hi),
                               noises=tuple(map(GaussianNoise, nu)))
    raise ConfigError(f"unknown game kind '{kind}'")


def build_graph(doc: dict) -> CommGraph:
    """Construct a validated communication graph from its configuration."""
    if "edges" in doc:
        return build_metropolis_weights(int(doc["nodes"]),
                                        [tuple(e) for e in doc["edges"]])
    family = doc["family"]
    if family == "complete":
        return complete_graph(int(doc["nodes"]))
    if family == "ring":
        return ring_graph(int(doc["nodes"]))
    if family == "path":
        return path_graph(int(doc["nodes"]))
    if family == "grid":
        return grid_graph(int(doc["rows"]), int(doc["cols"]))
    if family == "erdos-renyi":
        return erdos_renyi_graph(int(doc["nodes"]), float(doc["p"]),
                                 seed=int(doc.get("seed", 0)))
    raise ConfigError(f"unknown graph family '{family}'")


def as_builtin(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays so json can serialize."""
    if isinstance(obj, dict):
        return {k: as_builtin(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_builtin(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [as_builtin(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj
