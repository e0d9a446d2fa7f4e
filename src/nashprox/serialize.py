"""Experiment configuration documents: JSON schema validation and builders.

A configuration is a single JSON object naming a scheme ("pgr", "dist-pgr",
"pbr", or "bounds"), a game description, an optional communication graph,
and the solver parameters. Documents are validated against the published
schema for their scheme before anything is built; unknown keys are
rejected. Validation stops at the first violation, in jsonschema's words;
a game, regularizer or graph is checked against the one schema its "kind"
or "family" selects (a graph without "family" is an edge list).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import fields
from numbers import Integral, Real
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import ConfigError
from .games import (QuadraticGame, generate_cournot_game,
                    generate_quadratic_game)
from .noise import GaussianNoise
from .prox import BoxIndicator, L1, Zero

if TYPE_CHECKING:  # build_graph imports graphs when it runs
    from .graphs import CommGraph

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


# as in JSON Schema, a bool is not a number and 5.0 is an integer; unlike
# jsonschema, a number must convert to a finite float, which NaN, +-inf and
# every int from _FLOAT_LIMIT = 2^1024 - 2^970 on do not
_FLOAT_LIMIT = 2 ** 1024 - 2 ** 970
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "number": lambda v: isinstance(v, Real) and not isinstance(v, bool) and (
        abs(v) < _FLOAT_LIMIT if isinstance(v, Integral) else math.isfinite(v)),
    "integer": lambda v: _TYPES["number"](v) and v == int(v),
}
# when a number fails a bound keyword, and how jsonschema says so
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "exclusiveMaximum": (operator.ge, "greater than or equal to the maximum of"),
}


def _invalid(path: tuple, message: str) -> ValueError:
    return ValueError(f"{'/'.join(map(str, path)) or '<root>'}: {message}")


def _check(value, schema: dict, path: tuple) -> None:
    """Raise ValueError at the first violation of `schema` by `value`, in
    schema order and in jsonschema's words ($schema is ignored)."""
    for keyword, arg in schema.items():
        if keyword == "type":
            types = [arg] if isinstance(arg, str) else arg
            if not any(_TYPES[t](value) for t in types):
                raise _invalid(path, f"{value!r} is not of type "
                               + ", ".join(map(repr, types)))
        # enums and consts hold strings only, which == compares as JSON does
        elif keyword == "enum" and value not in arg:
            raise _invalid(path, f"{value!r} is not one of {arg!r}")
        elif keyword == "const" and value != arg:
            raise _invalid(path, f"{arg!r} was expected")
        elif keyword in _BOUNDS and _TYPES["number"](value) \
                and _BOUNDS[keyword][0](value, arg):
            raise _invalid(path, f"{value!r} is {_BOUNDS[keyword][1]} {arg!r}")
        elif keyword == "oneOf":  # after "type": "object", so value is a dict
            # The branches exclude each other by their first property, the
            # discriminator: its value picks the one branch to check, and its
            # absence the branch without it (a graph's edge list).
            key, accepted = next(iter(arg[0]["properties"])), []
            for branch in arg:
                sub = branch["properties"].get(key)
                names = sub.get("enum", [sub.get("const")]) if sub else []
                if value[key] in names if key in value else sub is None:
                    _check(value, branch, path)
                    break
                accepted += names
            else:
                raise _invalid(path + (key,), (
                    f"{value[key]!r} is not one of" if key in value
                    else f"{key!r} is a required property, one of")
                    + f" {accepted!r}")
        elif isinstance(value, list):
            # a list of finite plain floats passes {"type": "number"} at once
            if keyword == "items" and not (arg == {"type": "number"} and set(
                    map(type, value)) <= {float} and all(map(math.isfinite, value))):
                for i, item in enumerate(value):
                    _check(item, arg, path + (i,))
            elif keyword == "minItems" and len(value) < arg:
                raise _invalid(path, f"{value!r} " + (
                    "should be non-empty" if arg == 1 else "is too short"))
            elif keyword == "maxItems" and len(value) > arg:  # arg > 0 here
                raise _invalid(path, f"{value!r} is too long")
        elif isinstance(value, dict):
            if keyword == "properties":
                for name, sub in arg.items():
                    if name in value:
                        _check(value[name], sub, path + (name,))
            elif keyword == "required":
                for name in arg:
                    if name not in value:
                        raise _invalid(path, f"{name!r} is a required property")
            elif keyword == "additionalProperties":  # always false here
                if extra := sorted(value.keys() - schema["properties"], key=str):
                    verb = "was" if len(extra) == 1 else "were"
                    raise _invalid(path, "Additional properties are not "
                                   f"allowed ({', '.join(map(repr, extra))} "
                                   f"{verb} unexpected)")


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
    try:
        _check(doc, CONFIG_SCHEMAS[scheme], ())
    except ValueError as err:
        raise ConfigError(f"config invalid at {err}") from None
    return doc


def check_solver(scheme: str, config) -> None:
    """Raise ValueError, in validate_config's words, unless each field of a
    solver config passes its key's schema in `scheme`, or is None where that
    is its default. A float is no integer: from_config makes 5.0 a 5."""
    top = CONFIG_SCHEMAS[scheme]["properties"]
    for field in fields(config):
        name, value = field.name, getattr(config, field.name)
        if value is None and field.default is None:
            continue
        path, schema = ((name,), top[name]) if name == "seed" else \
            (("solver", name), top["solver"]["properties"][name])
        if isinstance(value, float) and schema["type"] == "integer":
            raise _invalid(path, f"{value!r} is not of type 'integer'")
        _check(value, schema, path)


def load_config(path: str) -> dict:
    """Read a config document (ExperimentSpec.from_config validates it)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except ValueError as err:  # bad JSON, or an int past int_max_str_digits
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


def build_game(doc: dict, seed: int = 0) -> QuadraticGame:
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
        return generate_quadratic_game(
            n_players=int(doc["players"]), dim=int(doc["dim"]),
            coupling_strength=float(doc["coupling"]), seed=seed,
            nu=_noise_level(doc))
    if kind == "cournot":
        n = len(doc["a"])
        b, lo, hi, nu = (_spread(doc.get(key, 0.0), n, f"'{key}' entries for "
                                 f"{n} players")
                         for key in ("b", "lo", "hi", "nu"))
        return generate_cournot_game(n, a=doc["a"], b=b, d=doc["d"],
                                     c_price=doc["c_price"], lo=lo, hi=hi,
                                     nu=nu)
    raise ConfigError(f"unknown game kind '{kind}'")


def build_graph(doc: dict) -> CommGraph:
    """Construct a validated communication graph from its configuration."""
    from .graphs import (build_metropolis_weights, complete_graph,
                         erdos_renyi_graph, grid_graph, path_graph,
                         ring_graph)

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
