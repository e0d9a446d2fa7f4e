"""Config validation: the plain checker must accept and reject exactly what
jsonschema.validate does, once a number (or an integer) is also held to
converting to a finite float. It stops at the first violation in schema
order, in jsonschema's words. A oneOf block is checked only against the
branch its discriminator selects (a game's or regularizer's "kind", a
graph's "family" or its absence), so the message names the key at fault
where jsonschema names the whole block."""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox.best_response import PbrConfig
from nashprox.distributed import DistConfig
from nashprox.errors import ConfigError
from nashprox.experiments import ExperimentSpec, prepare_experiment
from nashprox.pgr import PgrConfig
from nashprox.sampling import BestResponseBatch
from nashprox.serialize import (CONFIG_SCHEMAS, build_game, build_graph,
                                validate_config)

GOLDEN = Path(__file__).parent / "golden"
# the three benchmark workloads and the README examples
CONFIGS = [json.loads(p.read_text())
           for p in sorted(GOLDEN.glob("*/config.json"))]
# valid values of other branches too ("grid", "cournot", "l1"), so that a
# replaced discriminator switches its block to another branch
REPLACEMENTS = [True, False, "a", None, [], [[0.0]], {}, math.nan, math.inf,
                -math.inf, 10 ** 400, -1, 5.0, -0.0, (0.0, 1.0), "grid",
                "cournot", "l1"]


@pytest.mark.parametrize("scheme", sorted(CONFIG_SCHEMAS))
def test_every_schema_passes_the_metaschema(scheme: str):
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMAS[scheme])


_STOCK = jsonschema.Draft202012Validator


def _converting(kind: str):
    """jsonschema's check of type `kind`, which must also convert to a
    finite float: an int past the float range, NaN and +-inf are neither
    numbers nor integers."""
    def check(checker, value) -> bool:
        if not _STOCK.TYPE_CHECKER.is_type(value, kind):
            return False
        try:
            return math.isfinite(float(value))
        except OverflowError:
            return False
    return check


_ORACLE = jsonschema.validators.extend(
    _STOCK, type_checker=_STOCK.TYPE_CHECKER.redefine_many(
        {kind: _converting(kind) for kind in ("number", "integer")}))


def _replace_leaf(draw, doc: dict) -> tuple:
    """Replace one leaf or array item of `doc`; returns its path."""
    node, path = doc, []
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        path.append(key)
        child = node[key]
        if isinstance(child, (dict, list)) and child and not (
                isinstance(node, list) and draw(st.booleans())):
            node = child
            continue
        # a copy, since a second replacement may land inside this one
        node[key] = copy.deepcopy(draw(st.sampled_from(REPLACEMENTS)))
        return tuple(path)


@st.composite
def _mutated(draw, leaves: int = 1):
    """A golden config with `leaves` leaves or array items replaced; returns
    (document, scheme, paths of the replaced values)."""
    doc = copy.deepcopy(draw(st.sampled_from(CONFIGS)))
    scheme = doc["scheme"]
    return doc, scheme, [_replace_leaf(draw, doc) for _ in range(leaves)]


def _config_error(doc, scheme: str | None) -> str | None:
    try:
        validate_config(doc, scheme)
    except ConfigError as err:
        return str(err)
    return None


def _stock(doc, scheme: str) -> tuple[str | None, str | None]:
    """jsonschema's best match as our message, and its keyword; (None,
    None) for a valid document."""
    try:
        jsonschema.validate(doc, CONFIG_SCHEMAS[scheme], cls=_ORACLE)
    except jsonschema.ValidationError as err:
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        return f"config invalid at {where}: {err.message}", err.validator
    return None, None


def _names_a_fault(message: str, paths: list) -> bool:
    """Whether `message` is at a replaced path or under it, or, for a
    required or additional-property error, at the object holding it."""
    where, _, what = message.removeprefix("config invalid at ").partition(
        ": ")
    for path in ("/".join(map(str, p)) for p in paths):
        parent = path.rpartition("/")[0] or "<root>"
        if where == path or where.startswith(path + "/") or where == parent \
                and ("required property" in what
                     or what.startswith("Additional properties")):
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(case=_mutated())
def test_validation_matches_stock_jsonschema(case):
    """One fault: jsonschema's message, except where jsonschema stops at a
    oneOf block; there ours names the fault."""
    doc, scheme, paths = case
    ours, (stock, keyword) = _config_error(doc, scheme), _stock(doc, scheme)
    assert (ours is None) == (stock is None), (paths, ours, stock)
    # a changed "scheme" is reported as a mismatch before the schema is read
    if ours is not None and paths[0][0] != "scheme":
        if keyword == "oneOf":
            assert _names_a_fault(ours, paths), (paths, ours)
        else:
            assert ours == stock, (paths, ours, stock)


@settings(max_examples=150, deadline=None)
@given(case=st.integers(2, 3).flatmap(lambda n: _mutated(leaves=n)))
def test_of_several_faults_one_is_named(case):
    """Two or three faults: accepted and rejected as by jsonschema, and the
    message (the first violation) names one of them."""
    doc, scheme, paths = case
    ours, (stock, _) = _config_error(doc, scheme), _stock(doc, scheme)
    assert (ours is None) == (stock is None), (paths, ours, stock)
    if ours is not None and all(path[0] != "scheme" for path in paths):
        assert _names_a_fault(ours, paths), (paths, ours)


def _golden(name: str) -> dict:
    return json.loads((GOLDEN / name / "config.json").read_text())


@pytest.mark.parametrize("config,block,value,message", [
    ("dist-cournot-ring-seed1", "graph", {"family": "ring", "nodes": 0},
     "graph/nodes: 0 is less than the minimum of 1"),
    ("dist-cournot-ring-seed1", "graph", {"family": "rung", "nodes": 20},
     "graph/family: 'rung' is not one of ['complete', 'ring', 'path', "
     "'grid', 'erdos-renyi']"),
    ("dist-cournot-ring-seed1", "graph", {"nodes": 20},
     "graph: 'edges' is a required property"),
    ("pbr-quad50-seed1", "game/kind", "quadratc",
     "game/kind: 'quadratc' is not one of ['quadratic', 'quadratic-random', "
     "'cournot']"),
    ("pbr-quad50-seed1", "game/kind", ...,
     "game/kind: 'kind' is a required property, one of ['quadratic', "
     "'quadratic-random', 'cournot']"),
    ("readme-pgr", "game/regularizers", [{"kind": "huber"}],
     "game/regularizers/0/kind: 'huber' is not one of ['zero', 'l1', 'box']"),
    ("dist-cournot-ring-seed1", "graph", {"nodes": 20, "edges": [[0, 1, 2]]},
     "graph/edges/0: [0, 1, 2] is too long"),
], ids=["graph-nodes", "graph-family", "edge-list", "game-kind",
        "game-kind-missing", "regularizer-kind", "edge-too-long"])
def test_a_fault_in_a_block_names_its_key(config, block, value, message):
    """The discriminator picks the branch; an unknown one, or a missing
    "kind", is reported at its key with the values it may take."""
    doc = _golden(config)
    *parents, key = block.split("/")
    node = doc
    for name in parents:
        node = node[name]
    if value is ...:
        del node[key]
    else:
        node[key] = value
    assert _config_error(doc, None) == f"config invalid at {message}"


def _pgr_config_with(path: tuple, value) -> dict:
    doc = copy.deepcopy(next(d for d in CONFIGS if d["scheme"] == "pgr"))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("path,value", [
    (("solver", "alpha"), 10 ** 400), (("game", "c", 1), -10 ** 400),
    (("game", "h", 0, 1), 2 ** 1024 - 2 ** 970), (("seed",), 10 ** 400),
    (("replications",), -10 ** 400)],
    ids=["alpha", "list-item", "first-past-the-range", "seed", "replications"])
def test_an_integer_past_the_float_range_is_not_a_number(path, value):
    """float() would raise OverflowError on it, after validation."""
    message = _config_error(_pgr_config_with(path, value), None)
    assert message == (f"config invalid at {'/'.join(map(str, path))}: "
                       f"{value!r} is not of type "
                       + ("'integer'" if path[0] in ("seed", "replications")
                          else "'number'"))


def test_the_largest_integer_that_converts_to_a_float_is_a_number():
    value = 2 ** 1024 - 2 ** 970 - 1
    assert float(value) == sys.float_info.max
    assert _config_error(_pgr_config_with(("game", "h", 0, 1), value),
                         None) is None


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("path", [("solver", "alpha"), ("game", "c", 1)],
                         ids=["alpha", "float-list-item"])
def test_a_non_finite_number_is_not_a_number(path, token):
    """Python's json reads NaN and Infinity, and 1e400 as inf; none of them
    is a JSON number, in a list of plain floats either."""
    doc = _pgr_config_with(path, json.loads(token))
    assert set(map(type, doc["game"]["c"])) == {float}
    value = float(token)
    assert _config_error(doc, None) == (
        f"config invalid at {'/'.join(map(str, path))}: {value!r} is not of "
        f"type 'number'")


# each solver config class, the scheme whose solver block (and seed) holds
# its keys, and arguments it accepts
_SOLVER_CONFIGS = {
    PgrConfig: ("pgr", {"alpha": 0.2, "rho": 0.9, "max_iter": 5}),
    DistConfig: ("dist-pgr", {"alpha": 0.02, "max_iter": 5}),
    PbrConfig: ("pbr", {"mu": 1.0, "eta_br": 0.7, "max_iter": 5}),
    BestResponseBatch: ("pbr", {"m_max": 1.0, "c_r": 1.0, "eta_br": 0.7}),
}
_SOLVER_KEYS = [(cls, f.name) for cls in _SOLVER_CONFIGS for f in fields(cls)]
_EDGES = [0.0, -0.0, 5e-324, 1.0, 1.0 - 2.0 ** -53, math.nan, math.inf,
          -math.inf, True, 2.5]


def _paths_agree(cls, key: str, value) -> bool:
    """Whether the config class accepts `value` at key exactly when
    validate_config accepts the scheme's readme-<scheme> golden document
    with it there, raising exactly ValueError when it does not. A library
    float is never an integer: from_config turns a document's 5.0 into 5."""
    scheme, args = _SOLVER_CONFIGS[cls]
    doc = _golden(f"readme-{scheme}")
    block, schema = doc, CONFIG_SCHEMAS[scheme]["properties"]
    if key != "seed":
        block, schema = doc["solver"], schema["solver"]["properties"]
    block[key] = value
    expected = _config_error(doc, None) is None and not (
        isinstance(value, float) and schema[key]["type"] == "integer")
    try:
        cls(**dict(args, **{key: value}))
    except ValueError as err:
        assert type(err) is ValueError
        return not expected
    return expected


@pytest.mark.parametrize("cls,key", _SOLVER_KEYS,
                         ids=[f"{c.__name__}-{k}" for c, k in _SOLVER_KEYS])
def test_a_solver_config_accepts_what_its_document_accepts(cls, key):
    """The schema states each solver key's range once, for documents and
    for the config classes alike, at the range's edges."""
    for value in _EDGES:
        assert _paths_agree(cls, key, value), value


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(_SOLVER_KEYS),
       value=st.floats() | st.integers(-3, 3) | st.sampled_from(_EDGES))
def test_any_solver_value_is_accepted_by_both_paths_or_neither(key, value):
    assert _paths_agree(*key, value)


@pytest.mark.parametrize("build,message", [
    (lambda: build_game({"kind": "nope"}), "unknown game kind 'nope'"),
    (lambda: build_graph({"family": "nope"}), "unknown graph family 'nope'"),
    (lambda: prepare_experiment(ExperimentSpec(scheme="nope", solver={})),
     "unknown scheme 'nope'"),
], ids=["game", "graph", "scheme"])
def test_a_library_document_of_unknown_kind_is_a_config_error(build, message):
    """build_game, build_graph and prepare_experiment take documents and
    specs that validate_config has not seen."""
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("scheme", [[], {"a": 1}, 3])
def test_a_scheme_that_is_not_a_string_is_a_config_error(scheme):
    message = _config_error({"scheme": scheme, "solver": {}}, None)
    assert message.startswith("unknown scheme")


def test_importing_nashprox_loads_no_jsonschema():
    """Config validation is plain Python; jsonschema is the tests' oracle.
    The package loads its modules on first use, so every public name and
    the command line are loaded here."""
    code = ("import sys, nashprox.cli; from nashprox import *; "
            "print(sorted(m for m in sys.modules if "
            "m.startswith(('jsonschema', 'referencing'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
