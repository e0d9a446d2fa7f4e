"""Config validation: the plain checker must accept and reject exactly what
jsonschema.validate does, with the same error text, once a number (or an
integer) is also held to converting to a float."""

from __future__ import annotations

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox.errors import ConfigError
from nashprox.serialize import CONFIG_SCHEMAS, validate_config

GOLDEN = Path(__file__).parent / "golden"
# the three benchmark workloads and the README examples
CONFIGS = [json.loads(p.read_text())
           for p in sorted(GOLDEN.glob("*/config.json"))]
REPLACEMENTS = [True, False, "a", None, [], [[0.0]], {}, math.nan, math.inf,
                -math.inf, 10 ** 400, -1, 5.0, -0.0, (0.0, 1.0)]


@pytest.mark.parametrize("scheme", sorted(CONFIG_SCHEMAS))
def test_every_schema_passes_the_metaschema(scheme: str):
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMAS[scheme])


_STOCK = jsonschema.Draft202012Validator


def _converting(kind: str):
    """jsonschema's check of type `kind`, which must also convert to a
    float: an int past the float range is neither a number nor an integer."""
    def check(checker, value) -> bool:
        if not _STOCK.TYPE_CHECKER.is_type(value, kind):
            return False
        try:
            float(value)
        except OverflowError:
            return False
        return True
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


def _assert_matches_stock_jsonschema(doc, scheme: str, paths: list):
    try:
        jsonschema.validate(doc, CONFIG_SCHEMAS[scheme], cls=_ORACLE)
        stock = None
    except jsonschema.ValidationError as err:
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        stock = f"config invalid at {where}: {err.message}"
    ours = _config_error(doc, scheme)
    assert (ours is None) == (stock is None), (paths, ours, stock)
    # a game error names its key, where stock stops at a oneOf branch; a
    # changed "scheme" is reported as a mismatch before the schema is read
    if all(path[0] not in ("game", "scheme") for path in paths):
        assert ours == stock


@settings(max_examples=150, deadline=None)
@given(case=_mutated())
def test_validation_matches_stock_jsonschema(case):
    _assert_matches_stock_jsonschema(*case)


@settings(max_examples=150, deadline=None)
@given(case=_mutated(leaves=2))
def test_the_error_picked_among_two_matches_stock_jsonschema(case):
    """With two faults, both report the same one of them."""
    _assert_matches_stock_jsonschema(*case)


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


@pytest.mark.parametrize("scheme", [[], {"a": 1}, 3])
def test_a_scheme_that_is_not_a_string_is_a_config_error(scheme):
    message = _config_error({"scheme": scheme, "solver": {}}, None)
    assert message.startswith("unknown scheme")


def test_importing_nashprox_loads_no_jsonschema():
    """Config validation is plain Python; jsonschema is the tests' oracle."""
    code = ("import sys, nashprox; print(sorted(m for m in sys.modules if "
            "m.startswith(('jsonschema', 'referencing'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
