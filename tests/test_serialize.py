"""Config validation: the per-scheme validators must accept and reject
exactly what jsonschema.validate does, with the same error text."""

from __future__ import annotations

import copy
import json
import math
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
REPLACEMENTS = [True, "a", None, [], [[0.0]], math.nan, math.inf, -math.inf,
                10 ** 400, -1, (0.0, 1.0)]


@pytest.mark.parametrize("scheme", sorted(CONFIG_SCHEMAS))
def test_every_schema_passes_the_metaschema(scheme: str):
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMAS[scheme])


@st.composite
def _mutated(draw):
    """A golden config with one leaf or array item replaced; returns
    (document, scheme, path of the replaced value)."""
    doc = copy.deepcopy(draw(st.sampled_from(CONFIGS)))
    scheme, node, path = doc["scheme"], doc, []
    while True:
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = draw(st.sampled_from(keys))
        path.append(key)
        child = node[key]
        if isinstance(child, (dict, list)) and child and not (
                isinstance(node, list) and draw(st.booleans())):
            node = child
            continue
        node[key] = draw(st.sampled_from(REPLACEMENTS))
        return doc, scheme, tuple(path)


def _config_error(doc, scheme: str | None) -> str | None:
    try:
        validate_config(doc, scheme)
    except ConfigError as err:
        return str(err)
    return None


@settings(max_examples=150, deadline=None)
@given(case=_mutated())
def test_validation_matches_stock_jsonschema(case):
    doc, scheme, path = case
    try:
        jsonschema.validate(doc, CONFIG_SCHEMAS[scheme])
        stock = None
    except jsonschema.ValidationError as err:
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        stock = f"config invalid at {where}: {err.message}"
    ours = _config_error(doc, scheme)
    assert (ours is None) == (stock is None), (path, ours, stock)
    # a game error names its key, where stock stops at a oneOf branch; a
    # changed "scheme" is reported as a mismatch before the schema is read
    if path[0] not in ("game", "scheme"):
        assert ours == stock


@pytest.mark.parametrize("scheme", [[], {"a": 1}, 3])
def test_a_scheme_that_is_not_a_string_is_a_config_error(scheme):
    message = _config_error({"scheme": scheme, "solver": {}}, None)
    assert message.startswith("unknown scheme")
