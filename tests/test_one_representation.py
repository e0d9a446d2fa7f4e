"""The stacked float vector is the library's only strategy type.

No module of the package names StrategyProfile, in code, annotations or
strings, except profiles.py, which defines it, and prox.py, whose
prox_profile takes one. So a second strategy representation cannot come
back into a solver, the oracle or a per-call map unnoticed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import nashprox

SRC = Path(__file__).resolve().parents[1] / "src" / "nashprox"
ALLOWED = {"profiles.py", "prox.py"}


def _names(tree: ast.AST):
    """Every identifier and string a module's syntax tree holds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname or ""
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_only_profiles_and_prox_name_the_strategy_profile():
    modules = sorted(SRC.glob("*.py"))
    assert {m.name for m in modules} >= ALLOWED | {"games.py", "trace.py"}
    naming = sorted(
        m.name for m in modules
        if any("StrategyProfile" in name
               for name in _names(ast.parse(m.read_text(encoding="utf-8")))))
    assert naming == sorted(ALLOWED)


def test_the_profile_type_and_its_prox_are_not_public():
    assert "StrategyProfile" not in nashprox.__all__
    assert "prox_profile" not in nashprox.__all__
    assert not hasattr(nashprox, "StrategyProfile")
    assert not hasattr(nashprox, "prox_profile")
