"""Where things live: `experiments` only runs experiments, and the
README's library tour names each function under the module that defines
it.

Only the command line (cli.py) imports nashprox.experiments, and the
package namespace (__init__.py) loads it on first use of one of its
names; the game generators live in games.py, so building a game from a
config does not import the experiment runner.
Each bullet of the README's "Library tour" opens with the modules it
describes, and every name in backticks in its first sentence must be an
attribute of one of them.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nashprox"
EXPERIMENTS_IMPORTERS = {"cli.py"}


def _imports_experiments(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "nashprox.experiments" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            if module in (".experiments", "nashprox.experiments"):
                return True
            if module in (".", "nashprox") and any(
                    a.name == "experiments" for a in node.names):
                return True
    return False


def test_only_the_command_line_and_the_package_import_experiments():
    modules = sorted(SRC.glob("*.py"))
    assert {m.name for m in modules} >= \
        EXPERIMENTS_IMPORTERS | {"serialize.py", "__init__.py"}
    importers = {m.name for m in modules
                 if _imports_experiments(ast.parse(m.read_text("utf-8")))}
    assert importers == EXPERIMENTS_IMPORTERS
    import nashprox
    assert nashprox.run_experiment.__module__ == "nashprox.experiments"


def _tour_bullets() -> list[tuple[list[str], str]]:
    """(module names, first sentence) of each library-tour bullet."""
    text = (ROOT / "README.md").read_text("utf-8")
    tour = text.split("\n## Library tour\n", 1)[1].split("\n#", 1)[0]
    bullets = re.findall(r"^- (.*(?:\n  .*)*)", tour, flags=re.MULTILINE)
    out = []
    for bullet in bullets:
        head, body = " ".join(bullet.split()).split(": ", 1)
        modules = re.findall(r"`(nashprox\.\w+)`", head)
        out.append((modules, re.split(r"\.(?:\s|$)", body, 1)[0]))
    return out


_BULLETS = _tour_bullets()


def test_the_tour_has_a_bullet_per_module():
    named = {m for modules, _ in _BULLETS for m in modules}
    assert {"nashprox.games", "nashprox.experiments", "nashprox.pgr",
            "nashprox.distributed", "nashprox.best_response"} <= named


@pytest.mark.parametrize("modules,sentence", _BULLETS,
                         ids=["/".join(m) for m, _ in _BULLETS])
def test_each_name_in_a_tour_bullet_lives_in_its_module(modules, sentence):
    names = re.findall(r"`([A-Za-z_]\w*)`", sentence)
    assert names, sentence
    loaded = [importlib.import_module(m) for m in modules]
    missing = [n for n in names if not any(hasattr(m, n) for m in loaded)]
    assert missing == []
