"""Every script in demos/, and the Python quick start of README.md, runs
to completion against the package and writes nothing to stderr, so that
a leaked warning fails."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the README's one python block, run as a script of its own
(QUICK_START,) = re.findall(r"```python\n(.*?)```",
                            (ROOT / "README.md").read_text(encoding="utf-8"),
                            re.DOTALL)


@pytest.mark.parametrize("argv", [[str(d)] for d in DEMOS]
                         + [["-c", QUICK_START]],
                         ids=[d.stem for d in DEMOS] + ["readme_quick_start"])
def test_demo_runs(argv: list[str]):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
