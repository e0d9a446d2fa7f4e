"""Rewrite the golden outputs from the committed configs.

Each directory next to this script holds one case: config.json, and the
trace.csv (not for the bounds scheme) and report.json that the command line
writes for it. Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate.py [case ...]

With case names (the directory names), only those cases are rewritten;
without, every case is. A change that regenerates these files must say why
in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import sys

GOLDEN = os.path.dirname(os.path.abspath(__file__))


def cases() -> list[str]:
    return sorted(name for name in os.listdir(GOLDEN)
                  if os.path.isfile(os.path.join(GOLDEN, name, "config.json")))


def write_outputs(case: str, out_dir: str) -> None:
    """Run the case's config through the command line into out_dir."""
    from nashprox.cli import main

    config = os.path.join(GOLDEN, case, "config.json")
    with open(config, encoding="utf-8") as fh:
        scheme = json.load(fh)["scheme"]
    code = main([scheme, "--config", config, "--out", out_dir, "--quiet"])
    if code != 0:
        raise RuntimeError(f"golden case {case} exited with code {code}")


if __name__ == "__main__":
    unknown = sorted(set(sys.argv[1:]) - set(cases()))
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}; "
                 f"expected some of {', '.join(cases())}")
    for name in sys.argv[1:] or cases():
        write_outputs(name, os.path.join(GOLDEN, name))
        print(f"wrote {name}", file=sys.stderr)
