"""Rewrite the golden outputs from the committed configs.

Each directory next to this script holds one case: config.json, the
trace.csv (not for the bounds scheme) and report.json that the command line
writes for it, and validate.txt, the stdout of `nashprox validate` on it.
Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate.py [case ...]

With case names (the directory names), only those cases are rewritten;
without, every case is. A change that regenerates these files must say why
in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

GOLDEN = os.path.dirname(os.path.abspath(__file__))


def cases() -> list[str]:
    return sorted(name for name in os.listdir(GOLDEN)
                  if os.path.isfile(os.path.join(GOLDEN, name, "config.json")))


def write_outputs(case: str, out_dir: str) -> None:
    """Run the case's config through the command line into out_dir, and
    write the stdout of `nashprox validate` on it to validate.txt there."""
    from nashprox.cli import main

    config = os.path.join(GOLDEN, case, "config.json")
    with open(config, encoding="utf-8") as fh:
        scheme = json.load(fh)["scheme"]
    stdout = io.StringIO()
    for argv in ([scheme, "--config", config, "--out", out_dir, "--quiet"],
                 ["validate", "--config", config]):
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"golden case {case}: `{argv[0]}` exited "
                               f"with code {code}")
    with open(os.path.join(out_dir, "validate.txt"), "w", encoding="utf-8",
              newline="") as fh:
        fh.write(stdout.getvalue())


if __name__ == "__main__":
    unknown = sorted(set(sys.argv[1:]) - set(cases()))
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}; "
                 f"expected some of {', '.join(cases())}")
    for name in sys.argv[1:] or cases():
        write_outputs(name, os.path.join(GOLDEN, name))
        print(f"wrote {name}", file=sys.stderr)
