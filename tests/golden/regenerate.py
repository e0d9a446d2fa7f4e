"""Rewrite the golden outputs from the committed configs.

Each directory next to this script holds one case: config.json, the
trace.csv (not for the bounds scheme) and report.json that the command line
writes for it, and validate.txt, the stdout of `nashprox validate` on it.
Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate.py [--check] [case ...]

With case names (the directory names), only those cases are rewritten;
without, every case is. A change that regenerates these files must say why
in CHANGES.md. With --check nothing is rewritten: each case is written to a
temporary directory, every committed file that differs from its new copy
byte for byte is named, and the exit code is 1 if any does. The last bits
of oracle_error_bound depend on the numpy version, so --check is exact
only on the platform that wrote the files; test_golden compares them with
a tolerance.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import os
import sys
import tempfile

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


def differing_files(case: str) -> list[str]:
    """The golden files of case, as case/name, that the code now writes
    differently or not at all, and any new file it writes."""
    committed = os.path.join(GOLDEN, case)
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(case, tmp)
        names = (set(os.listdir(tmp)) | set(os.listdir(committed))) \
            - {"config.json"}
        pairs = {name: (os.path.join(committed, name),
                        os.path.join(tmp, name)) for name in sorted(names)}
        return [f"{case}/{name}" for name, (a, b) in pairs.items()
                if not (os.path.isfile(a) and os.path.isfile(b)
                        and filecmp.cmp(a, b, shallow=False))]


if __name__ == "__main__":
    args = sys.argv[1:]
    check = "--check" in args
    names = [a for a in args if a != "--check"]
    unknown = sorted(set(names) - set(cases()))
    if unknown:
        sys.exit(f"unknown golden case(s): {', '.join(unknown)}; "
                 f"expected some of {', '.join(cases())}")
    differ = []
    for name in names or cases():
        if check:
            differ += differing_files(name)
        else:
            write_outputs(name, os.path.join(GOLDEN, name))
            print(f"wrote {name}", file=sys.stderr)
    for path in differ:
        print(f"differs: {path}")
    if check:
        print(f"{len(differ)} golden file(s) differ", file=sys.stderr)
    sys.exit(1 if differ else 0)
