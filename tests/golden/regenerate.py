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
byte for byte is named, and the exit code is 1 if any does. For a
differing report.json or trace.csv, the largest absolute and the largest
relative change of a number between the two copies is printed under its
name, with where it occurs: the key path in report.json, the row and
column in trace.csv. The last bits
of oracle_error_bound depend on the numpy version, so --check is exact
only on the platform that wrote the files; test_golden compares them with
a tolerance.
"""

from __future__ import annotations

import contextlib
import csv
import filecmp
import io
import json
import math
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


def _json_numbers(doc, where: str = ""):
    """(key path, value) of every number of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _json_numbers(value, f"{where}/{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _json_numbers(value, f"{where}/{i}")
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield where or "/", float(doc)


def _numbers(path: str) -> dict:
    """{where: value} of every number of a report.json or trace.csv."""
    with open(path, encoding="utf-8", newline="") as fh:
        if not path.endswith(".csv"):
            return dict(_json_numbers(json.load(fh)))
        header, *rows = csv.reader(fh)
    out = {}
    for r, row in enumerate(rows, start=1):
        for name, cell in zip(header, row):
            with contextlib.suppress(ValueError):
                out[f"row {r}, column {name}"] = float(cell)
    return out


def largest_changes(committed: str, new: str) -> list[str]:
    """Lines naming the largest absolute and the largest relative change
    between the numbers at the same place of two copies of a report.json
    or trace.csv (a change from or to a NaN or an infinity counts as
    infinite, a relative change from 0 too)."""
    after = _numbers(new)
    changes = []
    for where, a in _numbers(committed).items():
        b = after.get(where, a)
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        d = abs(b - a)
        d = d if math.isfinite(d) else math.inf
        rel = d / abs(a) if a and math.isfinite(a) else math.inf
        changes.append((d, rel, where, a, b))
    if not changes:
        return ["  no number changed"]
    lines = []
    for i, kind in enumerate(("absolute", "relative")):
        change = max(changes, key=lambda c: c[i])
        lines.append(f"  largest {kind} change {change[i]:.3g} at "
                     f"{change[2]}: {change[3]!r} -> {change[4]!r}")
    return lines


def differing_files(case: str) -> list[tuple[str, list[str]]]:
    """The golden files of case, as (case/name, lines), that the code now
    writes differently or not at all, and any new file it writes; lines
    are largest_changes' for a report.json or trace.csv present in both
    copies, else empty."""
    committed = os.path.join(GOLDEN, case)
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(case, tmp)
        names = (set(os.listdir(tmp)) | set(os.listdir(committed))) \
            - {"config.json"}
        differ = []
        for name in sorted(names):
            a, b = os.path.join(committed, name), os.path.join(tmp, name)
            both = os.path.isfile(a) and os.path.isfile(b)
            if both and filecmp.cmp(a, b, shallow=False):
                continue
            numeric = both and name in ("report.json", "trace.csv")
            differ.append((f"{case}/{name}",
                           largest_changes(a, b) if numeric else []))
        return differ


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
    for path, lines in differ:
        print(f"differs: {path}", *lines, sep="\n")
    if check:
        print(f"{len(differ)} golden file(s) differ", file=sys.stderr)
    sys.exit(1 if differ else 0)
