"""Golden outputs: each committed config must reproduce its committed
trace.csv and report.json, and the stdout of `nashprox validate` on it
byte for byte (validate.txt).

In trace.csv and report.json, integers and strings must match exactly; floats at rtol=1e-10 plus an
absolute floor of 1e-13, since oracle_error_bound is a residual at the
rounding level and differs between numpy versions. Regenerate with
tests/golden/regenerate.py.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
RTOL, ATOL = 1e-10, 1e-13

_spec = importlib.util.spec_from_file_location("golden_regenerate",
                                               GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def _close(got: float, want: float) -> bool:
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= ATOL + RTOL * abs(want)


def _is_int(cell: str) -> bool:
    return cell.lstrip("-").isdigit()


def _diff_json(got, want, where: str = "") -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: {got!r} has not the keys {sorted(want)}"]
        return [d for k in want for d in _diff_json(got[k], want[k],
                                                     f"{where}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _diff_json(g, w, f"{where}/{i}")]
    if isinstance(want, float) and type(got) is float:
        return [] if _close(got, want) else [f"{where}: {got!r} != {want!r}"]
    return [] if type(got) is type(want) and got == want \
        else [f"{where}: {got!r} != {want!r}"]


def _diff_csv(got_path: Path, want_path: Path) -> list[str]:
    with open(got_path, newline="") as g, open(want_path, newline="") as w:
        got, want = list(csv.reader(g)), list(csv.reader(w))
    if len(got) != len(want) or got[:1] != want[:1]:
        return [f"trace.csv: {len(got)} rows, header {got[:1]}; "
                f"want {len(want)} rows, header {want[:1]}"]
    out = []
    for r, (grow, wrow) in enumerate(zip(got[1:], want[1:]), start=1):
        same = len(grow) == len(wrow) and all(
            gc == wc if _is_int(wc) else
            not _is_int(gc) and _close(float(gc), float(wc))
            for gc, wc in zip(grow, wrow))
        if not same:
            out.append(f"trace.csv row {r}: {grow} != {wrow}")
    return out


@pytest.mark.parametrize("case", regenerate.cases())
def test_golden_outputs_are_reproduced(tmp_path: Path, case: str):
    regenerate.write_outputs(case, str(tmp_path))
    want_dir = GOLDEN / case
    with open(tmp_path / "report.json") as g, \
            open(want_dir / "report.json") as w:
        diffs = _diff_json(json.load(g), json.load(w))
    if (want_dir / "trace.csv").exists():
        diffs += _diff_csv(tmp_path / "trace.csv", want_dir / "trace.csv")
    else:
        assert not (tmp_path / "trace.csv").exists()
    assert not diffs, "\n".join(diffs[:20])
    assert (tmp_path / "validate.txt").read_bytes() == \
        (want_dir / "validate.txt").read_bytes()


def test_check_names_the_largest_change_of_each_differing_file(
        tmp_path: Path):
    """regenerate.py --check, run on a copy of one case with one number
    changed in report.json and one in trace.csv, names both files and,
    under each, the place and size of that change."""
    case = "readme-dist-pgr"
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN / case, copy / case)
    shutil.copy(GOLDEN / "regenerate.py", copy)
    report = json.loads((copy / case / "report.json").read_text())
    c_start = report["theory"]["c_start"]
    report["theory"]["c_start"] = edited = c_start + 0.25
    (copy / case / "report.json").write_text(json.dumps(report))
    rows = (copy / case / "trace.csv").read_text().split("\n")
    header, cells = rows[0].split(","), rows[3].split(",")
    column = header.index("sq_error")
    error = float(cells[column])
    cells[column] = repr(error * 2.0)
    rows[3] = ",".join(cells)
    (copy / case / "trace.csv").write_text("\n".join(rows))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(GOLDEN.parent.parent / "src"),
                    os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(copy / "regenerate.py"),
                           "--check", case], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    where, old, new = "/theory/c_start", edited, c_start
    cell, before, after = "row 3, column sq_error", error * 2.0, error
    assert proc.stdout.splitlines() == [
        f"differs: {case}/report.json",
        f"  largest absolute change {abs(new - old):.3g} at {where}: "
        f"{old!r} -> {new!r}",
        f"  largest relative change {abs(new - old) / old:.3g} at {where}: "
        f"{old!r} -> {new!r}",
        f"differs: {case}/trace.csv",
        f"  largest absolute change {error:.3g} at {cell}: "
        f"{before!r} -> {after!r}",
        f"  largest relative change 0.5 at {cell}: {before!r} -> {after!r}",
    ]
    assert proc.stderr.endswith("2 golden file(s) differ\n")


def test_each_readme_config_is_a_golden_case():
    """Each json block of README.md is, key order and spacing aside, the
    config of exactly one readme-* case, and each such case has its block,
    so the README cannot drift from the outputs these cases pin."""
    def canonical(doc) -> str:  # keeps 1 apart from 1.0
        return json.dumps(doc, sort_keys=True)
    readme = (GOLDEN.parent.parent / "README.md").read_text("utf-8")
    blocks = [canonical(json.loads(block)) for block in
              re.findall(r"```json\n(.*?)```", readme, re.DOTALL)]
    cases = {path.parent.name: canonical(json.loads(path.read_text()))
             for path in GOLDEN.glob("readme-*/config.json")}
    matches = [[name for name, doc in cases.items() if doc == block]
               for block in blocks]
    assert all(len(names) == 1 for names in matches), matches
    assert sorted(names[0] for names in matches) == sorted(cases)
