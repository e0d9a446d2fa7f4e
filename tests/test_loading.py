"""What a process loads: only the modules of the scheme it runs, all of
them in set-up.

`import nashprox` loads no submodule, and each public name is loaded from
its module on first use. Once ExperimentSpec.from_config has read a config,
its scheme's modules are loaded, so running it loads no further nashprox
module and no loading cost moves from set-up into the first run. Each
check runs in a fresh interpreter: in the test process other tests have
already loaded every module.
"""

from __future__ import annotations

import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_PROBE = """
import json, sys, tempfile
import nashprox
from nashprox.serialize import load_config

def loaded():
    return sorted(m for m in sys.modules if m.startswith("nashprox"))

spec = nashprox.ExperimentSpec.from_config(load_config(sys.argv[1]))
set_up = loaded()
with tempfile.TemporaryDirectory() as out:
    nashprox.run_experiment(spec, out_dir=out)
print(json.dumps([set_up, loaded()]))
"""


def _fresh(code: str, *args: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("scheme,unloaded", [
    ("pgr", {"best_response", "distributed", "graphs", "profiles"}),
    ("pbr", {"distributed", "graphs", "profiles"}),
    ("dist-pgr", {"best_response", "profiles"}),
    ("bounds", {"best_response", "distributed", "graphs", "profiles"}),
])
def test_set_up_loads_the_scheme_and_the_run_loads_nothing_more(
        scheme: str, unloaded: set[str]):
    set_up, after_run = json.loads(_fresh(
        _PROBE, str(GOLDEN / f"readme-{scheme}" / "config.json")))
    assert {f"nashprox.{m}" for m in unloaded}.isdisjoint(set_up)
    assert after_run == set_up


def test_importing_nashprox_loads_no_submodule():
    code = ("import sys, nashprox; print(sorted(m for m in sys.modules "
            "if m.startswith('nashprox')))")
    assert _fresh(code).strip() == "['nashprox']"


def test_every_public_name_resolves_in_a_fresh_interpreter():
    code = ("from nashprox import *; import nashprox; "
            "missing = [n for n in nashprox.__all__ if n not in globals()]; "
            "assert set(nashprox.__all__) <= set(dir(nashprox)); "
            "print(missing, len(nashprox.__all__))")
    assert _fresh(code).strip() == "[] 71"


def test_an_unknown_name_is_an_attribute_error():
    import nashprox

    with pytest.raises(AttributeError, match="has no attribute 'run_pgx'"):
        nashprox.run_pgx
    assert not hasattr(nashprox, "StrategyProfile")
    # pgr_theory(..., eps) gives both as k_eps and m_eps
    assert not hasattr(nashprox, "complexity_K")
    assert not hasattr(nashprox, "complexity_M")
    # schedule.size(k) is the batch size
    assert not hasattr(nashprox, "schedule_size")
    # each scheme's one calculator, pgr_theory, dist_theory or pbr_theory,
    # returns its theory fields and envelope
    for name in ("RateConstants", "rate_constants", "envelope_params",
                 "dist_envelope_params", "dist_complexity", "DistComplexity",
                 "pbr_complexity", "PbrComplexity", "pbr_envelope"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(nashprox, name)
        assert not any(hasattr(import_module(f"nashprox.{module}"), name)
                       for module in ("pgr", "distributed", "best_response"))
