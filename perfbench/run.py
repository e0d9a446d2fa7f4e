"""nashprox benchmark: replicated experiments timed end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The workload's config is generated from the seed (workloads.py) and written
into a scratch directory inside perfbench/. Every measurement runs in a
fresh interpreter, one process at a time, with BLAS threads capped at the
CPU count, importing nashprox from the checkout's src/:

- --trace 0: setup_s is the median over SETUP_PROBES fresh processes of
  the time from `import nashprox` through load_config and
  ExperimentSpec.from_config (one untimed probe first compiles bytecode);
  run_s is the median run_experiment time of a closed loop of experiments
  in one workload process for --seconds, and peak_rss_mb that process's peak resident
  memory.
- --trace 1: the per-layer metrics of tracer.py from traced requests, and
  trace.overhead_s, the traced minus the untraced median run_s. The spans
  of the last traced request are written to
  perfbench/out/spans-<workload>.csv.gz.

Each experiment counts as one operation; it fails when it raises or a
check of checks.py fails. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. Metric names and units
come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

STARTED = time.monotonic()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
# Every child process is killed once the run has taken this long.
DEADLINE_S = 170.0


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def child_env(cpus: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cpus)
    return env


def run_child(args: list[str], env: dict) -> str:
    """Run one child process to completion; return its last stdout line."""
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - STARTED))
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=timeout,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}")
    return lines[-1]


def measure_setup(config: str, env: dict) -> list[tuple[float, float]]:
    """(set-up time, reference time) of SETUP_PROBES fresh interpreters."""
    probe = os.path.join(HERE, "setup_probe.py")
    run_child([probe, config], env)
    return [tuple(map(float, run_child([probe, config], env).split()))
            for _ in range(SETUP_PROBES)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nashprox", "__init__.py")):
        print(f"no nashprox sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = bench["per_layer" if args.trace else "end_to_end"]

    machine = machine_record()
    env = child_env(machine["cpus"])
    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        config = os.path.join(work, "config.json")
        with open(config, "wb") as fh:
            fh.write(workloads.config_bytes(
                workloads.make_config(args.workload, args.seed)))
        worker = [os.path.join(HERE, "worker.py"), "--config", config,
                  "--work", work, "--src", SRC,
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
        values: dict[str, float] = {}
        if args.trace:
            out = os.path.join(HERE, "out")
            os.makedirs(out, exist_ok=True)
            worker += ["--spans",
                       os.path.join(out, f"spans-{args.workload}.csv.gz")]
            result = json.loads(run_child(worker, env))
            values.update(result["layers"])
        else:
            probes = measure_setup(config, env)
            result = json.loads(run_child(worker, env))
            result["setup_s"] = [reference.scaled(*p) for p in probes]
            result["setup_wall_s"] = [wall for wall, _ in probes]
            values["setup_s"] = statistics.median(result["setup_s"])
            values["run_s"] = statistics.median(result["run_s"])
            values["peak_rss_mb"] = result["peak_rss_mb"]
            for name in ("setup_s", "run_s"):
                samples = result[name]
                print(f"{name}: median {statistics.median(samples):.4f} s, "
                      f"min {min(samples):.4f}, max {max(samples):.4f}, "
                      f"n={len(samples)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"no value for {missing}; failures: {result['failures']}",
              file=sys.stderr)
        return 1
    info = {k: result[k] for k in ("run_s", "wall_s", "reference_s",
                                   "setup_s", "setup_wall_s", "cross_check")
            if k in result}
    print(json.dumps({"machine": machine, "workload": args.workload,
                      "seed": args.seed, "failures": result["failures"],
                      **info}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
