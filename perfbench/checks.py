"""Correctness checks of one experiment's outputs.

None of the checks depends on the random draws: they test the certified
verdicts, the equilibrium residual (recomputed here with numpy, not with
the program's own gradient or prox), counters against their closed forms,
and the shape of trace.csv. Reruns are compared byte for byte by the
worker.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from workloads import player_count, schedule_total

# ||x - prox_{alpha r}(x - alpha G(x))|| at the reported equilibrium, with
# alpha = eta / L^2. The oracle stops at a displacement of 1e-12.
RESIDUAL_TOL = 1e-9

# The documented trace.csv columns, written out here rather than imported
# from the program so that a change to them is caught.
TRACE_COLUMNS = {
    "pgr": ["k", "N_k", "cum_samples", "cum_prox", "sq_error",
            "replication_id"],
    "dist-pgr": ["k", "N_k", "tau_k", "cum_samples", "cum_prox", "cum_comm",
                 "consensus_error", "sq_error", "replication_id"],
    "pbr": ["k", "batch_N_k", "cum_samples", "inner_solves", "error_norm",
            "replication_id"],
}


def _prox(game: dict, v: np.ndarray, alpha: float) -> np.ndarray:
    if game["kind"] == "cournot":
        return np.clip(v, game["lo"], game["hi"])
    out, offset = v.copy(), 0
    for reg, d in zip(game["regularizers"], game["dims"]):
        block = v[offset:offset + d]
        if reg["kind"] == "box":
            block = np.clip(block, reg["lo"], reg["hi"])
        elif reg["kind"] == "l1":
            t = alpha * reg["weight"]
            block = np.sign(block) * np.maximum(np.abs(block) - t, 0.0)
        out[offset:offset + d] = block
        offset += d
    return out


def _gradient(game: dict, x: np.ndarray) -> np.ndarray:
    if game["kind"] == "cournot":
        a, b, c = np.asarray(game["a"]), np.asarray(game["b"]), game["c_price"]
        return a * x + b - game["d"] + c * x.sum() + c * x
    return np.asarray(game["h"]) @ x + np.asarray(game["c"])


def equilibrium_residual(doc: dict, report: dict) -> float:
    consts = report["game_constants"]
    alpha = consts["eta"] / consts["lip"] ** 2
    x = np.asarray(report["equilibrium"], dtype=float)
    step = _prox(doc["game"], x - alpha * _gradient(doc["game"], x), alpha)
    return float(np.linalg.norm(x - step))


def check_experiment(doc: dict, out_dir: str) -> list[str]:
    """Failures found in one experiment's report.json and trace.csv."""
    scheme, solver = doc["scheme"], doc["solver"]
    k_iter, reps = solver["max_iter"], doc["replications"]
    players = player_count(doc)
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    errors = []
    theory = report["theory"]
    if not theory["envelope"]["ok"]:
        errors.append(f"envelope violated, max_ratio "
                      f"{theory['envelope']['max_ratio']}")
    if scheme == "dist-pgr" and not theory["consensus_bound_ok"]:
        errors.append("consensus bound violated")
    residual = equilibrium_residual(doc, report)
    if not residual <= RESIDUAL_TOL:
        errors.append(f"equilibrium residual {residual} > {RESIDUAL_TOL}")
    if report["iterations"] != k_iter:
        errors.append(f"iterations {report['iterations']} != {k_iter}")
    expected = {
        "total_samples": schedule_total(doc, report),
        "prox_evals": 0 if scheme == "pbr" else k_iter,
        "comm_rounds": k_iter * (k_iter + 1) // 2
        if scheme == "dist-pgr" else 0,
        "inner_solves": players * k_iter if scheme == "pbr" else 0,
    }
    if report["counters"] != expected:
        errors.append(f"counters {report['counters']} != {expected}")
    with open(os.path.join(out_dir, "trace.csv"), encoding="utf-8",
              newline="") as fh:
        rows = list(csv.reader(fh))
    columns = TRACE_COLUMNS[scheme]
    if rows[0] != columns:
        errors.append(f"trace.csv header {rows[0]} != {columns}")
    body = rows[1:]
    if len(body) != reps * k_iter:
        errors.append(f"trace.csv has {len(body)} rows, not {reps * k_iter}")
    want = [[str(k), str(r)] for r in range(reps) for k in range(k_iter)]
    if any(len(row) != len(columns) for row in body) \
            or [[row[0], row[-1]] for row in body] != want:
        errors.append("trace.csv rows are not one per (replication, k)")
    return errors
