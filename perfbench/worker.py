"""One workload process: replicated experiments in a closed loop.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/. It runs the experiment of one config file again and again,
one caller, each experiment starting when the previous one has finished,
for the given number of seconds. Every experiment is timed and checked
(checks.py), and its outputs are compared byte for byte with those of the
first.

With --trace 1 the timed phase is split: half untraced, then half with
every public function of nashprox wrapped (tracer.py), each experiment a
traced request. It prints one JSON line with its measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

from checks import check_experiment
from reference import reference_seconds, scaled
from workloads import player_count

MIN_TIMED = 3
MIN_TRACED = 2

# Deterministic call counts that prove no call site bypasses a wrapper:
# metric -> expected value from (replications R, iterations K, players N).
CROSS_CHECKS = {
    "pgr": ("sampling.batch_gradient_calls", lambda r, k, n: r * k),
    "dist-pgr": ("graphs.consensus_rounds",
                 lambda r, k, n: r * k * (k + 1) // 2),
    "pbr": ("best_response.saa_calls", lambda r, k, n: r * k * n),
}


class Session:
    """The experiments of one workload process and their verdicts."""

    def __init__(self, config_path: str, work_dir: str):
        import nashprox.experiments
        import nashprox.serialize

        self.experiments = nashprox.experiments
        self.serialize = nashprox.serialize
        self.config_path = config_path
        self.out_dir = os.path.join(work_dir, "exp")
        with open(config_path, encoding="utf-8") as fh:
            self.doc = json.load(fh)
        self.reference: tuple[str, str] | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def experiment(self) -> float:
        """One CLI-equivalent experiment; returns run_experiment's time.

        Calls go through the module attributes, so a traced run reaches
        the wrappers.
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        doc = self.serialize.load_config(self.config_path)
        spec = self.experiments.ExperimentSpec.from_config(doc)
        t0 = perf_counter()
        self.experiments.run_experiment(spec, out_dir=self.out_dir)
        return perf_counter() - t0

    def checked(self, run) -> float | None:
        """Run one experiment through `run`; record and verify it.

        Returns its time, or None when it raised.
        """
        self.attempted += 1
        try:
            elapsed = run()
            errors = check_experiment(self.doc, self.out_dir)
            digest = tuple(_sha256(os.path.join(self.out_dir, f))
                           for f in ("trace.csv", "report.json"))
        except Exception as err:  # a raising experiment is a failed run
            self.failures.append(f"raised {type(err).__name__}: {err}")
            return None
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            errors.append("outputs differ from the first run of this seed")
        if errors:
            self.failures.append("; ".join(errors))
        return elapsed

    def loop(self, seconds: float, minimum: int, run) -> list[tuple]:
        """Experiments for `seconds`, at least `minimum` of them.

        Returns (wall time, reference time) per completed experiment; the
        reference time is the mean of the reference task timed just before
        and just after it.
        """
        samples = []
        start, count = perf_counter(), 0
        before = reference_seconds()
        while count < minimum or perf_counter() - start < seconds:
            count += 1
            elapsed = self.checked(run)
            after = reference_seconds()
            if elapsed is not None:
                samples.append((elapsed, (before + after) / 2.0))
            before = after
        return samples

    def output_bytes(self) -> tuple[int, int]:
        return tuple(os.path.getsize(os.path.join(self.out_dir, f))
                     for f in ("trace.csv", "report.json"))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _scaled(samples: list[tuple]) -> list[float]:
    return [scaled(wall, ref) for wall, ref in samples]


def untraced(session: Session, seconds: float) -> dict:
    samples = session.loop(seconds, MIN_TIMED, session.experiment)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"run_s": _scaled(samples), "wall_s": [w for w, _ in samples],
            "reference_s": [r for _, r in samples],
            "peak_rss_mb": rss_kb / 1024.0}


def traced(session: Session, seconds: float, spans_path: str) -> dict:
    import tracer

    plain = session.loop(seconds / 2.0, MIN_TRACED, session.experiment)
    tr = tracer.Tracer()
    tracer.install(tr)
    per_run: list[dict] = []

    def traced_experiment():
        elapsed = tr.request(len(per_run) + 1, session.experiment)
        per_run.append(tracer.layer_metrics(tr))
        return elapsed

    with_spans = session.loop(seconds / 2.0, MIN_TRACED, traced_experiment)
    layers = {}
    for name in per_run[0]:
        values = [m[name] for m in per_run]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                session.failures.append(f"{name} differs between traced "
                                        f"runs: {sorted(set(values))}")
            layers[name] = values[0]
        else:
            layers[name] = statistics.median(values)
    layers["experiments.trace_bytes"], layers["experiments.report_bytes"] = \
        session.output_bytes()
    if plain and with_spans:
        layers["trace.overhead_s"] = (statistics.median(_scaled(with_spans))
                                      - statistics.median(_scaled(plain)))
    doc = session.doc
    metric, expect = CROSS_CHECKS[doc["scheme"]]
    want = expect(doc["replications"], doc["solver"]["max_iter"],
                  player_count(doc))
    if layers[metric] != want:
        session.failures.append(
            f"cross-check {metric} = {layers[metric]}, expected {want}")
    tr.write(spans_path)
    return {"layers": layers, "cross_check": {metric: layers[metric]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import nashprox

    src = os.path.realpath(args.src)
    if not os.path.realpath(nashprox.__file__).startswith(src + os.sep):
        print(f"nashprox imported from {nashprox.__file__}, not {src}",
              file=sys.stderr)
        return 3
    session = Session(args.config, args.work)
    if args.trace:
        result = traced(session, args.seconds, args.spans)
    else:
        result = untraced(session, args.seconds)
    result.update(attempted=session.attempted,
                  failed=len(session.failures),
                  failures=session.failures[:5])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
