"""Out-of-program tracing of nashprox's public functions.

install() rebinds each traced function at every nashprox module that holds
it by name (the defining module, every `from .x import f` site and the
package namespace), and wraps the traced methods on their classes. Every
wrapped call records a span (run id, span id, parent id, name, start, end,
self time, amount) in memory; self time is the span's duration minus the
durations of its direct children. Constructor counts (games, regularizers)
are counted without a span, so their time stays in the caller.

The program is not edited: spans are taken at the module boundaries from
outside, which is why a call site that bypassed a wrapper would show up as
a mismatch in the worker's call-count cross-checks.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, function, span name, amount extractor or None)
FUNCTIONS = [
    ("serialize", "load_config", "serialize.load", None),
    ("serialize", "validate_config", "serialize.validate", None),
    ("serialize", "build_game", "serialize.build_game", None),
    ("serialize", "build_graph", "serialize.build_graph", None),
    ("games", "solve_ne_oracle", "games.oracle", None),
    ("games", "gradient_map", "games.gradient_map", None),
    ("games", "monotonicity_constants", "games.constants", None),
    ("noise", "substream", "noise.substream", None),
    ("sampling", "sample_batch_gradient", "sampling.batch_gradient",
     lambda a, k: k.get("batch", a[2] if len(a) > 2 else 0)),
    ("prox", "prox_apply", "prox.apply", None),
    ("prox", "prox_profile", "prox.profile", None),
    ("graphs", "build_metropolis_weights", "graphs.build", None),
    ("graphs", "ring_graph", "graphs.build", None),
    ("graphs", "mixing_params", "graphs.mixing", None),
    ("graphs", "consensus_apply", "graphs.consensus",
     lambda a, k: k.get("tau", a[2] if len(a) > 2 else 0)),
    ("pgr", "run_pgr", "pgr.run", None),
    ("distributed", "run_dist_pgr", "distributed.run", None),
    ("best_response", "run_pbr", "best_response.run", None),
    ("best_response", "saa_best_response", "best_response.saa", None),
    ("best_response", "contraction_certificate",
     "best_response.certificate", None),
    ("experiments", "run_experiment", "experiments.run", None),
    ("experiments", "write_trace_csv", "experiments.write", None),
    ("experiments", "write_report_json", "experiments.write", None),
]

# (module, class, attribute, span name); attributes may be plain methods,
# classmethods or properties.
METHODS = [
    ("noise", "GaussianNoise", "averaged", "noise.draw"),
    ("profiles", "StrategyProfile", "__init__", "profiles.init"),
    ("profiles", "StrategyProfile", "from_vector", "profiles.op"),
    ("profiles", "StrategyProfile", "zeros", "profiles.op"),
    ("profiles", "StrategyProfile", "vector", "profiles.op"),
    ("profiles", "StrategyProfile", "distance", "profiles.op"),
    ("experiments", "ExperimentSpec", "from_config", "experiments.spec"),
]

# (module, class, counter name): constructions counted without a span.
CONSTRUCTORS = [
    ("games", "QuadraticGame", "games.game_builds"),
    ("games", "AggregativeGame", "games.game_builds"),
    ("prox", "Zero", "prox.regularizer_builds"),
    ("prox", "L1", "prox.regularizer_builds"),
    ("prox", "BoxIndicator", "prox.regularizer_builds"),
]


class Tracer:
    """In-memory span recorder shared by all wrappers of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = 0
        self._stack: list[list] = []
        self._next_id = 0

    def wrap(self, name: str, fn, amount=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((self.run_id, frame[0], parent, name, t0, t1,
                              dur - frame[1],
                              int(amount(args, kwargs)) if amount else 0))
        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counting

    def request(self, run_id: int, fn):
        """Run fn() as the root span of request `run_id`.

        Spans and counts of the previous request are dropped first, so
        memory holds one request at a time.
        """
        self.run_id = run_id
        self.spans.clear()
        self.counts.clear()
        return self.wrap("request", fn)()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("run_id,span_id,parent_id,name,start,end,self,amount\n")
            for s in self.spans:
                fh.write("%d,%d,%d,%s,%r,%r,%r,%d\n" % s)


def _rebind(orig, replacement) -> int:
    """Replace `orig` by `replacement` in every loaded nashprox module."""
    hits = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "nashprox"
                               or mod_name.startswith("nashprox.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap every traced function, method and constructor of nashprox."""
    for mod_name, fn_name, span, amount in FUNCTIONS:
        mod = importlib.import_module(f"nashprox.{mod_name}")
        orig = getattr(mod, fn_name)
        if _rebind(orig, tracer.wrap(span, orig, amount)) == 0:
            raise RuntimeError(f"nashprox.{mod_name}.{fn_name} not rebound")
    for mod_name, cls_name, attr, span in METHODS:
        cls = getattr(importlib.import_module(f"nashprox.{mod_name}"),
                      cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(tracer.wrap(span, raw.__func__))
        elif isinstance(raw, property):
            new = property(tracer.wrap(span, raw.fget))
        else:
            new = tracer.wrap(span, raw)
        setattr(cls, attr, new)
    for mod_name, cls_name, counter in CONSTRUCTORS:
        cls = getattr(importlib.import_module(f"nashprox.{mod_name}"),
                      cls_name)
        cls.__init__ = tracer.counted(counter, cls.__init__)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the last traced request."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    amount: dict[str, int] = defaultdict(int)
    for _, _, _, name, t0, t1, own, amt in tracer.spans:
        calls[name] += 1
        self_s[name] += own
        total_s[name] += t1 - t0
        amount[name] += amt
    count = tracer.counts
    return {
        "serialize.load_s": self_s["serialize.load"],
        "serialize.validate_s": self_s["serialize.validate"],
        "serialize.validate_calls": calls["serialize.validate"],
        "serialize.build_game_s": self_s["serialize.build_game"],
        "serialize.build_graph_s": self_s["serialize.build_graph"],
        "games.oracle_s": self_s["games.oracle"],
        "games.oracle_total_s": total_s["games.oracle"],
        "games.gradient_map_calls": calls["games.gradient_map"],
        "games.gradient_map_s": self_s["games.gradient_map"],
        "games.constants_calls": calls["games.constants"],
        "games.constants_s": self_s["games.constants"],
        "games.game_builds": count.get("games.game_builds", 0),
        "noise.substream_calls": calls["noise.substream"],
        "noise.substream_s": self_s["noise.substream"],
        "noise.draw_calls": calls["noise.draw"],
        "noise.draw_s": self_s["noise.draw"],
        "sampling.batch_gradient_calls": calls["sampling.batch_gradient"],
        "sampling.batch_gradient_s": self_s["sampling.batch_gradient"],
        "sampling.samples": amount["sampling.batch_gradient"],
        "prox.apply_calls": calls["prox.apply"],
        "prox.apply_s": self_s["prox.apply"],
        "prox.profile_calls": calls["prox.profile"],
        "prox.profile_s": self_s["prox.profile"],
        "prox.regularizer_builds": count.get("prox.regularizer_builds", 0),
        "profiles.built": calls["profiles.init"],
        "profiles.s": self_s["profiles.init"] + self_s["profiles.op"],
        "graphs.build_s": self_s["graphs.build"],
        "graphs.mixing_calls": calls["graphs.mixing"],
        "graphs.mixing_s": self_s["graphs.mixing"],
        "graphs.consensus_calls": calls["graphs.consensus"],
        "graphs.consensus_rounds": amount["graphs.consensus"],
        "graphs.consensus_s": self_s["graphs.consensus"],
        "pgr.run_s": self_s["pgr.run"],
        "distributed.run_s": self_s["distributed.run"],
        "best_response.run_s": self_s["best_response.run"],
        "best_response.saa_calls": calls["best_response.saa"],
        "best_response.saa_s": self_s["best_response.saa"],
        "best_response.certificate_calls": calls["best_response.certificate"],
        "best_response.certificate_s": self_s["best_response.certificate"],
        "experiments.self_s": self_s["experiments.run"]
        + self_s["experiments.spec"],
        "experiments.write_s": self_s["experiments.write"],
    }
