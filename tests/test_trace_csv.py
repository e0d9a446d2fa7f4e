"""trace.csv byte for byte against a csv.writer reference.

write_trace_csv fills per-k row templates with one % per replication. The
reference below is the csv.writer implementation it replaced: a float cell
is the float's repr, an int cell its str. Both writers run on drawn
RunTraces with every scheme's column set, including dist-pgr's two
per-row columns, and must write the same bytes.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nashprox import RunTrace, SampleCounter
from nashprox.experiments import SCHEMES, write_trace_csv

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308,
               -1e308, 1e-7, 1.5e16, 2.5e-300, 0.1, 123456789.125]
EDGE_INTS = [0, 1, 2 ** 53, 2 ** 53 + 1, 2 ** 64 + 7, 10 ** 30]


def reference_write_trace_csv(path: str, scheme: str, trace: RunTrace) -> None:
    """The csv.writer trace table: one row per iteration per replication."""
    columns, n = SCHEMES[scheme].columns, trace.iterations
    cols = [getattr(trace, field) for _, field in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", *(header for header, _ in columns),
                         "replication_id"])
        for rep in range(len(trace.errors)):
            writer.writerows(zip(range(n), *(
                c[rep, :n].tolist() if isinstance(c, np.ndarray) else c
                for c in cols), [rep] * n))


def _trace(scheme: str, errors: np.ndarray, shared: list[list[int]],
           consensus: np.ndarray) -> RunTrace:
    batches, cum_samples, cum_prox, cum_comm, cum_inner, taus = shared
    dist = scheme == "dist-pgr"
    return RunTrace(errors, "squared_distance", batches, cum_samples,
                    cum_prox, cum_comm, cum_inner,
                    final=np.zeros((len(errors), 2)), counter=SampleCounter(),
                    taus=taus if dist else None,
                    consensus_errors=consensus if dist else None)


def _both(scheme: str, trace: RunTrace) -> tuple[bytes, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        new, ref = os.path.join(tmp, "new.csv"), os.path.join(tmp, "ref.csv")
        write_trace_csv(new, scheme, trace)
        reference_write_trace_csv(ref, scheme, trace)
        with open(new, "rb") as a, open(ref, "rb") as b:
            return a.read(), b.read()


floats = st.floats(allow_nan=True, allow_infinity=True) | \
    st.sampled_from(EDGE_FLOATS)
ints = st.integers(0, 2 ** 70) | st.sampled_from(EDGE_INTS)


@settings(max_examples=150, deadline=None)
@given(scheme=st.sampled_from(sorted(SCHEMES)), reps=st.integers(1, 4),
       n=st.integers(1, 6), data=st.data())
def test_writer_matches_the_csv_writer_reference(scheme, reps, n, data):
    def block(rows: int, cols: int) -> np.ndarray:
        return np.array(data.draw(st.lists(
            floats, min_size=rows * cols, max_size=rows * cols)),
            dtype=float).reshape(rows, cols)

    shared = [data.draw(st.lists(ints, min_size=n, max_size=n))
              for _ in range(6)]
    trace = _trace(scheme, block(reps, n + 1), shared, block(reps, n))
    new, ref = _both(scheme, trace)
    assert new == ref


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
@pytest.mark.parametrize("reps,n", [(1, 1), (1, 7), (3, 1), (2, 5)])
def test_edge_values_and_single_row_shapes_match(scheme, reps, n):
    cells = reps * (n + 1)
    edge = np.resize(np.array(EDGE_FLOATS), cells).reshape(reps, n + 1)
    shared = [[EDGE_INTS[k % len(EDGE_INTS)] for k in range(n)]] * 6
    trace = _trace(scheme, edge, shared, edge[:, ::-1][:, :n].copy())
    new, ref = _both(scheme, trace)
    assert new == ref
    assert new.count(b"\n") == 1 + reps * n
