"""Host-speed reference for the end-to-end times.

The shared hosts this benchmark runs on change speed for seconds to
minutes at a time (other tenants on the same cores): one and the same
experiment can take 1.7x longer in a slow phase, and a whole 30-second run
can fall into one. reference_seconds() times a fixed task with the same
mix of work as nashprox (interpreted loops over small dicts, small numpy
mat-vecs, clips and norms) right next to every timed operation. scaled()
then expresses the operation's wall time in seconds on a host where the
reference task takes NOMINAL_S, which cancels the host's speed phase.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About the reference time of a 2-vCPU x86_64 VM in its fast phase (27 ms;
# 46 ms in its slow phase).
NOMINAL_S = 0.030

_H = np.random.default_rng(0).standard_normal((50, 50)) / 10.0


def _task(n: int) -> None:
    d: dict[int, int] = {}
    for i in range(40 * n):
        d[i % 97] = d.get(i % 97, 0) + i * i
    x = np.zeros(50)
    for _ in range(n):
        x = np.clip(_H @ x + 1.0, -1.0, 1.0)
        float(np.linalg.norm(x))


def reference_seconds() -> float:
    """Wall time of the fixed reference task (after a short warm-up)."""
    _task(50)
    t0 = perf_counter()
    _task(2500)
    return perf_counter() - t0


def scaled(seconds: float, reference: float) -> float:
    """`seconds` measured next to a reference time of `reference`,
    rescaled to a host whose reference time is NOMINAL_S."""
    return seconds * NOMINAL_S / reference
