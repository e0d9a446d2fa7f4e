"""Set-up probe: time from `import nashprox` to a validated ExperimentSpec.

Run in a fresh interpreter with the config path as its argument. Prints
the elapsed seconds and, measured right after, the reference time of
reference.py. The clock starts before the package import, so the probe
pays what every command-line call pays before it solves anything.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import nashprox  # noqa: E402
from nashprox.serialize import load_config  # noqa: E402

nashprox.ExperimentSpec.from_config(load_config(sys.argv[1]))
elapsed = perf_counter() - t0

from reference import reference_seconds  # noqa: E402

print(repr(elapsed), repr(reference_seconds()))
