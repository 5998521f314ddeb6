"""One set-up sample, in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED OUTDIR

Imports numpy, scipy and pqikit, generates the workload's job list and
builds its fixtures under OUTDIR.  Prints the import seconds, the
generate-and-build seconds and a speed scale measured in this interpreter,
which may run on another core than its parent and so at another speed.

The scale comes from a pure-Python loop timed just before the import and
just after the build: importing is interpreter-bound work, and this loop
tracked it better than the numpy probe in ``speed.py`` did (on a 2-core
Intel Xeon VM the per-sample spread of scaled set-up times was 10% with
the loop, 27% with the numpy probe and 19% unscaled).
"""

import statistics
import sys
import time

REFERENCE_S = 1.3e-3


def _loop_s() -> float:
    """Median of three timings of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


before = _loop_s()
t0 = time.perf_counter()
import numpy, scipy, pqikit, pqikit.cli, pqikit.systems  # noqa: E401,F401,E402
t1 = time.perf_counter()
import gen  # noqa: E402
import jobs  # noqa: E402

jobs.build(gen.generate(sys.argv[1], int(sys.argv[2])), sys.argv[3])
t2 = time.perf_counter()
print(t1 - t0, t2 - t1, REFERENCE_S / statistics.fmean((before, _loop_s())))
