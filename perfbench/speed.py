"""Host speed index: a fixed pure-Python job timed between targets.

On a shared 2-vCPU VM the same target compiled minutes apart took up to
1.8x longer, with CPU time tracking wall time (so the vCPU was running, only
slower). Times taken in one run are therefore scaled by
``REFERENCE_S / median(reference job seconds in that run)``: the seconds the
run would have taken on a host that runs the reference job in
``REFERENCE_S``. The raw times and the factor are printed as well.
"""

from __future__ import annotations

import gc
from time import perf_counter

# Median of reference_job() on the 2-vCPU Xeon VM the benchmark was defined
# on, while its host was quiet.
REFERENCE_S = 0.017


def reference_job() -> float:
    """Seconds for a fixed job that builds and indexes tuples, then joins,
    splits and parses numbers. Garbage collection is off while it runs, so
    the size of the program's heap does not change its cost."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        pairs = [(i, (i & 7, i >> 3)) for i in range(40000)]
        index = {key: i for i, key in pairs}
        words = " ".join(str(i) for i in range(20000)).split()
        total = sum(int(w) for w in words)
        elapsed = perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if len(index) != 40000 or total != 199990000:
        raise RuntimeError("reference job computed the wrong result")
    return elapsed
