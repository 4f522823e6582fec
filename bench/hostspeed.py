"""A fixed reference loop that tracks how fast the host runs right now.

On a small shared VM (2-core Intel Xeon at 2.0 GHz) execution speed
drifts by as much as 1.7x over seconds to minutes: a constant Python
loop took 0.29-0.50 s back to back, with user CPU time equal to wall
time and no steal. Medians over a 40-second run do not average that
out, so raw host seconds spread 6-29% between runs of the same code.

The benchmark therefore times this loop right before and right after
each timed phase of a pass and scales the phase's host seconds by
`REFERENCE_S / (mean of the two loop times)`: the figure is the time the
phase would take on a host that runs the loop in `REFERENCE_S`. The
loop uses only the standard library and the same kinds of work as the
simulator (Fraction sums, dict and list updates, string formatting,
`json.dumps`, byte XOR), so a change to starqkd never changes it.
Keep it fixed: any edit changes every scaled figure.
"""

from __future__ import annotations

import gc
import json
import time
from fractions import Fraction

# Host seconds one reference loop takes at the reference speed: the
# median on a 2-core Intel Xeon VM at 2.0 GHz under Python 3.11.
REFERENCE_S = 0.05
_ITEMS = 8000
_BLOCK = bytes(range(256)) * 256


def reference_work() -> int:
    acc = Fraction(0)
    counts: dict[str, int] = {}
    rows = []
    for i in range(1, _ITEMS):
        acc += Fraction(i, 7 + (i & 15))
        key = f"k{i & 255}"
        counts[key] = counts.get(key, 0) + 3 * i
        rows.append([i, i * 0.5, str(i)])
    text = json.dumps({"rows": rows, "counts": counts})
    mixed = bytes(a ^ b for a, b in zip(_BLOCK, _BLOCK[::-1]))
    return len(text) + len(mixed) + acc.numerator % 7


def reference_seconds() -> float:
    """Host seconds the reference loop takes now, with the collector held off.

    A collection triggered by the loop's allocations would walk whatever
    the pass keeps alive (a whole report) and time that instead.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """Host seconds of a phase, scaled to the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
