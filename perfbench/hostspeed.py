"""Host-speed probe: rescales measured times to one reference speed.

On a shared host the CPU's speed for pure-Python work drifts over
seconds to minutes (on a pinned CPU of a 2-CPU VM, with almost no steal
time, the quartiles of a fixed loop's time over two minutes were 27 and
37 ms, and the probe below ran up to 2x slower in one minute than in
another), which is more than any bound a run-to-run comparison can
afford.  A run
therefore times a fixed loop that uses none of the code under test
(:func:`probe`) every :data:`PROBE_EVERY_S` seconds, outside the timed
windows, and multiplies every time measured between two probes by
``REFERENCE_PROBE_S`` over the median of the probes around them (one
probe is noisy; their median follows the drift).  A change to the program
moves its measured times and leaves the probe alone, so it shows in full;
a change of host speed moves both and cancels out.

The correction is close to exact for the in-process workloads, which run
the same kind of pure-Python code as the probe.  ``serve_durable``'s
ticks slow down less than the probe when the host is loaded (about as
the square root of the probe's slowdown), so its rescaled times still
rise a little with host speed.  They are nearly all CPU time of the
parent and the workers (98% on that VM), so rescaling only the CPU part
does not change that.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import List

#: Median :func:`probe` time on the 2-CPU VM (Python 3.11.7) the benchmark
#: was tuned on; reported times are rescaled to a host this fast.
REFERENCE_PROBE_S = 0.0012
#: Seconds of measured work between two probes.
PROBE_EVERY_S = 0.1
#: Probes on each side of a segment whose median rescales it.
PROBE_WINDOW = 3

_KEYS = [(i % 61, i % 7, str(i % 13)) for i in range(4_000)]


def _probe_once() -> int:
    index: dict = {}
    for key in _KEYS:
        bucket = index.get(key)
        if bucket is None:
            index[key] = bucket = set()
        bucket.add(key[0] * key[1])
    return sum(len(bucket) for bucket in index.values())


def probe() -> float:
    """Seconds of the fixed loop: the fastest of three repetitions."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _probe_once()
        best = min(best, perf_counter() - start)
    return best


class HostClock:
    """Probes the host between segments of measured work.

    Segment ``k`` is the work between probe ``k`` and probe ``k + 1``;
    :meth:`factor` rescales a time measured in it.
    """

    def __init__(self) -> None:
        self.probes: List[float] = [probe()]
        self._last = perf_counter()

    @property
    def segment(self) -> int:
        """The segment the work measured now belongs to."""
        return len(self.probes) - 1

    def due(self) -> bool:
        return perf_counter() - self._last >= PROBE_EVERY_S

    def mark(self) -> None:
        """Probe now: close the current segment and open the next."""
        self.probes.append(probe())
        self._last = perf_counter()

    def factor(self, segment: int) -> float:
        """Multiplier of a time measured in ``segment`` (closed by :meth:`mark`)."""
        low = max(0, segment + 1 - PROBE_WINDOW)
        return REFERENCE_PROBE_S / statistics.median(self.probes[low : segment + 1 + PROBE_WINDOW])
