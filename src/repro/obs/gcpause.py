"""Garbage-collector pauses, timed while a ``with`` block runs.

A collection stops every thread of the process, so a latency tail measured
across one may be the collector's rather than the system's. :class:`GcPauses`
hooks :data:`gc.callbacks` only for the duration of a ``with`` block and
times every collection into one :class:`~repro.obs.histogram.Histogram` per
generation; outside a block nothing is installed, so code that never enters
one pays nothing.
"""

from __future__ import annotations

import gc
import time

from repro.obs.histogram import Histogram


class GcPauses:
    """Every collection's pause while the block runs, by generation.

    ``by_generation[g]`` holds the pauses of generation-``g`` collections
    (in seconds); :attr:`max_pause_s` is the largest of any generation.
    The hook sees collections triggered by any thread.
    """

    def __init__(self) -> None:
        self.by_generation = tuple(Histogram(f"gc.gen{g}_pause_s") for g in range(3))
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.by_generation[info["generation"]].observe(time.perf_counter() - self._started)

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)

    @property
    def max_pause_s(self) -> float:
        return max((h.maximum for h in self.by_generation if h.count), default=0.0)
