"""A streaming summary for simulations: :class:`Summary` holds the
throughput model's per-lookup latency samples
(``ThroughputReport.lookup_latency``) in a bounded reservoir. Counters
are stats dataclasses, read by :func:`repro.obs.series`.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Iterable

# Reservoir size for Summary. 8192 doubles keep the kept-sample error of a
# percentile estimate well under a percentile point while bounding a summary
# at ~64 KiB however long a live run observes into it.
DEFAULT_SUMMARY_CAPACITY = 8192


class Summary:
    """Streaming summary of observed samples: count, mean, min/max, percentiles.

    Count, sum, mean, minimum, and maximum are always exact. Retained samples
    are bounded by ``capacity`` using reservoir sampling (Vitter's Algorithm
    R): up to ``capacity`` observations percentiles are exact; past it each
    observation has an equal chance of being retained, so percentiles become
    unbiased estimates while memory stays constant — an unbounded buffer here
    previously grew without limit over long live runs. The sorted view is
    computed lazily and cached between observations instead of re-sorting on
    every ``percentile()`` call.

    The reservoir's RNG is seeded from the summary name, so runs are
    reproducible. For hot paths that only need latency quantiles, prefer
    :class:`repro.obs.histogram.Histogram` (strictly O(1) memory, no
    sampling).
    """

    def __init__(self, name: str, capacity: int = DEFAULT_SUMMARY_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"summary {name!r} capacity must be >= 1, got {capacity!r}")
        self.name = name
        self.capacity = capacity
        self._samples: list[float] = []
        self._sorted: list[float] | None = None
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        # Deterministic per-name seed (hash() is randomized per process).
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))

    def observe(self, value: float) -> None:
        if math.isnan(value):
            raise ValueError(f"summary {self.name!r} observed NaN")
        v = float(value)
        self._count += 1
        self._sum += v
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v
        if len(self._samples) < self.capacity:
            self._samples.append(v)
            self._sorted = None
        else:
            j = self._rng.randrange(self._count)
            if j < self.capacity:
                self._samples[j] = v
                self._sorted = None

    def observe_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.observe(v)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        if not self._count:
            raise ValueError(f"summary {self.name!r} has no samples")
        return self._sum / self._count

    @property
    def minimum(self) -> float:
        if not self._count:
            raise ValueError(f"summary {self.name!r} has no samples")
        return self._min

    @property
    def maximum(self) -> float:
        if not self._count:
            raise ValueError(f"summary {self.name!r} has no samples")
        return self._max

    def percentile(self, q: float) -> float:
        """q-th percentile (q in [0, 100]) with linear interpolation.

        Exact while observations fit in the reservoir, and always exact at
        q=0 / q=100 (the true min/max are tracked outside the reservoir);
        otherwise an estimate over the retained sample, clamped to the
        observed range.
        """
        if not self._count:
            raise ValueError(f"summary {self.name!r} has no samples")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
        if q == 0.0:
            return self._min
        if q == 100.0:
            return self._max
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        ordered = self._sorted
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            value = ordered[lo]
        else:
            frac = rank - lo
            value = ordered[lo] * (1.0 - frac) + ordered[hi] * frac
        return min(max(value, self._min), self._max)

    def reset(self) -> None:
        self._samples.clear()
        self._sorted = None
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def snapshot(self) -> dict[str, float]:
        """Flat stats view (count/sum and, when nonempty, mean/min/max and
        p50/p99/p999)."""
        out: dict[str, float] = {"count": float(self._count), "sum": self._sum}
        if self._count:
            out["mean"] = self.mean
            out["min"] = self._min
            out["max"] = self._max
            out["p50"] = self.percentile(50)
            out["p99"] = self.percentile(99)
            out["p999"] = self.percentile(99.9)
        return out

    def __repr__(self) -> str:
        return f"Summary({self.name!r}, count={self.count})"

