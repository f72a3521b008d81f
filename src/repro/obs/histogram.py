"""Fixed-bucket latency histograms.

The one latency summary, from the live transport's hot paths to the
throughput model's lookups: a histogram holds one counter per bucket, so
memory stays O(number of buckets) no matter how long a live cluster runs,
and ``observe`` is one bisect plus a few additions. Percentiles are estimated by linear
interpolation inside the covering bucket (exact min/max are tracked
separately, so the estimate is always clamped to the observed range).

Buckets are upper bounds in Prometheus ``le`` (less-or-equal) convention,
with an implicit ``+Inf`` overflow bucket; :meth:`Histogram.snapshot`
returns cumulative bucket counts ready for a Prometheus text exposition or
a JSON dump.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterable, Sequence

# Spans 25us local RPCs to multi-second WAN stalls — the latency range the
# live transport and the throughput model both produce.
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = (
    25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
    1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3,
    250e-3, 500e-3, 1.0, 2.5,
)


class Histogram:
    """A fixed-bucket histogram with O(1) memory and O(log buckets) observe.

    Args:
        name: metric name (by convention a dotted path ending in the unit,
            e.g. ``"rpc.rtt_s"``).
        buckets: strictly increasing upper bounds (``le`` semantics); an
            ``+Inf`` overflow bucket is always appended implicitly.
    """

    __slots__ = ("name", "bounds", "counts", "_count", "_sum", "_min", "_max")

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        if any(hi <= lo for lo, hi in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} bounds must be strictly increasing, got {bounds!r}"
            )
        if any(math.isnan(b) or math.isinf(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} bounds must be finite (the +Inf bucket is implicit)"
            )
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is the +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- recording ------------------------------------------------------- #

    def observe(self, value: float) -> None:
        if math.isnan(value):
            raise ValueError(f"histogram {self.name!r} observed NaN")
        v = float(value)
        self.counts[bisect_left(self.bounds, v)] += 1
        self._count += 1
        self._sum += v
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v

    def observe_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.observe(v)

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram (with identical bounds) into this one —
        how per-agent histograms roll up into one ring-wide series."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge {other.name!r} into {self.name!r}: bucket bounds differ"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- reading --------------------------------------------------------- #

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        if not self._count:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return self._sum / self._count

    @property
    def minimum(self) -> float:
        if not self._count:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return self._min

    @property
    def maximum(self) -> float:
        if not self._count:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return self._max

    def percentile(self, q: float) -> float:
        """Estimated q-th percentile (q in [0, 100]).

        Linear interpolation inside the covering bucket; the first bucket's
        lower edge is the observed minimum and the overflow bucket's upper
        edge the observed maximum, so estimates never leave the observed
        range. Exact at q=0 and q=100.

        The overflow bucket interpolates by *sample rank* (the r-th of its
        c samples maps to ``lo + r/c * (max - lo)``) rather than by the
        continuous target position: a tail query that lands just inside the
        overflow bucket covers at least its first sample, so a p999 query
        against 999 fast samples and one multi-second straggler reports the
        straggler instead of collapsing to the last finite bucket bound.
        """
        if not self._count:
            raise ValueError(f"histogram {self.name!r} has no samples")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q!r}")
        if q == 0.0:
            return self._min
        if q == 100.0:
            return self._max
        target = (q / 100.0) * self._count
        cumulative = 0
        for i, c in enumerate(self.counts):
            if not c:
                continue
            if cumulative + c >= target:
                overflow = i == len(self.bounds)
                lo = self._min if i == 0 else self.bounds[i - 1]
                hi = self._max if overflow else self.bounds[i]
                lo = max(lo, self._min)
                hi = min(hi, self._max)
                if hi <= lo:
                    # Clamping degenerated the bucket to a point; in the
                    # overflow bucket the honest point is the observed max.
                    return hi if overflow else lo
                if overflow:
                    frac = math.ceil(target - cumulative) / c
                else:
                    frac = (target - cumulative) / c
                return lo + frac * (hi - lo)
            cumulative += c
        return self._max  # unreachable (target <= count), defensive

    def snapshot(self) -> dict:
        """Structured export: cumulative ``le`` buckets plus summary stats.

        The ``"type": "histogram"`` marker is what
        :class:`~repro.obs.hub.MetricsHub` and the Prometheus renderer key
        on to expand this entry into ``_bucket``/``_sum``/``_count`` series.
        """
        out: dict = {"type": "histogram", "count": self._count, "sum": self._sum}
        if self._count:
            out["min"] = self._min
            out["max"] = self._max
            out["mean"] = self.mean
            out["p50"] = self.percentile(50)
            out["p99"] = self.percentile(99)
            out["p999"] = self.percentile(99.9)
        cumulative = 0
        buckets: list[list] = []
        for i, bound in enumerate(self.bounds):
            cumulative += self.counts[i]
            buckets.append([bound, cumulative])
        buckets.append(["+Inf", cumulative + self.counts[-1]])
        out["buckets"] = buckets
        return out

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self._count})"
