"""Metrics primitives for simulations and experiments.

Provides counters, gauges, and streaming summaries (mean/percentiles) that
experiment drivers use to report throughput, latency, and cost series. All
types are plain in-memory objects — there is no global registry, so tests can
instantiate them freely without cross-talk.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Iterable

from repro.obs.hub import series


class Counter:
    """A monotonically increasing counter (e.g. chunks processed, bytes sent)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount!r})")
        self._value += amount

    def reset(self) -> None:
        self._value = 0.0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value!r})"


class Gauge:
    """A value that can move up and down (e.g. queue depth, stored bytes)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str, initial: float = 0.0) -> None:
        self.name = name
        self._value = float(initial)

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = float(value)

    def add(self, delta: float) -> None:
        self._value += delta

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self._value!r})"


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


@dataclass
class MetricsRegistry:
    """A named bundle of metrics owned by one simulation component.

    Components create their own registry; experiment drivers collect them at
    the end of a run. Creating a metric with an existing name returns the
    existing instance so call sites don't need to thread references around.
    """

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    summaries: dict[str, Summary] = field(default_factory=dict)
    # Which source object last exported to each metric name (see
    # export_cache_stats): re-exporting the same source overwrites, a
    # *different* source hitting the same name is a collision.
    export_sources: dict[str, object] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        return self.gauges[name]

    def summary(self, name: str) -> Summary:
        if name not in self.summaries:
            self.summaries[name] = Summary(name)
        return self.summaries[name]

    def snapshot(self) -> dict[str, float]:
        """Flat dict of counter/gauge values and summary means (if nonempty)."""
        out: dict[str, float] = {}
        for name, c in self.counters.items():
            out[f"counter.{name}"] = c.value
        for name, g in self.gauges.items():
            out[f"gauge.{name}"] = g.value
        for name, s in self.summaries.items():
            if s.count:
                out[f"summary.{name}.mean"] = s.mean
                out[f"summary.{name}.count"] = float(s.count)
        return out


def export_cache_stats(registry: MetricsRegistry, stats, prefix: str = "") -> dict[str, float]:
    """Mount a :class:`~repro.dedup.cache.CacheStats` on a registry as
    ``cache.*``: its fields (via :func:`repro.obs.series`) plus ``hit_rate``.

    Live rings mount the same object under the same ``cache`` name on their
    :class:`~repro.obs.MetricsHub` and simulated experiment drivers collect
    ``MetricsRegistry.snapshot()`` — routing the cache counters through
    here makes both report the *same names* for the same quantities, so
    dashboards and assertions don't fork per mode.

    Counts land in counters (set to the field's value), the hit rate in a
    gauge. ``prefix`` namespaces multi-cache components
    (e.g. ``"edge-3."`` → ``edge-3.cache.hits``). Returns the exported
    name → value mapping.

    Re-exporting the *same* stats object refreshes its values in place, but
    exporting a *different* stats object onto names already claimed by
    another raises ``ValueError`` — previously the reset-then-inc write
    silently clobbered whichever cache exported first when two caches shared
    a registry without distinct prefixes.
    """
    exported: dict[str, float] = {}
    bare = {**series(stats), "hit_rate": stats.hit_rate}
    snapshot = {f"cache.{name}": value for name, value in bare.items()}
    for name in snapshot:
        full = f"{prefix}{name}"
        owner = registry.export_sources.get(full)
        if owner is not None and owner is not stats:
            raise ValueError(
                f"metric {full!r} was already exported by a different cache; "
                "pass a distinct prefix= to namespace each cache"
            )
    for name, value in snapshot.items():
        full = f"{prefix}{name}"
        registry.export_sources[full] = stats
        if name.endswith("hit_rate"):
            registry.gauge(full).set(value)
        else:
            counter = registry.counter(full)
            counter.reset()
            counter.inc(value)
        exported[full] = value
    return exported


def throughput_mb_per_s(total_bytes: float, elapsed_seconds: float) -> float:
    """Throughput in MB/s (MB = 1e6 bytes, matching the paper's MB/s units).

    Convention: ``elapsed_seconds == 0`` returns 0.0 — coarse clocks on tiny
    benches legitimately measure zero elapsed time, and "no measurable
    throughput" should not crash the harness. Negative elapsed time is still
    a caller bug and raises.
    """
    if elapsed_seconds < 0:
        raise ValueError(f"elapsed time cannot be negative, got {elapsed_seconds!r}")
    if elapsed_seconds == 0:
        return 0.0
    return total_bytes / 1e6 / elapsed_seconds

