"""The throughput simulation's latency summary.

``ThroughputReport.lookup_latency`` is an :class:`~repro.obs.histogram.Histogram`
(the one latency summary); these cases pin the contract the report's
``lookup_p50_us`` / ``lookup_p99_us`` rely on: exact count, sum and
extremes, percentiles in [0, 100] that never leave the observed range, and
memory bounded by the buckets however many lookups a run observes.
"""

import pytest

from repro.obs.histogram import Histogram
from repro.system.throughput import ThroughputReport


def summary() -> Histogram:
    return ThroughputReport("sim").lookup_latency


class TestSummary:
    def test_count_and_mean(self):
        s = summary()
        s.observe_many([1.0, 2.0, 3.0])
        assert s.count == 3
        assert s.mean == pytest.approx(2.0)

    def test_min_max(self):
        s = summary()
        s.observe_many([5.0, 1e-3, 3.0])
        assert s.minimum == 1e-3
        assert s.maximum == 5.0

    def test_total(self):
        s = summary()
        s.observe_many([1.0, 4.0])
        assert s.total == 5.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            summary().observe(float("nan"))

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError, match="no samples"):
            _ = summary().mean

    def test_percentile_median(self):
        # One sample on each of five bucket bounds: rank 2.5 of 5 lies
        # halfway into the middle sample's (2.5 ms, 5 ms] bucket.
        s = summary()
        s.observe_many([1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3])
        assert s.percentile(50) == pytest.approx(3.75e-3)

    def test_percentile_endpoints(self):
        s = summary()
        s.observe_many([10e-3, 20e-3, 30e-3])
        assert s.percentile(0) == 10e-3
        assert s.percentile(100) == 30e-3

    def test_percentile_interpolates(self):
        # Both samples in the (25 ms, 50 ms] bucket, clamped to the
        # observed [30 ms, 40 ms]: the median lies strictly between them.
        s = summary()
        s.observe_many([30e-3, 40e-3])
        assert 30e-3 < s.percentile(50) < 40e-3

    def test_percentile_single_sample(self):
        s = summary()
        s.observe(7e-3)
        assert s.percentile(37) == 7e-3

    def test_percentile_out_of_range(self):
        s = summary()
        s.observe(1.0)
        with pytest.raises(ValueError):
            s.percentile(101)

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            summary().percentile(50)

    def test_reset(self):
        s = summary()
        s.observe(1.0)
        s.reset()
        assert s.count == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Histogram("lookup_latency_s", buckets=())

    def test_reservoir_bounds_memory(self):
        s = summary()
        s.observe_many(i * 1e-4 for i in range(10_000))
        assert len(s.counts) == len(s.bounds) + 1
        # Exact stats are tracked outside the buckets.
        assert s.count == 10_000
        assert s.total == pytest.approx(sum(range(10_000)) * 1e-4)
        assert s.minimum == 0.0
        assert s.maximum == pytest.approx(0.9999)

    def test_endpoints_exact_beyond_capacity(self):
        s = summary()
        s.observe_many(i * 1e-3 for i in range(1000))
        assert s.percentile(0) == 0.0
        assert s.percentile(100) == 999 * 1e-3

    def test_reservoir_percentile_accuracy(self):
        # 50k uniform samples over [0, 1) s: bucket interpolation keeps
        # the median and p90 close to the true ones.
        s = summary()
        s.observe_many((i % 1000) / 1000.0 for i in range(50_000))
        assert s.percentile(50) == pytest.approx(0.5, abs=0.05)
        assert s.percentile(90) == pytest.approx(0.9, abs=0.05)

    def test_reservoir_is_deterministic_per_name(self):
        a, b = summary(), summary()
        for s in (a, b):
            s.observe_many(i * 1e-4 for i in range(5000))
        assert a.snapshot() == b.snapshot()
        assert a.percentile(50) == b.percentile(50)

    def test_percentile_clamped_to_observed_range(self):
        s = summary()
        s.observe_many([1e-3, 2e-3, 3e-3, 4e-3, 100.0, 1e-6])
        for q in (1, 25, 50, 75, 99):
            assert 1e-6 <= s.percentile(q) <= 100.0

    def test_snapshot_empty(self):
        snap = summary().snapshot()
        assert snap["count"] == 0 and snap["sum"] == 0.0
        assert "p50" not in snap

    def test_snapshot_nonempty(self):
        s = summary()
        s.observe_many([1.0, 3.0])
        snap = s.snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == 4.0
        assert snap["mean"] == 2.0
        assert snap["min"] == 1.0 and snap["max"] == 3.0
        assert "p50" in snap and "p99" in snap
