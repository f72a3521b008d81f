"""Tests for repro.sim.metrics."""

import pytest

from repro.sim.metrics import Summary


class TestSummary:
    def test_count_and_mean(self):
        s = Summary("s")
        s.observe_many([1.0, 2.0, 3.0])
        assert s.count == 3
        assert s.mean == pytest.approx(2.0)

    def test_min_max(self):
        s = Summary("s")
        s.observe_many([5.0, -1.0, 3.0])
        assert s.minimum == -1.0
        assert s.maximum == 5.0

    def test_total(self):
        s = Summary("s")
        s.observe_many([1.0, 4.0])
        assert s.total == 5.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Summary("s").observe(float("nan"))

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError, match="no samples"):
            _ = Summary("s").mean

    def test_percentile_median(self):
        s = Summary("s")
        s.observe_many([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.percentile(50) == pytest.approx(3.0)

    def test_percentile_endpoints(self):
        s = Summary("s")
        s.observe_many([10.0, 20.0, 30.0])
        assert s.percentile(0) == 10.0
        assert s.percentile(100) == 30.0

    def test_percentile_interpolates(self):
        s = Summary("s")
        s.observe_many([0.0, 10.0])
        assert s.percentile(50) == pytest.approx(5.0)

    def test_percentile_single_sample(self):
        s = Summary("s")
        s.observe(7.0)
        assert s.percentile(37) == 7.0

    def test_percentile_out_of_range(self):
        s = Summary("s")
        s.observe(1.0)
        with pytest.raises(ValueError):
            s.percentile(101)

    def test_percentile_empty_raises(self):
        with pytest.raises(ValueError):
            Summary("s").percentile(50)

    def test_reset(self):
        s = Summary("s")
        s.observe(1.0)
        s.reset()
        assert s.count == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Summary("s", capacity=0)

    def test_reservoir_bounds_memory(self):
        s = Summary("s", capacity=64)
        s.observe_many(float(i) for i in range(10_000))
        assert len(s._samples) <= 64
        # Exact stats are tracked outside the reservoir.
        assert s.count == 10_000
        assert s.total == pytest.approx(sum(range(10_000)))
        assert s.minimum == 0.0
        assert s.maximum == 9999.0

    def test_endpoints_exact_beyond_capacity(self):
        s = Summary("s", capacity=16)
        s.observe_many(float(i) for i in range(1000))
        assert s.percentile(0) == 0.0
        assert s.percentile(100) == 999.0

    def test_reservoir_percentile_accuracy(self):
        # 50k uniform samples through an 8k reservoir: the median estimate
        # must stay close to the true one (seeded RNG, so deterministic).
        s = Summary("s")
        s.observe_many((i % 1000) / 1000.0 for i in range(50_000))
        assert s.percentile(50) == pytest.approx(0.5, abs=0.05)
        assert s.percentile(90) == pytest.approx(0.9, abs=0.05)

    def test_reservoir_is_deterministic_per_name(self):
        a, b = Summary("same"), Summary("same")
        for s in (a, b):
            s.observe_many(float(i) for i in range(5000))
        assert a._samples == b._samples
        assert a.percentile(50) == b.percentile(50)

    def test_percentile_clamped_to_observed_range(self):
        s = Summary("s", capacity=4)
        s.observe_many([1.0, 2.0, 3.0, 4.0, 100.0, -100.0])
        for q in (1, 25, 50, 75, 99):
            assert -100.0 <= s.percentile(q) <= 100.0

    def test_snapshot_empty(self):
        assert Summary("s").snapshot() == {"count": 0.0, "sum": 0.0}

    def test_snapshot_nonempty(self):
        s = Summary("s")
        s.observe_many([1.0, 3.0])
        snap = s.snapshot()
        assert snap["count"] == 2.0
        assert snap["sum"] == 4.0
        assert snap["mean"] == 2.0
        assert snap["min"] == 1.0 and snap["max"] == 3.0
        assert "p50" in snap and "p99" in snap
