"""Tests for repro.sim.metrics."""

import pytest

from repro.sim.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    Summary,
    throughput_mb_per_s,
)


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0.0

    def test_inc_default(self):
        c = Counter("c")
        c.inc()
        assert c.value == 1.0

    def test_inc_amount(self):
        c = Counter("c")
        c.inc(2.5)
        c.inc(0.5)
        assert c.value == 3.0

    def test_negative_inc_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1.0)

    def test_reset(self):
        c = Counter("c")
        c.inc(5)
        c.reset()
        assert c.value == 0.0


class TestGauge:
    def test_initial_value(self):
        assert Gauge("g", initial=3.0).value == 3.0

    def test_set(self):
        g = Gauge("g")
        g.set(-2.5)
        assert g.value == -2.5

    def test_add_can_go_negative(self):
        g = Gauge("g", initial=1.0)
        g.add(-4.0)
        assert g.value == -3.0


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


class TestMetricsRegistry:
    def test_counter_reuse_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_gauge_reuse_by_name(self):
        reg = MetricsRegistry()
        assert reg.gauge("x") is reg.gauge("x")

    def test_summary_reuse_by_name(self):
        reg = MetricsRegistry()
        assert reg.summary("x") is reg.summary("x")

    def test_snapshot_includes_all_kinds(self):
        reg = MetricsRegistry()
        reg.counter("chunks").inc(3)
        reg.gauge("depth").set(2.0)
        reg.summary("latency").observe(0.5)
        snap = reg.snapshot()
        assert snap["counter.chunks"] == 3.0
        assert snap["gauge.depth"] == 2.0
        assert snap["summary.latency.mean"] == 0.5
        assert snap["summary.latency.count"] == 1.0

    def test_snapshot_skips_empty_summary(self):
        reg = MetricsRegistry()
        reg.summary("never")
        assert "summary.never.mean" not in reg.snapshot()


class TestThroughput:
    def test_basic(self):
        assert throughput_mb_per_s(2e6, 2.0) == pytest.approx(1.0)

    def test_zero_elapsed_is_zero_throughput(self):
        # Convention: coarse clocks on tiny benches can measure 0 elapsed;
        # that means "no measurable throughput", not a crash.
        assert throughput_mb_per_s(1e6, 0.0) == 0.0

    def test_negative_elapsed_rejected(self):
        with pytest.raises(ValueError):
            throughput_mb_per_s(1e6, -0.5)


class TestExportCacheStats:
    def _stats(self):
        from repro.dedup.cache import CacheStats

        stats = CacheStats()
        stats.hits = 6
        stats.misses = 2
        stats.admissions = 2
        stats.evictions = 1
        return stats

    def test_exports_under_canonical_names(self):
        from repro.sim.metrics import export_cache_stats

        registry = MetricsRegistry()
        exported = export_cache_stats(registry, self._stats())
        assert exported["cache.hits"] == 6.0
        assert exported["cache.hit_rate"] == pytest.approx(0.75)
        assert registry.counters["cache.hits"].value == 6.0
        assert registry.counters["cache.misses"].value == 2.0
        assert registry.gauges["cache.hit_rate"].value == pytest.approx(0.75)
        assert "cache.hit_rate" not in registry.counters  # a ratio, not a count

    def test_prefix_namespaces_multi_cache_components(self):
        from repro.sim.metrics import export_cache_stats

        registry = MetricsRegistry()
        export_cache_stats(registry, self._stats(), prefix="edge-3.")
        assert registry.counters["edge-3.cache.hits"].value == 6.0
        assert "cache.hits" not in registry.counters

    def test_reexport_overwrites_instead_of_accumulating(self):
        from repro.sim.metrics import export_cache_stats

        registry = MetricsRegistry()
        stats = self._stats()
        export_cache_stats(registry, stats)
        stats.hits += 4
        export_cache_stats(registry, stats)
        assert registry.counters["cache.hits"].value == 10.0

    def test_two_caches_without_prefixes_collide(self):
        """The clobber bug this PR fixes: a second cache exporting onto the
        same names used to silently overwrite the first — now it raises."""
        from repro.sim.metrics import export_cache_stats

        registry = MetricsRegistry()
        export_cache_stats(registry, self._stats())
        with pytest.raises(ValueError, match="distinct prefix"):
            export_cache_stats(registry, self._stats())  # a different object

    def test_collision_check_leaves_registry_untouched(self):
        from repro.sim.metrics import export_cache_stats

        registry = MetricsRegistry()
        first = self._stats()
        export_cache_stats(registry, first)
        before = registry.snapshot()
        with pytest.raises(ValueError):
            export_cache_stats(registry, self._stats())
        assert registry.snapshot() == before

    def test_two_caches_with_distinct_prefixes_coexist(self):
        from repro.sim.metrics import export_cache_stats

        registry = MetricsRegistry()
        export_cache_stats(registry, self._stats(), prefix="edge-0.")
        other = self._stats()
        other.hits = 1
        export_cache_stats(registry, other, prefix="edge-1.")
        assert registry.counters["edge-0.cache.hits"].value == 6.0
        assert registry.counters["edge-1.cache.hits"].value == 1.0

    def test_live_and_simulated_runs_share_metric_names(self):
        """The contract the satellite asks for: the same `CacheStats` mounted
        as ``cache`` on a hub (what live runs export) and the registry
        export (what simulations collect) agree on names and values."""
        from repro.obs import MetricsHub, series
        from repro.sim.metrics import export_cache_stats

        registry = MetricsRegistry()
        stats = self._stats()
        hub = MetricsHub()
        hub.register("cache", lambda: {**series(stats), "hit_rate": stats.hit_rate})
        assert export_cache_stats(registry, stats) == hub.collect()
