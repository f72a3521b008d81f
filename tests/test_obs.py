"""Tests for the observability layer: histograms, gc pauses, trace spans,
MetricsHub."""

import gc
import json

import pytest

from repro.obs.gcpause import GcPauses
from repro.obs.histogram import DEFAULT_LATENCY_BUCKETS_S, Histogram
from repro.obs.hub import SCHEMA, MetricsHub, prometheus_name, render_prometheus
from repro.obs.trace import NULL_TRACER, Tracer


class TestHistogram:
    def test_default_buckets_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS_S) == sorted(DEFAULT_LATENCY_BUCKETS_S)
        assert len(set(DEFAULT_LATENCY_BUCKETS_S)) == len(DEFAULT_LATENCY_BUCKETS_S)

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, float("inf")))

    def test_observe_places_in_le_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(1.0)  # le convention: lands in the le=1.0 bucket
        h.observe(1.5)
        h.observe(5.0)  # overflow
        assert h.counts == [1, 1, 1]

    def test_exact_count_sum_min_max(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe_many([0.5, 3.0, 2.0])
        assert h.count == 3
        assert h.total == pytest.approx(5.5)
        assert h.minimum == 0.5
        assert h.maximum == 3.0
        assert h.mean == pytest.approx(5.5 / 3)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            Histogram("h").observe(float("nan"))

    def test_empty_reads_raise(self):
        h = Histogram("h")
        for read in (lambda: h.mean, lambda: h.minimum, lambda: h.percentile(50)):
            with pytest.raises(ValueError, match="no samples"):
                read()

    def test_percentile_endpoints_exact(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        h.observe_many([0.3, 0.7, 4.0])
        assert h.percentile(0) == 0.3
        assert h.percentile(100) == 4.0

    def test_percentile_out_of_range(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(-1)
        with pytest.raises(ValueError):
            h.percentile(100.5)

    def test_percentile_stays_in_observed_range(self):
        h = Histogram("h", buckets=(1.0, 100.0))
        h.observe_many([2.0, 3.0, 4.0])  # all inside the (1, 100] bucket
        for q in (10, 50, 90, 99):
            assert 2.0 <= h.percentile(q) <= 4.0

    def test_percentile_accuracy_on_uniform_data(self):
        h = Histogram("h", buckets=tuple(i / 100 for i in range(1, 101)))
        h.observe_many((i + 0.5) / 1000 for i in range(1000))  # uniform on (0, 1)
        assert h.percentile(50) == pytest.approx(0.5, abs=0.02)
        assert h.percentile(90) == pytest.approx(0.9, abs=0.02)

    def test_overflow_tail_interpolates_toward_max(self):
        # Regression: 999 fast samples + 1 straggler in the overflow
        # bucket. p999 targets exactly that straggler, so it must report
        # the observed max — the old lower-edge interpolation collapsed
        # it to ~the last finite bound (2.0) and hid the tail entirely.
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe_many([0.5] * 999)
        h.observe(50.0)
        assert h.percentile(99.9) == pytest.approx(50.0)
        # Queries below the straggler's rank stay with the fast mass.
        assert h.percentile(99) == pytest.approx(0.5, abs=1.0)

    def test_overflow_tail_rank_spread(self):
        # Several overflow samples: lower tail quantiles interpolate
        # between the last bound and the max instead of pinning to either.
        h = Histogram("h", buckets=(1.0,))
        h.observe_many([0.5] * 90)
        h.observe_many([7.0] * 10)  # overflow bucket spans (1.0, 7.0]
        assert h.percentile(91) == pytest.approx(1.0 + 6.0 / 10, abs=1e-9)
        assert h.percentile(100) == 7.0

    def test_p999_in_snapshot(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe_many([0.5] * 999 + [50.0])
        snap = h.snapshot()
        assert snap["p999"] == pytest.approx(50.0)
        assert set(snap) >= {"p50", "p99", "p999"}

    def test_merge_from(self):
        a = Histogram("a", buckets=(1.0, 2.0))
        b = Histogram("b", buckets=(1.0, 2.0))
        a.observe_many([0.5, 1.5])
        b.observe_many([3.0])
        a.merge_from(b)
        assert a.count == 3
        assert a.counts == [1, 1, 1]
        assert a.maximum == 3.0
        assert a.total == pytest.approx(5.0)

    def test_merge_requires_identical_bounds(self):
        a = Histogram("a", buckets=(1.0,))
        b = Histogram("b", buckets=(2.0,))
        with pytest.raises(ValueError, match="bounds differ"):
            a.merge_from(b)

    def test_reset(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe_many([0.5, 5.0])
        h.reset()
        assert h.count == 0
        assert h.counts == [0, 0]

    def test_snapshot_structure(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe_many([0.5, 1.5, 9.0])
        snap = h.snapshot()
        assert snap["type"] == "histogram"
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(11.0)
        assert snap["min"] == 0.5 and snap["max"] == 9.0
        # Cumulative le buckets ending with the implicit +Inf.
        assert snap["buckets"] == [[1.0, 1], [2.0, 2], ["+Inf", 3]]

    def test_empty_snapshot_omits_stats(self):
        snap = Histogram("h", buckets=(1.0,)).snapshot()
        assert snap["count"] == 0
        assert "p50" not in snap
        assert snap["buckets"] == [[1.0, 0], ["+Inf", 0]]

    def test_memory_is_bucket_bound(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe_many([0.5] * 10_000)
        assert len(h.counts) == 2  # no per-sample storage


class TestGcPauses:
    def test_a_full_collection_lands_in_generation_two(self):
        before = list(gc.callbacks)
        with GcPauses() as pauses:
            assert len(gc.callbacks) == len(before) + 1
            gc.collect(2)
        assert gc.callbacks == before
        assert pauses.by_generation[2].count >= 1
        assert pauses.max_pause_s == max(
            h.maximum for h in pauses.by_generation if h.count
        ) > 0.0

    def test_nothing_is_recorded_outside_the_block(self):
        pauses = GcPauses()
        gc.collect(2)
        with pauses:
            pass
        gc.collect(2)
        assert [h.count for h in pauses.by_generation] == [0, 0, 0]
        assert pauses.max_pause_s == 0.0


class TestTracer:
    def test_records_name_duration_and_attrs(self):
        tr = Tracer()
        with tr.span("work", node="edge-0", keys=3) as rec:
            rec.attrs["late"] = True
        (span,) = tr.spans()
        assert span.name == "work"
        assert span.node == "edge-0"
        assert span.attrs == {"keys": 3, "late": True}
        assert span.duration_s >= 0.0

    def test_nesting_parents_and_inherits(self):
        tr = Tracer()
        with tr.span("outer", node="n1") as outer:
            with tr.span("inner"):
                pass
        inner, recorded_outer = tr.spans()  # close order: inner first
        assert inner.name == "inner"
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert inner.node == "n1"  # inherited from the enclosing span

    def test_siblings_get_distinct_traces(self):
        tr = Tracer()
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
        a, b = tr.spans()
        assert a.parent_id is None and b.parent_id is None
        assert a.trace_id != b.trace_id

    def test_explicit_ids_link_across_hops(self):
        """The RPC correlation-id pattern: client span_id == server parent_id."""
        tr = Tracer()
        with tr.span("rpc.client.multi_get", span_id="corr-7"):
            pass
        with tr.span("rpc.server.multi_get", parent_id="corr-7"):
            pass
        client, server = tr.spans()
        assert client.span_id == "corr-7"
        assert server.parent_id == "corr-7"

    def test_bounded_buffer_counts_drops(self):
        tr = Tracer(max_spans=2)
        for i in range(5):
            with tr.span(f"s{i}"):
                pass
        assert len(tr.spans()) == 2
        assert tr.dropped == 3

    def test_name_prefix_filter(self):
        tr = Tracer()
        with tr.span("rpc.client.get"):
            pass
        with tr.span("store.put"):
            pass
        assert [s.name for s in tr.spans("rpc.")] == ["rpc.client.get"]

    def test_disabled_tracer_yields_none_and_records_nothing(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("ignored") as rec:
            assert rec is None
        assert NULL_TRACER.spans() == []

    def test_clear(self):
        tr = Tracer(max_spans=1)
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
        tr.clear()
        assert tr.spans() == [] and tr.dropped == 0

    def test_chrome_trace_structure(self, tmp_path):
        tr = Tracer()
        with tr.span("outer", node="edge-0"):
            with tr.span("inner", node="edge-1"):
                pass
        doc = tr.chrome_trace()
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in events} == {"outer", "inner"}
        assert {m["args"]["name"] for m in metas} == {"edge-0", "edge-1"}
        inner = next(e for e in events if e["name"] == "inner")
        outer = next(e for e in events if e["name"] == "outer")
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        assert inner["tid"] != outer["tid"]  # distinct node -> distinct thread
        path = tmp_path / "trace.json"
        assert tr.dump_chrome_trace(str(path)) == 2
        assert json.loads(path.read_text())["traceEvents"]


class TestMetricsHub:
    def test_register_rejects_bad_names(self):
        hub = MetricsHub()
        for bad in ("", "has space", "семь", "a\nb"):
            with pytest.raises(ValueError):
                hub.register(bad, {})

    def test_register_rejects_duplicate_name(self):
        hub = MetricsHub()
        hub.register("x", {"v": 1})
        with pytest.raises(ValueError, match="already registered"):
            hub.register("x", {"v": 2})

    def test_replace_swaps_source(self):
        hub = MetricsHub()
        hub.register("x", {"v": 1})
        hub.register("x", {"v": 2}, replace=True)
        assert hub.collect() == {"x.v": 2}

    def test_unregister(self):
        hub = MetricsHub()
        hub.register("x", {"v": 1})
        hub.unregister("x")
        assert hub.collect() == {}
        hub.unregister("x")  # idempotent

    def test_mapping_callable_and_snapshot_sources(self):
        class WithSnapshot:
            def snapshot(self):
                return {"n": 3.0}

        hub = MetricsHub()
        hub.register("static", {"a": 1.0})
        hub.register("lazy", lambda: {"b": 2.0})
        hub.register("obj", WithSnapshot())
        assert hub.collect() == {"static.a": 1.0, "lazy.b": 2.0, "obj.n": 3.0}

    def test_callable_reevaluated_per_collect(self):
        box = {"v": 1.0}
        hub = MetricsHub()
        hub.register("live", lambda: dict(box))
        assert hub.collect()["live.v"] == 1.0
        box["v"] = 2.0
        assert hub.collect()["live.v"] == 2.0

    def test_nested_mappings_flatten_to_dotted_names(self):
        hub = MetricsHub()
        hub.register("top", {"sub": {"leaf": 7.0}})
        assert hub.collect() == {"top.sub.leaf": 7.0}

    def test_histogram_stays_structured(self):
        h = Histogram("ignored.internal.name", buckets=(1.0,))
        h.observe(0.5)
        hub = MetricsHub()
        hub.register("rpc.rtt_s", h)
        out = hub.collect()
        assert out["rpc.rtt_s"]["type"] == "histogram"
        assert out["rpc.rtt_s"]["count"] == 1

    def test_histogram_snapshot_inside_mapping_stays_structured(self):
        h = Histogram("h", buckets=(1.0,))
        hub = MetricsHub()
        hub.register("comp", lambda: {"lat": h.snapshot()})
        assert hub.collect()["comp.lat"]["type"] == "histogram"

    def test_collision_names_both_owners(self):
        hub = MetricsHub()
        hub.register("a", {"x.y": 1.0})
        hub.register("a.x", {"y": 2.0})
        with pytest.raises(ValueError) as err:
            hub.collect()
        assert "'a'" in str(err.value) and "'a.x'" in str(err.value)

    def test_bad_source_type(self):
        hub = MetricsHub()
        hub.register("bad", 42)
        with pytest.raises(TypeError):
            hub.collect()

    def test_to_json_and_dump(self, tmp_path):
        hub = MetricsHub()
        hub.register("x", {"v": 1.0})
        doc = hub.to_json()
        assert doc["schema"] == SCHEMA
        assert doc["metrics"] == {"x.v": 1.0}
        path = tmp_path / "m.json"
        assert hub.dump_json(str(path)) == 1
        assert json.loads(path.read_text()) == doc


class TestPrometheusRendering:
    def test_name_sanitization(self):
        assert prometheus_name("ring-0.cache.hit_rate") == "ring_0_cache_hit_rate"
        assert prometheus_name("9lives") == "_9lives"

    def test_gauges(self):
        text = render_prometheus({"cache.hits": 6.0, "flag": True})
        assert "# TYPE cache_hits gauge\ncache_hits 6" in text
        assert "flag 1" in text

    def test_histogram_triplet(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe_many([0.5, 1.5, 9.0])
        text = render_prometheus({"rpc.rtt_s": h.snapshot()})
        assert "# TYPE rpc_rtt_s histogram" in text
        assert 'rpc_rtt_s_bucket{le="1.0"} 1' in text
        assert 'rpc_rtt_s_bucket{le="2.0"} 2' in text
        assert 'rpc_rtt_s_bucket{le="+Inf"} 3' in text
        assert "rpc_rtt_s_sum 11" in text
        assert "rpc_rtt_s_count 3" in text

    def test_non_numeric_leaves_skipped(self):
        text = render_prometheus({"label": "edge-0", "n": 1.0})
        assert "edge-0" not in text
        assert "n 1" in text

    def test_empty_render(self):
        assert render_prometheus({}) == ""


class TestRingHubIntegration:
    """The acceptance-criterion contract: in-process rings publish the same
    canonical metric names the live transport does (minus rpc.*)."""

    def _ring(self):
        from repro.system.cloud import CentralCloudStore
        from repro.system.config import EFDedupConfig
        from repro.system.ring import D2Ring

        return D2Ring(
            ring_id="ring-0",
            members=["edge-0", "edge-1"],
            cloud=CentralCloudStore(),
            config=EFDedupConfig(cache_capacity=64),
        )

    def test_canonical_names_present(self):
        ring = self._ring()
        ring.ingest("edge-0", b"x" * 4096)
        out = ring.metrics_hub().collect()
        for name in (
            "cache.hits",
            "cache.misses",
            "cache.hit_rate",
            "dedup.raw_chunks",
            "dedup.dedup_ratio",
            "kvstore.reads",
            "kvstore.writes",
            "lookups.local",
            "lookups.remote",
        ):
            assert name in out, f"missing {name}"
        assert out["engine.lookup_s"]["type"] == "histogram"
        assert out["kvstore.batch_s"]["type"] == "histogram"

    def test_tracer_requires_asyncio_transport(self):
        from repro.system.cloud import CentralCloudStore
        from repro.system.config import EFDedupConfig
        from repro.system.ring import D2Ring

        with pytest.raises(ValueError, match="asyncio"):
            D2Ring(
                ring_id="r",
                members=["a"],
                cloud=CentralCloudStore(),
                config=EFDedupConfig(),
                tracer=Tracer(),
            )

    def test_cluster_hub_namespaces_rings_and_cloud(self):
        from repro.analysis.workloads import build_workloads, make_problem
        from repro.core.partitioning import SmartPartitioner
        from repro.network.topology import build_testbed
        from repro.system.cluster import EFDedupCluster
        from repro.system.config import EFDedupConfig

        topo = build_testbed(n_nodes=4, n_edge_clouds=2)
        bundle = build_workloads(topo, files_per_node=1, n_groups=2)
        problem = make_problem(topo, bundle, chunk_size=4096, alpha=0.1)
        cluster = EFDedupCluster(
            topo, problem, config=EFDedupConfig(chunk_size=4096, cache_capacity=64)
        )
        cluster.plan(SmartPartitioner(2))
        cluster.deploy()
        cluster.ingest(topo.node_ids[0], b"y" * 8192)
        out = cluster.metrics_hub().collect()
        assert any(n.startswith("ring-0.cache.") for n in out)
        assert any(n.startswith("ring-1.dedup.") for n in out)
        assert "cloud.received_bytes" in out
