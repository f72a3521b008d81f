"""Tests for the throughput harness and deployment strategies."""

import pytest

from repro.analysis.workloads import build_workloads
from repro.network.topology import build_testbed
from repro.system.config import EFDedupConfig
from repro.system.strategies import Strategy, run_strategy
from repro.system.throughput import (
    run_cloud_assisted,
    run_cloud_only,
    run_edge_rings,
)


def small_setup(n_nodes=6, files_per_node=1):
    topology = build_testbed(n_nodes=n_nodes, n_edge_clouds=min(3, n_nodes))
    bundle = build_workloads(topology, files_per_node=files_per_node, n_groups=3)
    config = EFDedupConfig(
        chunk_size=4096, replication_factor=2, lookup_batch=80, hash_mb_per_s=25.0
    )
    return topology, bundle, config


def contiguous_partition(topology, size):
    ids = topology.node_ids
    return [ids[i : i + size] for i in range(0, len(ids), size)]


class TestRunEdgeRings:
    def test_accounting_consistency(self):
        topology, bundle, config = small_setup()
        report = run_edge_rings(topology, contiguous_partition(topology, 3), bundle.workloads, config)
        total_raw = sum(len(d) for files in bundle.workloads.values() for d in files)
        assert report.dedup_stats.raw_bytes == total_raw
        assert report.wan_bytes == report.dedup_stats.unique_bytes
        assert report.dedup_ratio >= 1.0

    def test_uploaded_bytes_sum_to_wan(self):
        topology, bundle, config = small_setup()
        report = run_edge_rings(topology, contiguous_partition(topology, 2), bundle.workloads, config)
        assert sum(t.uploaded_bytes for t in report.per_node.values()) == report.wan_bytes

    def test_per_node_chunk_counts(self):
        topology, bundle, config = small_setup()
        report = run_edge_rings(topology, contiguous_partition(topology, 3), bundle.workloads, config)
        for nid, timing in report.per_node.items():
            expected_chunks = sum(len(d) // 4096 for d in bundle.workloads[nid])
            assert timing.chunks == expected_chunks
            assert timing.local_lookups + timing.remote_lookups == expected_chunks

    def test_ring_of_gamma_has_no_remote_lookups(self):
        topology, bundle, config = small_setup()
        report = run_edge_rings(topology, contiguous_partition(topology, 2), bundle.workloads, config)
        assert all(t.remote_lookups == 0 for t in report.per_node.values())
        assert report.network_cost_s == 0.0

    def test_bigger_rings_have_remote_lookups(self):
        topology, bundle, config = small_setup()
        report = run_edge_rings(topology, contiguous_partition(topology, 6), bundle.workloads, config)
        total_remote = sum(t.remote_lookups for t in report.per_node.values())
        assert total_remote > 0
        assert report.network_cost_s > 0.0

    def test_bigger_rings_dedupe_more(self):
        topology, bundle, config = small_setup()
        small = run_edge_rings(topology, contiguous_partition(topology, 1), bundle.workloads, config)
        large = run_edge_rings(topology, contiguous_partition(topology, 6), bundle.workloads, config)
        assert large.dedup_ratio > small.dedup_ratio
        assert large.wan_bytes < small.wan_bytes

    def test_node_in_two_rings_rejected(self):
        topology, bundle, config = small_setup()
        bad = [["edge-0", "edge-1"], ["edge-1", "edge-2"]]
        with pytest.raises(ValueError, match="more than one"):
            run_edge_rings(topology, bad, bundle.workloads, config)

    def test_workload_without_ring_rejected(self):
        topology, bundle, config = small_setup()
        with pytest.raises(ValueError, match="no ring"):
            run_edge_rings(topology, [["edge-0"]], bundle.workloads, config)

    def test_extras_report_ring_count(self):
        topology, bundle, config = small_setup()
        report = run_edge_rings(topology, contiguous_partition(topology, 2), bundle.workloads, config)
        assert report.extras["n_rings"] == 3.0


class TestCloudBaselines:
    def test_cloud_assisted_all_lookups_remote(self):
        topology, bundle, config = small_setup()
        report = run_cloud_assisted(topology, bundle.workloads, config)
        assert all(t.local_lookups == 0 for t in report.per_node.values())
        assert report.network_cost_s > 0

    def test_cloud_assisted_global_index(self):
        """One cloud index sees all nodes: ratio >= any edge partition's."""
        topology, bundle, config = small_setup()
        assisted = run_cloud_assisted(topology, bundle.workloads, config)
        rings = run_edge_rings(topology, contiguous_partition(topology, 2), bundle.workloads, config)
        assert assisted.dedup_ratio >= rings.dedup_ratio - 1e-9

    def test_cloud_only_sends_raw_bytes(self):
        topology, bundle, config = small_setup()
        report = run_cloud_only(topology, bundle.workloads, config)
        total_raw = sum(len(d) for files in bundle.workloads.values() for d in files)
        assert report.wan_bytes == total_raw

    def test_cloud_only_dedups_on_arrival(self):
        topology, bundle, config = small_setup()
        report = run_cloud_only(topology, bundle.workloads, config)
        assert report.dedup_ratio > 1.0

    def test_cloud_only_and_assisted_same_ratio(self):
        """Both maintain one global index, so their ratios match exactly."""
        topology, bundle, config = small_setup()
        only = run_cloud_only(topology, bundle.workloads, config)
        assisted = run_cloud_assisted(topology, bundle.workloads, config)
        assert only.dedup_ratio == pytest.approx(assisted.dedup_ratio)

    def test_cloud_only_stream_rate_caps_completion(self):
        topology, bundle, config = small_setup()
        report = run_cloud_only(topology, bundle.workloads, config)
        stream_rate = min(
            topology.wan_bandwidth_bytes_per_s,
            config.tcp_window_bytes / topology.wan_rtt_s(),
        )
        for timing in report.per_node.values():
            assert timing.completion_s >= timing.raw_bytes / stream_rate - 1e-12


class TestPaperOrdering:
    def test_ef_dedup_beats_cloud_baselines(self):
        """The headline Fig. 5(a) ordering on a small instance.

        Two files per node so each node spans multiple lookup batches: with
        per-round-trip charging, a workload smaller than one batch is pure
        tail RTT and the cloud strategies collapse into a threshold case the
        testbed never ran.
        """
        topology, bundle, config = small_setup(n_nodes=8, files_per_node=2)
        ef = run_edge_rings(topology, contiguous_partition(topology, 4), bundle.workloads, config)
        assisted = run_cloud_assisted(topology, bundle.workloads, config)
        only = run_cloud_only(topology, bundle.workloads, config)
        assert ef.aggregate_throughput_mb_s > assisted.aggregate_throughput_mb_s
        assert assisted.aggregate_throughput_mb_s > only.aggregate_throughput_mb_s

    def test_wan_latency_hurts_assisted_more(self):
        topology, bundle, config = small_setup(n_nodes=6)
        ef_a = run_edge_rings(topology, contiguous_partition(topology, 3), bundle.workloads, config)
        assisted_a = run_cloud_assisted(topology, bundle.workloads, config)
        slow_wan = build_testbed(n_nodes=6, n_edge_clouds=3, wan_latency_s=0.1)
        ef_b = run_edge_rings(slow_wan, contiguous_partition(slow_wan, 3), bundle.workloads, config)
        assisted_b = run_cloud_assisted(slow_wan, bundle.workloads, config)
        lead_before = ef_a.aggregate_throughput_mb_s / assisted_a.aggregate_throughput_mb_s
        lead_after = ef_b.aggregate_throughput_mb_s / assisted_b.aggregate_throughput_mb_s
        assert lead_after > lead_before


class TestReportSummary:
    def test_summary_keys(self):
        topology, bundle, config = small_setup()
        report = run_cloud_only(topology, bundle.workloads, config)
        summary = report.summary()
        for key in (
            "aggregate_throughput_mb_s",
            "mean_node_throughput_mb_s",
            "dedup_ratio",
            "wan_mb",
            "makespan_s",
            "network_cost_s",
        ):
            assert key in summary

    def test_mean_node_throughput_positive(self):
        topology, bundle, config = small_setup()
        report = run_cloud_only(topology, bundle.workloads, config)
        assert report.mean_node_throughput_mb_s > 0


class TestStrategyDispatch:
    def test_ef_requires_partition(self):
        topology, bundle, config = small_setup()
        with pytest.raises(ValueError, match="partition"):
            run_strategy(Strategy.EF_DEDUP, topology, bundle.workloads, config=config)

    def test_cloud_rejects_partition(self):
        topology, bundle, config = small_setup()
        with pytest.raises(ValueError):
            run_strategy(
                Strategy.CLOUD_ONLY,
                topology,
                bundle.workloads,
                partition=[["edge-0"]],
                config=config,
            )

    @pytest.mark.parametrize(
        "strategy", [Strategy.EF_DEDUP, Strategy.CLOUD_ASSISTED, Strategy.CLOUD_ONLY]
    )
    def test_dispatch_runs(self, strategy):
        topology, bundle, config = small_setup()
        partition = contiguous_partition(topology, 3) if strategy is Strategy.EF_DEDUP else None
        report = run_strategy(strategy, topology, bundle.workloads, partition=partition, config=config)
        assert report.strategy == strategy.value


class TestLookupLatencySummary:
    def test_percentiles_reported(self):
        topology, bundle, config = small_setup()
        report = run_edge_rings(topology, contiguous_partition(topology, 3), bundle.workloads, config)
        summary = report.summary()
        assert "lookup_p50_us" in summary and "lookup_p99_us" in summary
        assert summary["lookup_p99_us"] >= summary["lookup_p50_us"]

    def test_assisted_lookups_slower_than_edge(self):
        topology, bundle, config = small_setup()
        ef = run_edge_rings(topology, contiguous_partition(topology, 3), bundle.workloads, config)
        assisted = run_cloud_assisted(topology, bundle.workloads, config)
        # Every assisted lookup pays the WAN RTT; edge p50 is far below it.
        assert assisted.lookup_latency.percentile(50) > ef.lookup_latency.percentile(50)
