"""Tests for the discrete-event throughput simulation and its agreement
with the analytic harness."""

import pytest

from repro.analysis.workloads import build_workloads
from repro.network.topology import build_testbed
from repro.system.config import EFDedupConfig
from repro.system.des_throughput import run_edge_rings_des
from repro.system.throughput import run_edge_rings


def setup(n_nodes=6, files_per_node=1, **config_overrides):
    topology = build_testbed(n_nodes=n_nodes, n_edge_clouds=min(3, n_nodes))
    bundle = build_workloads(topology, files_per_node=files_per_node, n_groups=3)
    params = dict(chunk_size=4096, replication_factor=2, lookup_batch=80, hash_mb_per_s=25.0)
    params.update(config_overrides)
    config = EFDedupConfig(**params)
    ids = topology.node_ids
    partition = [ids[i : i + 3] for i in range(0, len(ids), 3)]
    return topology, bundle, config, partition


class TestDESBasics:
    def test_deterministic(self):
        topology, bundle, config, partition = setup()
        a = run_edge_rings_des(topology, partition, bundle.workloads, config)
        b = run_edge_rings_des(topology, partition, bundle.workloads, config)
        assert a.makespan_s == b.makespan_s
        assert a.extras["events_executed"] == b.extras["events_executed"]

    def test_byte_accounting_matches_analytic(self):
        """Same data through both harnesses: identical dedup outcome."""
        topology, bundle, config, partition = setup()
        des = run_edge_rings_des(topology, partition, bundle.workloads, config)
        analytic = run_edge_rings(topology, partition, bundle.workloads, config)
        assert des.dedup_stats.raw_bytes == analytic.dedup_stats.raw_bytes
        assert des.dedup_stats.raw_chunks == analytic.dedup_stats.raw_chunks
        # Unique counts may differ by interleaving order but only slightly.
        assert des.dedup_stats.unique_chunks == pytest.approx(
            analytic.dedup_stats.unique_chunks, rel=0.05
        )

    @pytest.mark.parametrize("algo", ["fixed", "gear", "fastcdc", "ae", "ram"])
    def test_both_clocks_run_the_agents_chunker(self, algo):
        """The cross-check is of the clock, not of the chunker: the DES cuts
        the data exactly as the analytic run (and the agents) do."""
        topology, bundle, config, partition = setup(n_nodes=4, chunking_algo=algo)
        des = run_edge_rings_des(topology, partition, bundle.workloads, config)
        analytic = run_edge_rings(topology, partition, bundle.workloads, config)
        assert des.dedup_stats.raw_chunks == analytic.dedup_stats.raw_chunks
        assert des.dedup_stats.raw_bytes == analytic.dedup_stats.raw_bytes
        for nid, timing in analytic.per_node.items():
            assert des.per_node[nid].chunks == timing.chunks

    @pytest.mark.parametrize("run", [run_edge_rings, run_edge_rings_des])
    def test_overlapping_partition_rejected_by_both(self, run):
        topology, bundle, config, _ = setup()
        ids = topology.node_ids
        with pytest.raises(ValueError, match="more than one ring"):
            run(topology, [ids[:3], ids[2:]], bundle.workloads, config)

    def test_all_nodes_finish(self):
        topology, bundle, config, partition = setup()
        des = run_edge_rings_des(topology, partition, bundle.workloads, config)
        for result in des.per_node.values():
            assert result.completion_s > 0
            assert result.chunks > 0

    def test_missing_ring_rejected(self):
        topology, bundle, config, _ = setup()
        with pytest.raises(ValueError, match="no ring"):
            run_edge_rings_des(topology, [["edge-0"]], bundle.workloads, config)

    def test_events_scale_with_chunks(self):
        topology, bundle, config, partition = setup()
        des = run_edge_rings_des(topology, partition, bundle.workloads, config)
        total_chunks = sum(r.chunks for r in des.per_node.values())
        # At least one lookup-completion event per chunk (duplicates chain
        # synchronously; unique chunks add upload polls on top).
        assert des.extras["events_executed"] >= total_chunks


class TestBatchedRoundTrips:
    """Per-round-trip accounting: lookups cross the network at most once per
    batch of ``lookup_batch`` fingerprints, never once per key."""

    @pytest.mark.parametrize("lookup_batch", [1, 16, 80])
    def test_des_round_trips_bounded_per_node(self, lookup_batch):
        import math

        topology, bundle, config, partition = setup(
            files_per_node=2, lookup_batch=lookup_batch
        )
        des = run_edge_rings_des(topology, partition, bundle.workloads, config)
        for result in des.per_node.values():
            assert result.round_trips <= math.ceil(result.chunks / lookup_batch)

    @pytest.mark.parametrize("lookup_batch", [1, 16, 80])
    def test_analytic_round_trips_bounded_per_node(self, lookup_batch):
        import math

        topology, bundle, config, partition = setup(
            files_per_node=2, lookup_batch=lookup_batch
        )
        report = run_edge_rings(topology, partition, bundle.workloads, config)
        for timing in report.per_node.values():
            assert timing.round_trips <= math.ceil(timing.chunks / lookup_batch)

    def test_batching_reduces_lookup_latency(self):
        """Raising the batch depth must not slow a node's lookup pipeline —
        the point of the optimization."""
        topology, bundle, config1, partition = setup(files_per_node=2, lookup_batch=1)
        _, _, config80, _ = setup(files_per_node=2, lookup_batch=80)
        serial = run_edge_rings(topology, partition, bundle.workloads, config1)
        batched = run_edge_rings(topology, partition, bundle.workloads, config80)
        for nid in serial.per_node:
            assert batched.per_node[nid].lookup_s <= serial.per_node[nid].lookup_s + 1e-12
        assert batched.network_cost_s <= serial.network_cost_s + 1e-12


class TestAgreementWithAnalytic:
    def test_uncontended_regime_agrees(self):
        """With few nodes and high dedup the uplink never saturates; DES and
        analytic makespans agree within a modest tolerance."""
        topology, bundle, config, partition = setup(n_nodes=6, files_per_node=1)
        des = run_edge_rings_des(topology, partition, bundle.workloads, config)
        analytic = run_edge_rings(topology, partition, bundle.workloads, config)
        assert des.makespan_s == pytest.approx(analytic.makespan_s, rel=0.25)

    def test_des_never_faster_than_serialization_bound(self):
        """DES makespan is at least the uplink serialization of the unique
        bytes — a hard physical lower bound the analytic model can undercut
        when uploads overlap."""
        topology, bundle, config, partition = setup(n_nodes=6, files_per_node=2)
        des = run_edge_rings_des(topology, partition, bundle.workloads, config)
        serialization = des.wan_bytes / topology.wan_bandwidth_bytes_per_s
        assert des.makespan_s >= serialization - 1e-9

    def test_contention_slows_des_relative_to_analytic(self):
        """Shrink the uplink 100×: the analytic model (fixed upload latency)
        barely notices, the DES queues — DES makespan must exceed it."""
        topology, bundle, config, partition = setup(n_nodes=6, files_per_node=2)
        topology.wan_bandwidth_bytes_per_s = topology.wan_bandwidth_bytes_per_s / 100.0
        des = run_edge_rings_des(topology, partition, bundle.workloads, config)
        analytic = run_edge_rings(topology, partition, bundle.workloads, config)
        assert des.makespan_s > analytic.per_node[
            max(analytic.per_node, key=lambda n: analytic.per_node[n].pipeline_s)
        ].pipeline_s

    def test_ordering_conclusions_stable(self):
        """The figure-level conclusion (bigger rings dedupe more, upload
        less) holds under the DES too."""
        topology, bundle, config, _ = setup(n_nodes=6, files_per_node=1)
        ids = topology.node_ids
        singletons = [[nid] for nid in ids]
        one_ring = [ids]
        des_small = run_edge_rings_des(topology, singletons, bundle.workloads, config)
        des_large = run_edge_rings_des(topology, one_ring, bundle.workloads, config)
        assert des_large.wan_bytes < des_small.wan_bytes
        assert des_large.dedup_stats.dedup_ratio > des_small.dedup_stats.dedup_ratio
