"""Tests for the EFDedupCluster facade."""

import pytest

from repro.analysis.workloads import build_workloads, make_problem
from repro.core.partitioning import SingletonPartitioner, SmartPartitioner
from repro.network.topology import build_testbed
from repro.system.cluster import DurableEFDedupCluster, EFDedupCluster
from repro.system.config import EFDedupConfig


def make_cluster(n_nodes=6):
    topology = build_testbed(n_nodes=n_nodes, n_edge_clouds=3)
    bundle = build_workloads(topology, files_per_node=1, n_groups=3)
    problem = make_problem(topology, bundle, chunk_size=4096, alpha=0.1)
    config = EFDedupConfig(chunk_size=4096)
    return EFDedupCluster(topology, problem, config=config), bundle


class TestPlanning:
    def test_size_mismatch_rejected(self):
        topology = build_testbed(n_nodes=6, n_edge_clouds=3)
        bundle = build_workloads(build_testbed(n_nodes=4, n_edge_clouds=2), files_per_node=1)
        problem = make_problem(
            build_testbed(n_nodes=4, n_edge_clouds=2), bundle, chunk_size=4096
        )
        with pytest.raises(ValueError, match="sources"):
            EFDedupCluster(topology, problem)

    def test_plan_returns_partition(self):
        cluster, _ = make_cluster()
        partition = cluster.plan(SmartPartitioner(3))
        assert sum(len(r) for r in partition) == 6

    def test_planned_cost_requires_plan(self):
        cluster, _ = make_cluster()
        with pytest.raises(RuntimeError):
            cluster.planned_cost()

    def test_planned_cost_breakdown(self):
        cluster, _ = make_cluster()
        cluster.plan(SmartPartitioner(3))
        breakdown = cluster.planned_cost()
        assert breakdown["aggregate"] == pytest.approx(
            breakdown["storage"] + cluster.problem.alpha * breakdown["network"]
        )

    def test_node_rings_use_topology_ids(self):
        cluster, _ = make_cluster()
        cluster.plan(SmartPartitioner(2))
        for ring in cluster.node_rings():
            for nid in ring:
                assert nid.startswith("edge-")


class TestDeployment:
    def test_deploy_requires_plan(self):
        cluster, _ = make_cluster()
        with pytest.raises(RuntimeError):
            cluster.deploy()

    def test_deploy_creates_rings(self):
        cluster, _ = make_cluster()
        cluster.plan(SmartPartitioner(3))
        cluster.deploy()
        assert len(cluster.rings) == len(cluster.node_rings())
        assert all(ring.store is not None for ring in cluster.rings)

    def test_ring_for_unknown_node(self):
        cluster, _ = make_cluster()
        cluster.plan(SingletonPartitioner())
        cluster.deploy()
        with pytest.raises(KeyError):
            cluster.ring_for("ghost")


class TestIngestionAndReport:
    def test_end_to_end(self):
        cluster, bundle = make_cluster()
        cluster.plan(SmartPartitioner(3))
        cluster.deploy()
        for nid, files in bundle.workloads.items():
            for data in files:
                cluster.ingest(nid, data)
        report = cluster.report()
        assert report["dedup_ratio"] > 1.0
        assert report["wan_mb"] <= report["raw_mb"]
        assert report["cloud_stored_mb"] <= report["wan_mb"] + 1e-9

    def test_shared_cloud_across_rings(self):
        """Two singleton rings uploading the same data: the cloud stores one
        copy but both uploads cross the WAN."""
        cluster, _ = make_cluster()
        cluster.plan(SingletonPartitioner())
        cluster.deploy()
        payload = bytes(4096)
        cluster.ingest("edge-0", payload)
        cluster.ingest("edge-1", payload)
        assert cluster.cloud.stored_chunks == 1
        assert cluster.cloud.received_chunks == 2

    def test_combined_stats_merges_rings(self):
        cluster, _ = make_cluster()
        cluster.plan(SingletonPartitioner())
        cluster.deploy()
        cluster.ingest("edge-0", bytes(8192))
        cluster.ingest("edge-1", bytes(4096))
        stats = cluster.combined_stats()
        assert stats.raw_chunks == 3


class TestRestorableCluster:
    def test_ingest_and_restore_across_rings(self):
        topology = build_testbed(n_nodes=6, n_edge_clouds=3)
        bundle = build_workloads(topology, files_per_node=1, n_groups=3)
        problem = make_problem(topology, bundle, chunk_size=4096)
        cluster = DurableEFDedupCluster(
            topology, problem, config=EFDedupConfig(chunk_size=4096)
        )
        cluster.plan(SmartPartitioner(3))
        cluster.deploy()
        try:
            originals = {}
            for nid, files in bundle.workloads.items():
                for i, data in enumerate(files):
                    fid = f"{nid}-file-{i}"
                    originals[fid] = data
                    cluster.ingest_file(nid, fid, data)
            for fid, data in originals.items():
                assert cluster.restore_file(fid) == data
        finally:
            cluster.shutdown()

    def test_restore_unknown_file(self):
        from repro.dedup.recipes import RecipeError

        topology = build_testbed(n_nodes=4, n_edge_clouds=2)
        bundle = build_workloads(topology, files_per_node=1, n_groups=2)
        problem = make_problem(topology, bundle, chunk_size=4096)
        cluster = DurableEFDedupCluster(topology, problem)
        cluster.plan(SingletonPartitioner())
        cluster.deploy()
        try:
            with pytest.raises(RecipeError):
                cluster.restore_file("ghost")
        finally:
            cluster.shutdown()
