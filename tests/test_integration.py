"""End-to-end integration tests: the full paper pipeline — estimate,
partition, deploy, ingest, measure — plus failure and consistency scenarios
that cross module boundaries."""

import pytest

from repro.analysis.workloads import build_workloads, make_problem
from repro.chunking.fixed import FixedSizeChunker
from repro.core.dedup_ratio import dedup_ratio as model_dedup_ratio
from repro.core.estimation import CharacteristicEstimator, observe_combinations
from repro.core.partitioning import (
    SingleRingPartitioner,
    SingletonPartitioner,
    SmartPartitioner,
)
from repro.datasets.accelerometer import AccelerometerSource
from repro.kvstore.consistency import ConsistencyLevel
from repro.network.topology import build_testbed
from repro.system.cluster import EFDedupCluster
from repro.system.config import EFDedupConfig
from repro.system.ring import D2Ring


class TestFullPipeline:
    """The paper's workflow end to end on a 6-node edge fleet."""

    def test_estimate_partition_deploy_ingest(self):
        topology = build_testbed(n_nodes=6, n_edge_clouds=3)
        bundle = build_workloads(topology, files_per_node=1, n_groups=3)

        # 1. Estimate a model from samples of two of the sources (Algorithm 1).
        samples = [
            [bundle.workloads["edge-0"][0]],
            [bundle.workloads["edge-1"][0]],
        ]
        observations = observe_combinations(samples, chunker=FixedSizeChunker(4096))
        estimator = CharacteristicEstimator(n_sources=2, n_pools=2, restarts=2, seed=0)
        fit = estimator.fit(observations)
        assert fit.mse < 1.0  # the fit is meaningful, not degenerate

        # 2. Partition with SMART using the (exact) surrogate model.
        problem = make_problem(topology, bundle, chunk_size=4096, alpha=0.1)
        cluster = EFDedupCluster(topology, problem, config=EFDedupConfig(chunk_size=4096))
        partition = cluster.plan(SmartPartitioner(3))
        assert sum(len(r) for r in partition) == 6

        # 3. Deploy and ingest everything.
        cluster.deploy()
        for nid, files in bundle.workloads.items():
            for data in files:
                cluster.ingest(nid, data)

        # 4. The measured outcome is coherent and beats no-collaboration.
        report = cluster.report()
        assert report["dedup_ratio"] > 1.0
        assert report["wan_mb"] < report["raw_mb"]

    def test_smart_plan_beats_singletons_on_wan_traffic(self):
        topology = build_testbed(n_nodes=6, n_edge_clouds=3)
        bundle = build_workloads(topology, files_per_node=1, n_groups=3)
        problem = make_problem(topology, bundle, chunk_size=4096, alpha=0.1)

        def wan_bytes(partitioner):
            cluster = EFDedupCluster(
                topology, problem, config=EFDedupConfig(chunk_size=4096)
            )
            cluster.plan(partitioner)
            cluster.deploy()
            for nid, files in bundle.workloads.items():
                for data in files:
                    cluster.ingest(nid, data)
            return cluster.cloud.received_bytes

        assert wan_bytes(SmartPartitioner(3)) < wan_bytes(SingletonPartitioner())

    def test_model_predicts_deployed_ratio(self):
        """Theorem 1 on the surrogate model matches what the deployed rings
        actually measure — analytics and system agree."""
        topology = build_testbed(n_nodes=6, n_edge_clouds=3)
        bundle = build_workloads(topology, files_per_node=2, n_groups=3)
        problem = make_problem(topology, bundle, chunk_size=4096, alpha=0.1)
        cluster = EFDedupCluster(topology, problem, config=EFDedupConfig(chunk_size=4096))
        cluster.plan(SingleRingPartitioner())
        cluster.deploy()
        for nid, files in bundle.workloads.items():
            for data in files:
                cluster.ingest(nid, data)
        measured = cluster.combined_stats().dedup_ratio
        predicted = model_dedup_ratio(
            problem.model, list(range(problem.n_sources)), problem.duration
        )
        assert measured == pytest.approx(predicted, rel=0.15)


class TestFailureScenarios:
    def test_ring_dedups_through_rolling_failures(self):
        """One member down at a time: dedup keeps working at level ONE and
        every recovered member converges via hints."""
        config = EFDedupConfig(chunk_size=4096, replication_factor=2)
        ring = D2Ring(ring_id="r", members=[f"n{i}" for i in range(4)], config=config)
        source = AccelerometerSource(participant=0)
        files = [source.generate_file(i).data for i in range(4)]

        ring.ingest("n0", files[0])
        for i, victim in enumerate(("n1", "n2", "n3")):
            ring.fail_node(victim)
            survivor = "n0"
            result = ring.ingest(survivor, files[i + 1])
            assert result.stats.raw_chunks > 0
            ring.recover_node(victim)
        assert ring.store.hints.total_pending == 0
        assert ring.dedup_ratio > 1.0

    def test_quorum_consistency_blocks_under_failures(self):
        """At QUORUM with γ=2, losing one replica of a key makes operations
        on that key fail — stricter consistency trades availability."""
        config = EFDedupConfig(
            chunk_size=4096, replication_factor=2, consistency=ConsistencyLevel.QUORUM
        )
        ring = D2Ring(ring_id="r", members=["n0", "n1", "n2"], config=config)
        ring.ingest("n0", bytes(4096))
        # Find a stored fingerprint and fail one of its replicas.
        fp = next(iter(ring.store.unique_keys()))
        ring.fail_node(ring.store.replicas_for(fp)[0])
        from repro.kvstore.errors import UnavailableError

        with pytest.raises(UnavailableError):
            ring.store.contains_many([fp], coordinator="n0")

    def test_duplicate_upload_after_failure_is_safe(self):
        """If the index lost a hash (all replicas down at write time would
        error; here: fresh ring), re-uploading a chunk is harmless — the
        cloud deduplicates on fingerprint."""
        config = EFDedupConfig(chunk_size=4096, replication_factor=1)
        ring_a = D2Ring(ring_id="a", members=["n0"], config=config)
        ring_b = D2Ring(ring_id="b", members=["n1"], cloud=ring_a.cloud, config=config)
        payload = bytes(4096)
        ring_a.ingest("n0", payload)
        ring_b.ingest("n1", payload)
        assert ring_a.cloud.stored_chunks == 1
        assert ring_a.cloud.redundant_bytes == 4096


class TestScaleSmoke:
    def test_twenty_node_testbed_end_to_end(self):
        """The paper's full 20-node testbed, one file per node."""
        topology = build_testbed(n_nodes=20, n_edge_clouds=10)
        bundle = build_workloads(topology, files_per_node=1)
        problem = make_problem(topology, bundle, chunk_size=4096, alpha=0.1)
        cluster = EFDedupCluster(topology, problem, config=EFDedupConfig(chunk_size=4096))
        cluster.plan(SmartPartitioner(5))
        cluster.deploy()
        for nid, files in bundle.workloads.items():
            for data in files:
                cluster.ingest(nid, data)
        report = cluster.report()
        assert report["dedup_ratio"] > 1.5
        assert report["n_rings"] <= 5
