"""End-to-end tests for live ring migration (drift -> replan -> migrate).

The headline acceptance scenario: a deployed cluster keeps ingesting while
a ReplanDecision is applied, and the post-migration dedup ratio on new
data is *exactly* what a fresh cluster deployed straight onto the new plan
would produce. Dual-lookup exactness is pinned separately: fingerprints
claimed through the old topology must never be re-declared unique during
the cutover window, even with a source-ring node down.
"""

import random

import pytest

from repro.system.reference import seeded_pool_workload
from repro.core.costs import SNOD2Problem
from repro.core.model import ChunkPoolModel, grouped_sources
from repro.core.partitioning import SmartPartitioner
from repro.kvstore.store import DistributedKVStore
from repro.kvstore.tokens import TOKEN_SPACE
from repro.network.costmatrix import latency_cost_matrix
from repro.network.topology import build_testbed
from repro.system.cluster import EFDedupCluster
from repro.system.config import EFDedupConfig
from repro.system.migration import (
    MIGRATION_STATES,
    DualLookupIndex,
    LiveMigrator,
    MigrationReport,
)
from repro.system.replanner import RingReplanner, drift_model

N = 6
OLD_PLAN = [[0, 1, 2], [3, 4, 5]]
NEW_PLAN = [[0, 1], [2, 3, 4, 5]]  # node 2 moves ring-0 -> ring-1


def base_model(n: int = N) -> ChunkPoolModel:
    return ChunkPoolModel(
        [150.0, 150.0],
        grouped_sources([i % 2 for i in range(n)], [[0.9, 0.1], [0.1, 0.9]], 80.0),
    )


def make_problem(model: ChunkPoolModel, n: int = N):
    topo = build_testbed(n, 3)
    return topo, SNOD2Problem(
        model=model, nu=latency_cost_matrix(topo), duration=2.0, gamma=2, alpha=50.0
    )


def make_config(transport: str = "inproc") -> EFDedupConfig:
    if transport == "asyncio":
        return EFDedupConfig(
            transport="asyncio",
            chunk_size=4096,
            lookup_batch=16,
            rpc_timeout_s=0.5,
            rpc_attempts=5,
        )
    return EFDedupConfig(chunk_size=4096, lookup_batch=16)


def unique_file(seed: int, blocks: int = 16, block_size: int = 4096) -> bytes:
    """All-distinct blocks from a dedicated seed: disjoint (with overwhelming
    probability) from any ``seeded_pool_workload`` pool."""
    rng = random.Random(10_000 + seed)
    return b"".join(rng.randbytes(block_size) for _ in range(blocks))


def manual_cluster(transport: str = "inproc", plan=None):
    topo, problem = make_problem(base_model())
    cluster = EFDedupCluster(topo, problem, config=make_config(transport))
    cluster.partition = plan if plan is not None else OLD_PLAN
    cluster.deploy()
    return topo, problem, cluster


def ingest_all(cluster: EFDedupCluster, workloads: dict[str, list[bytes]]) -> None:
    for node_id, files in workloads.items():
        for data in files:
            cluster.ingest(node_id, data)


class TestReplanMigrateLoop:
    """The closed control loop: drift -> replan -> live migrate -> parity."""

    def _run_loop(self, transport: str) -> None:
        model = base_model()
        topo, problem = make_problem(model)
        config = make_config(transport)
        replanner = RingReplanner(
            SmartPartitioner(2), migration_cost="auto", horizon_intervals=20.0
        )
        d0 = replanner.observe(problem)
        cluster = EFDedupCluster(topo, problem, config=config)
        cluster.partition = d0.candidate_partition
        cluster.deploy()
        try:
            seg1 = seeded_pool_workload(N, 2, 8, seed=1)
            ingest_all(cluster, seg1)

            decision = None
            p2 = problem
            for seed in range(5, 30):
                _, p2 = make_problem(drift_model(model, 0.9, seed=seed))
                d = replanner.observe(p2)
                if d.replan and d.candidate_partition != cluster.partition:
                    decision = d
                    break
            assert decision is not None, "drift never produced a replan"

            migrator = cluster.migrate(decision, problem=p2)
            assert migrator.state == "DUAL_LOOKUP"
            assert cluster.partition == decision.candidate_partition
            assert sorted(n for r in cluster.rings for n in r.members) == sorted(
                topo.node_ids
            )
            assert migrator.report.n_moved > 0
            assert migrator.report.entries_streamed > 0
            assert migrator.report.cost_estimate == pytest.approx(
                decision.migration_cost
            )

            # Ingest continues while the window is open: a disjoint pool, so
            # the post-migration segment's dedup outcome is exactly separable.
            seg2 = seeded_pool_workload(N, 2, 8, seed=2)
            pre = cluster.combined_stats()
            ingest_all(cluster, seg2)
            post = cluster.combined_stats()
            seg2_unique = post.unique_chunks - pre.unique_chunks
            seg2_raw = post.raw_chunks - pre.raw_chunks

            report = migrator.close_window()
            assert report.state == migrator.state == "COMMITTED"

            # A fresh cluster deployed directly on the new plan, fed only the
            # post-migration segment, must agree chunk-for-chunk.
            fresh = EFDedupCluster(topo, p2, config=make_config(transport))
            fresh.partition = decision.candidate_partition
            fresh.deploy()
            try:
                ingest_all(fresh, seg2)
                fstats = fresh.combined_stats()
                assert fstats.unique_chunks == seg2_unique
                assert fstats.raw_chunks == seg2_raw
            finally:
                fresh.shutdown()

            # The committed topology still ingests.
            ingest_all(cluster, seeded_pool_workload(N, 1, 8, seed=3))
        finally:
            cluster.shutdown()

    def test_inproc_loop_ratio_parity(self):
        self._run_loop("inproc")

    def test_live_transport_loop_ratio_parity(self):
        self._run_loop("asyncio")


class TestMigrationMechanics:
    def test_requires_planned_and_deployed(self):
        topo, problem = make_problem(base_model())
        cluster = EFDedupCluster(topo, problem)
        with pytest.raises(RuntimeError, match="deploy"):
            cluster.migrate(NEW_PLAN)

    def test_noop_relabel_commits_immediately(self):
        _, _, cluster = manual_cluster()
        old_rings = list(cluster.rings)
        migrator = cluster.migrate([[3, 4, 5], [0, 1, 2]])
        assert migrator.state == "COMMITTED"
        assert migrator.report.n_moved == 0
        assert migrator.report.entries_streamed == 0
        assert cluster.partition == [[3, 4, 5], [0, 1, 2]]
        # Same ring objects, reordered — no teardown, no new stores.
        assert set(map(id, cluster.rings)) == set(map(id, old_rings))
        cluster.ingest("edge-0", unique_file(1))

    def test_migrator_is_single_use(self):
        _, _, cluster = manual_cluster()
        migrator = cluster.migrate(NEW_PLAN)
        migrator.close_window()
        with pytest.raises(RuntimeError, match="already ran"):
            migrator.migrate(OLD_PLAN)
        with pytest.raises(RuntimeError, match="window"):
            migrator.close_window()

    def test_close_before_migrate_rejected(self):
        _, _, cluster = manual_cluster()
        with pytest.raises(RuntimeError, match="window"):
            LiveMigrator(cluster).close_window()

    def test_moved_agent_stats_survive(self):
        """Accounting never resets: chunks ingested at a node before it moved
        still appear in combined_stats afterwards."""
        _, _, cluster = manual_cluster()
        cluster.ingest("edge-2", unique_file(2))
        before = cluster.combined_stats()
        migrator = cluster.migrate(NEW_PLAN)
        migrator.close_window()
        after = cluster.combined_stats()
        assert after.unique_chunks >= before.unique_chunks
        assert after.raw_chunks >= before.raw_chunks

    def test_migration_metrics_registered_in_hub(self):
        _, _, cluster = manual_cluster()
        snap = cluster.metrics_hub().collect()
        assert not any(k.startswith("migration.") for k in snap)
        migrator = cluster.migrate(NEW_PLAN)
        snap = cluster.metrics_hub().collect()
        assert snap["migration.state"] == float(MIGRATION_STATES.index("DUAL_LOOKUP"))
        assert snap["migration.nodes_moved"] == 1.0
        migrator.close_window()
        snap = cluster.metrics_hub().collect()
        assert snap["migration.state"] == float(MIGRATION_STATES.index("COMMITTED"))

    def test_report_metric_names_are_canonical(self):
        _, _, cluster = manual_cluster()
        cluster.last_migration = MigrationReport()
        metrics = {
            k: v
            for k, v in cluster.metrics_hub().collect().items()
            if not k.startswith(("ring-", "cloud."))
        }
        assert len(metrics) == 12
        assert all(k.startswith("migration.") for k in metrics)
        assert metrics["migration.state"] == 0.0


class TestDualLookupWindow:
    def test_inflight_claims_flip_to_duplicates(self):
        """A fingerprint claimed through the old topology is never declared
        unique again while the window is open — and the probe backfills the
        new ring's index, so it stays a duplicate after the window closes."""
        _, _, cluster = manual_cluster()
        data = unique_file(3)
        cluster.ingest("edge-2", data)
        stored_before = cluster.cloud.stored_bytes

        migrator = cluster.migrate(NEW_PLAN)
        pre = cluster.combined_stats()
        result = cluster.ingest("edge-2", data)  # re-claim through the new ring
        post = cluster.combined_stats()
        assert post.unique_chunks == pre.unique_chunks
        assert result.unique_fingerprints == ()
        assert migrator.report.dual_lookup_probes > 0
        assert migrator.report.dual_lookup_hits > 0
        assert cluster.cloud.stored_bytes == stored_before

        probes_at_close = migrator.report.dual_lookup_probes
        migrator.close_window()
        # The window's probe backfilled the primary: a third claim is still
        # all-duplicate without touching the (now unwrapped) fallback.
        result = cluster.ingest("edge-2", data)
        assert result.unique_fingerprints == ()
        assert migrator.report.dual_lookup_probes == probes_at_close

    def test_agents_unwrapped_after_close(self):
        _, _, cluster = manual_cluster()
        migrator = cluster.migrate(NEW_PLAN)
        wrapped = [
            agent
            for ring in cluster.rings
            for agent in ring.agents.values()
            if isinstance(agent.engine.index, DualLookupIndex)
        ]
        assert wrapped, "receiving ring's agents should be in the window"
        migrator.close_window()
        for ring in cluster.rings:
            for agent in ring.agents.values():
                assert not isinstance(agent.engine.index, DualLookupIndex)

    def test_dissolved_ring_retires_then_closes(self):
        """Collapsing to one ring dissolves the other. All of the dissolved
        ring's members move to the same destination, so their carried shards
        cover its *entire* index — nothing claimed there is ever re-declared
        unique, with or without a probe. The dissolved ring's store stays
        alive (retired) until close_window for the delta pass."""
        _, _, cluster = manual_cluster()
        files = {nid: unique_file(40 + i) for i, nid in enumerate(
            ("edge-1", "edge-4")
        )}
        for nid, data in files.items():
            cluster.ingest(nid, data)
        migrator = cluster.migrate([[0, 1, 2, 3, 4, 5]])
        assert migrator.report.rings_dissolved == 1
        assert len(cluster._retired_rings) == 1
        pre = cluster.combined_stats()
        for nid, data in files.items():
            cluster.ingest(nid, data)
        post = cluster.combined_stats()
        assert post.unique_chunks == pre.unique_chunks
        migrator.close_window()
        assert cluster._retired_rings == []

    def test_metrics_collect_with_all_duplicate_dest_ring(self):
        """A destination ring can be all-duplicates right after cutover
        (its only claims came in via the carried shard or the window
        probe); metrics collection must survive the unbounded ratio."""
        _, _, cluster = manual_cluster()
        data = b"z" * 65536
        cluster.ingest("edge-0", data)
        migrator = cluster.migrate(NEW_PLAN)
        result = cluster.ingest("edge-3", data)
        assert result.unique_fingerprints == ()
        snapshot = cluster.metrics_hub().collect()  # must not raise
        assert any(
            v == float("inf")
            for k, v in snapshot.items()
            if k.endswith("dedup.dedup_ratio")
        )
        migrator.close_window()

    def test_window_ignores_source_rings_post_cutover_claims(self):
        """The probe is timestamp-bounded at the cutover: a chunk the
        surviving source ring claims *while the window is open* is that
        ring's own business — the destination ring must still count its
        first sighting as unique, exactly as a fresh deployment would."""
        _, _, cluster = manual_cluster()
        migrator = cluster.migrate(NEW_PLAN)
        data = unique_file(7)
        n_chunks = len(data) // 4096
        pre = cluster.combined_stats()
        cluster.ingest("edge-0", data)  # source ring (ring-0) claims first
        cluster.ingest("edge-3", data)  # dest ring must NOT see that claim
        post = cluster.combined_stats()
        # Per-ring dedup semantics: one unique copy per ring, not one total.
        assert post.unique_chunks - pre.unique_chunks == 2 * n_chunks
        migrator.close_window()
        # And the delta pass must not copy the source ring's own claims
        # into the destination either: a re-claim at the destination after
        # commit is a duplicate of ITS copy, while totals stay per-ring.
        final = cluster.combined_stats()
        cluster.ingest("edge-3", data)
        assert cluster.combined_stats().unique_chunks == final.unique_chunks

    def test_delta_restream_catches_late_claims(self):
        """Writes landing in the source ring while the window is open reach
        the destination through close_window's delta pass."""
        _, _, cluster = manual_cluster()
        cluster.ingest("edge-2", unique_file(5))
        migrator = cluster.migrate(NEW_PLAN)
        report = migrator.close_window()
        # The carried ranges are re-read; the pass applies at least the
        # originally carried rows again (idempotent at original timestamps).
        assert report.entries_restreamed >= report.entries_streamed


class TestLiveTransportKillDuringMigration:
    def test_dual_lookup_exact_with_source_node_down(self):
        """Kill a source-ring node mid-window: γ=2 replication keeps the
        fallback probe exact, and the delta re-stream tolerates the outage."""
        _, _, cluster = manual_cluster("asyncio")
        try:
            data = unique_file(6)
            cluster.ingest("edge-2", data)
            migrator = cluster.migrate(NEW_PLAN)

            # edge-0 stays in the (surviving) source ring; kill it while the
            # window is open.
            src_ring = cluster.ring_for("edge-0")
            assert src_ring.members == ["edge-0", "edge-1"]
            src_ring.crash_node("edge-0")

            pre = cluster.combined_stats()
            result = cluster.ingest("edge-2", data)
            post = cluster.combined_stats()
            assert post.unique_chunks == pre.unique_chunks
            assert result.unique_fingerprints == ()
            assert migrator.report.dual_lookup_hits > 0

            src_ring.restart_node("edge-0")
            report = migrator.close_window()
            assert report.state == "COMMITTED"
            # Post-commit ingest on the live topology still works everywhere.
            ingest_all(cluster, seeded_pool_workload(N, 1, 8, seed=4))
        finally:
            cluster.shutdown()


class TestStreamingPrimitives:
    def test_stream_ranges_full_space_round_trip(self):
        src = DistributedKVStore(["a", "b", "c"], replication_factor=2)
        keys = [f"key-{i}" for i in range(20)]
        for i, key in enumerate(keys):
            src.put_if_absent_many([key], f"v{i}")
        rows = src.stream_ranges([(0, TOKEN_SPACE)])
        assert len(rows) == 20
        dst = DistributedKVStore(["x", "y"], replication_factor=2)
        assert dst.ingest_entries(rows) == 20
        assert dst.contains_many(keys) == [True] * 20
        assert dst.stream_ranges([(0, TOKEN_SPACE)]) == rows  # values and timestamps

    def test_stream_ranges_respects_token_bounds(self):
        src = DistributedKVStore(["a", "b", "c"], replication_factor=2)
        src.put_if_absent_many([f"key-{i}" for i in range(50)], "v")
        ranges = src.ring.primary_token_ranges("a")
        subset = src.stream_ranges(ranges)
        everything = src.stream_ranges([(0, TOKEN_SPACE)])
        assert 0 < len(subset) < len(everything)
        # Per-node primary ranges tile the space: the three shards partition
        # the key set exactly.
        total = sum(
            len(src.stream_ranges(src.ring.primary_token_ranges(n)))
            for n in ("a", "b", "c")
        )
        assert total == len(everything) == 50

    def test_contains_many_ts_bound(self):
        """Only versions stamped at or before the bound count as present."""
        store = DistributedKVStore(["a", "b"], replication_factor=2)
        store.put_if_absent_many(["before"], "v")
        bound = store.clock_now()
        store.put_if_absent_many(["after"], "v")
        assert store.contains_many(["before", "after"]) == [True, True]
        assert store.contains_many(["before", "after"], ts_bound=bound) == [
            True,
            False,
        ]

    def test_ingest_entries_advances_timestamp_clock(self):
        """A local write after ingesting migrated rows must win LWW."""
        src = DistributedKVStore(["a"], replication_factor=1)
        src.put_if_absent_many(["a", "b", "k"], "old")  # k stamped 3
        dst = DistributedKVStore(["x"], replication_factor=1)
        dst.ingest_entries(src.stream_ranges([(0, TOKEN_SPACE)]))
        assert dst.delete_many(["k"]) == 1  # a fresh clock would stamp it 1
        assert dst.contains_many(["k"]) == [False]
        assert dst.put_if_absent_many(["k"], "new") == [True]
