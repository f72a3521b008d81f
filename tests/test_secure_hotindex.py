"""Hot-index migration state machine + secure-tier cluster integration."""

import pytest

from repro.system.reference import round_robin, seeded_pool_workload
from repro.chunking.hashing import default_fingerprint
from repro.core.costs import SNOD2Problem
from repro.core.model import ChunkPoolModel, grouped_sources
from repro.network.costmatrix import latency_cost_matrix
from repro.network.topology import build_testbed
from repro.secure import (
    HOT_MIGRATION_STATES,
    HotIndexManager,
    PopularityTracker,
    SecureCloudIndex,
)
from repro.system.cluster import DurableEFDedupCluster, EFDedupCluster
from repro.system.config import EFDedupConfig
from repro.system.ring import D2Ring


class TestPopularityTracker:
    def test_hottest_orders_by_count_then_fingerprint(self):
        tracker = PopularityTracker()
        for fp, times in (("b", 3), ("a", 3), ("c", 5), ("d", 1)):
            for _ in range(times):
                tracker.observe(fp)
        assert tracker.hottest(3) == ["c", "a", "b"]
        assert tracker.hottest(0) == []
        assert tracker.hottest(100) == ["c", "a", "b", "d"]


class TestHotIndexStateMachine:
    def _manager(self, hot_size=4):
        return HotIndexManager(SecureCloudIndex(), hot_size=hot_size)

    def test_state_sequence(self):
        mgr = self._manager()
        assert HOT_MIGRATION_STATES == ("PLANNED", "STREAMING", "DUAL_LOOKUP", "COMMITTED")
        assert mgr.state == "PLANNED"
        mgr.begin_migration()
        assert mgr.state == "DUAL_LOOKUP"
        mgr.close_window()
        assert mgr.state == "COMMITTED"
        # A committed manager may re-migrate as popularity drifts.
        mgr.begin_migration()
        assert mgr.state == "DUAL_LOOKUP"

    def test_invalid_transitions_raise(self):
        mgr = self._manager()
        with pytest.raises(RuntimeError, match="no hot-index window"):
            mgr.close_window()
        mgr.begin_migration()
        with pytest.raises(RuntimeError, match="already streaming"):
            mgr.begin_migration()

    def test_streaming_installs_hot_slice_and_edge_serves_it(self):
        mgr = self._manager(hot_size=2)
        for fp in ("hot-a", "hot-a", "hot-a", "hot-b", "hot-b", "cold-c"):
            mgr.observe(fp)
        for fp in ("hot-a", "hot-b", "cold-c"):
            mgr.insert(fp, key_hex=f"{fp}-key")
        # Before migration every claim pays the cloud lookup.
        assert mgr.lookup("hot-a") == "hot-a-key"
        cloud_lookups_before = mgr.cloud.lookups
        report = mgr.begin_migration()
        assert report.planned == 2
        assert report.entries_streamed == 2
        assert mgr.lookup("hot-a") == "hot-a-key"
        assert mgr.lookup("hot-b") == "hot-b-key"
        assert mgr.edge_hits == 2
        assert mgr.cloud.lookups == cloud_lookups_before  # no WAN hop
        # A cold fingerprint still falls through to the cloud.
        assert mgr.lookup("cold-c") == "cold-c-key"
        assert mgr.cloud.lookups == cloud_lookups_before + 1

    def test_delta_restream_catches_in_window_insert(self):
        # A planned-hot fingerprint whose cloud entry only lands during
        # the dual-lookup window (e.g. re-uploaded after a GC sweep) is
        # installed by the timestamp-bounded delta pass at close.
        mgr = self._manager(hot_size=1)
        for _ in range(5):
            mgr.observe("popular")
        report = mgr.begin_migration()
        assert report.entries_streamed == 0  # not in cloud yet
        assert "popular" not in mgr.edge
        mgr.insert("popular", "popular-key")  # lands inside the window
        report = mgr.close_window()
        assert report.entries_restreamed == 1
        assert mgr.lookup("popular") == "popular-key"
        assert mgr.edge_hits == 1

    def test_never_uploaded_planned_entry_is_not_restreamed(self):
        mgr = self._manager(hot_size=1)
        mgr.observe("ghost")
        mgr.begin_migration()
        report = mgr.close_window()
        assert report.entries_restreamed == 0
        assert "ghost" not in mgr.edge

    def test_invalidate_drops_both_copies_but_keeps_popularity(self):
        mgr = self._manager(hot_size=1)
        for _ in range(3):
            mgr.observe("fp")
        mgr.insert("fp", "key")
        mgr.begin_migration()
        assert "fp" in mgr.edge
        assert mgr.invalidate(["fp"]) == 2  # edge + cloud
        assert "fp" not in mgr.edge
        assert "fp" not in mgr.cloud
        assert mgr.tracker.count("fp") == 3  # workload history survives


NODES = 4


def make_secure_cluster(hot_index_size=16, wan_rtt_s=0.0, secure=True):
    model = ChunkPoolModel(
        [150.0, 150.0],
        grouped_sources(
            [i % 2 for i in range(NODES)], [[0.9, 0.1], [0.1, 0.9]], 80.0
        ),
    )
    topo = build_testbed(NODES, 3)
    problem = SNOD2Problem(
        model=model,
        nu=latency_cost_matrix(topo),
        duration=2.0,
        gamma=2,
        alpha=50.0,
    )
    config = EFDedupConfig(
        chunk_size=4096,
        replication_factor=2,
        lookup_batch=16,
        secure=secure,
        hot_index_size=hot_index_size if secure else 0,
        wan_rtt_s=wan_rtt_s if secure else 0.0,
    )
    cluster = DurableEFDedupCluster(topo, problem, config=config)
    # Two rings sharing one cloud: cross-ring claims are where the
    # secure tier's dedup hits come from.
    cluster.partition = [[0, 1], [2, 3]]
    cluster.deploy()
    return cluster


class TestSecureClusterIntegration:
    def test_config_gates(self):
        with pytest.raises(ValueError, match="hot_index_size requires secure"):
            EFDedupConfig(hot_index_size=8)
        with pytest.raises(ValueError, match="wan_rtt_s requires secure"):
            EFDedupConfig(wan_rtt_s=0.01)

    def test_secure_requires_content_plane(self):
        from repro.secure import SecureTier

        with pytest.raises(ValueError, match="secure tier requires a content plane"):
            D2Ring("ring-0", ["n0"], secure=SecureTier())

    def test_plain_cluster_rejects_secure_config(self):
        secure_cluster = make_secure_cluster()
        try:
            plain = EFDedupCluster(
                secure_cluster.topology,
                secure_cluster.problem,
                config=secure_cluster.config,
            )
            plain.partition = [[0, 1], [2, 3]]
            with pytest.raises(RuntimeError, match="payload data plane"):
                plain.deploy()
        finally:
            secure_cluster.shutdown()

    def test_cross_ring_claim_skips_wan_upload(self):
        cluster = make_secure_cluster()
        try:
            data = seeded_pool_workload(1, 1, 16, seed=5)["edge-0"][0]
            cluster.ingest_file("edge-0", "ring-a-copy", data)  # ring 0
            wan_after_first = cluster.cloud.received_bytes
            cluster.ingest_file("edge-2", "ring-b-copy", data)  # ring 1
            # Every chunk of the second copy was claimed (PoW-proven) and
            # its upload skipped: the accounting cloud saw no new bytes.
            assert cluster.cloud.received_bytes == wan_after_first
            assert cluster.secure.stats.granted > 0
            assert cluster.secure.stats.denied == 0
            assert cluster.secure.pow.stats.accepted == cluster.secure.stats.granted
            # Both copies restore byte-exactly through decryption.
            assert cluster.restore_file("ring-a-copy") == data
            assert cluster.restore_file("ring-b-copy") == data
        finally:
            cluster.shutdown()

    def test_stored_payloads_are_ciphertext(self):
        cluster = make_secure_cluster()
        try:
            data = seeded_pool_workload(1, 1, 8, seed=9)["edge-0"][0]
            cluster.ingest_file("edge-0", "f0", data)
            cluster.content_plane.flush()
            chunk = data[:4096]
            fp = default_fingerprint(chunk)
            stored = cluster.tier.get_chunk(fp)
            assert stored != chunk  # at-rest bytes are encrypted
            assert cluster.secure.open(fp, stored) == chunk
        finally:
            cluster.shutdown()

    @staticmethod
    def _tier_only_file(cluster):
        """Ingest one file and evict every edge copy, so restore reads the
        ciphertext back from the tier; returns (data, chunk index, the
        chunk's fingerprint) for the file's second distinct chunk."""
        data = seeded_pool_workload(1, 1, 16, seed=13)["edge-0"][0]
        cluster.ingest_file("edge-0", "victim", data)
        for ring in cluster.rings:
            ring.content.clear()
        entries = cluster.recipes.get("victim").entries
        firsts = list(dict.fromkeys(entry.fingerprint for entry in entries))
        fp = firsts[1]
        index = next(i for i, entry in enumerate(entries) if entry.fingerprint == fp)
        return data, index, fp

    @pytest.mark.parametrize("shard, offset", [(0, 0), (1, 517), (3, 1023)])
    def test_corrupted_shard_fails_restore_naming_the_chunk(self, shard, offset):
        """The XOR stream cipher has no MAC: one flipped ciphertext byte
        decrypts to one flipped plaintext byte, and only restore's
        fingerprint check stands between it and the caller."""
        from repro.dedup.recipes import RecipeError

        cluster = make_secure_cluster()
        try:
            data, index, fp = self._tier_only_file(cluster)
            tier = cluster.tier
            zone = tier._meta[fp].shard_zone[shard]
            stored = bytearray(tier._zones[zone][(fp, shard)])
            stored[offset] ^= 0x40
            tier._zones[zone][(fp, shard)] = bytes(stored)
            with pytest.raises(RecipeError, match=rf"chunk {index} failed fingerprint"):
                cluster.restore_file("victim")
        finally:
            cluster.shutdown()

    def test_that_shards_zone_failed_instead_restores_exactly(self):
        cluster = make_secure_cluster()
        try:
            data, _, fp = self._tier_only_file(cluster)
            cluster.tier.fail_zone(cluster.tier._meta[fp].shard_zone[0])
            assert cluster.restore_file("victim") == data
            assert cluster.content_plane.stats.tier_hits > 0
        finally:
            cluster.shutdown()

    def test_gc_sweep_forgets_keys_and_reingest_recovers(self):
        cluster = make_secure_cluster()
        try:
            data = seeded_pool_workload(1, 1, 8, seed=11)["edge-0"][0]
            cluster.ingest_file("edge-0", "doomed", data)
            assert len(cluster.secure.vault) > 0
            cluster.delete_file("doomed")
            cluster.gc_sweep()
            assert len(cluster.secure.vault) == 0
            assert len(cluster.secure.cloud_index) == 0
            # Re-ingest after the sweep: claims must miss (no stale key
            # grants a hit for reclaimed bytes) and the file restores.
            cluster.ingest_file("edge-2", "reborn", data)
            assert cluster.restore_file("reborn") == data
        finally:
            cluster.shutdown()

    def _ratio_and_cloud_fps(self, migrate: bool):
        cluster = make_secure_cluster(hot_index_size=32)
        try:
            seg1 = round_robin(seeded_pool_workload(2, 2, 8, seed=21))
            for i, (nid, data) in enumerate(seg1):  # ring 0 only
                cluster.ingest_file(nid, f"s1-{i}", data)
            if migrate:
                cluster.migrate_hot_index()
            # Ring 1 re-ingests the same files during the window.
            for i, (nid, data) in enumerate(seg1):
                peer = f"edge-{int(nid.split('-')[1]) + 2}"
                cluster.ingest_file(peer, f"s2-{i}", data)
            if migrate:
                cluster.close_hot_index_window()
            for i, (nid, data) in enumerate(
                round_robin(seeded_pool_workload(NODES, 1, 8, seed=22))
            ):
                cluster.ingest_file(nid, f"s3-{i}", data)
            ratio = cluster.combined_stats().dedup_ratio
            fps = sorted(cluster.secure.cloud_index.fingerprints())
            state = cluster.secure.hotindex.state
            edge_hits = cluster.secure.hotindex.edge_hits
            return ratio, fps, state, edge_hits
        finally:
            cluster.shutdown()

    def test_migration_preserves_ratio_exactly(self):
        migrated, m_fps, state, edge_hits = self._ratio_and_cloud_fps(migrate=True)
        baseline, b_fps, _, _ = self._ratio_and_cloud_fps(migrate=False)
        assert state == "COMMITTED"
        assert edge_hits > 0  # hot claims actually answered at the edge
        assert abs(migrated - baseline) < 1e-12
        assert m_fps == b_fps  # identical upload decisions

    def test_hot_claims_skip_cloud_lookups(self):
        cluster = make_secure_cluster(hot_index_size=64)
        try:
            seg = round_robin(seeded_pool_workload(2, 2, 8, seed=31))
            for i, (nid, data) in enumerate(seg):  # ring 0 uploads
                cluster.ingest_file(nid, f"a-{i}", data)
            cluster.migrate_hot_index()
            cluster.close_hot_index_window()
            cloud_lookups_before = cluster.secure.cloud_index.lookups
            for i, (nid, data) in enumerate(seg):  # ring 1 claims hot fps
                peer = f"edge-{int(nid.split('-')[1]) + 2}"
                cluster.ingest_file(peer, f"b-{i}", data)
            # Hot-slice hits answered at the edge; only fingerprints
            # outside the slice still pay the WAN lookup.
            assert cluster.secure.hotindex.edge_hits > 0
            assert (
                cluster.secure.cloud_index.lookups - cloud_lookups_before
                < cluster.secure.hotindex.edge_hits
            )
        finally:
            cluster.shutdown()
