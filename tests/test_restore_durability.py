"""End-to-end durability tests for the payload data plane.

The claims under test, in increasing order of violence:

- a file ingested over the *live asyncio transport* restores byte-exactly
  from the ring-local shelves;
- with every edge copy evicted and ``m`` cloud-tier zones failed, it
  still restores via k-of-n Reed–Solomon reconstruction;
- the refcount journal survives a crash-restart (a fresh cluster on the
  same journal directory replays the exact counts);
- a live ring migration that dissolves rings carries payloads with it,
  and a sweep afterwards orphans nothing and deletes nothing prematurely.
"""

import pytest

from repro.system.reference import round_robin, seeded_pool_workload
from repro.core.costs import SNOD2Problem
from repro.core.model import ChunkPoolModel, grouped_sources
from repro.dedup.recipes import RecipeError
from repro.network.costmatrix import latency_cost_matrix
from repro.network.topology import build_testbed
from repro.system.cluster import DurableEFDedupCluster
from repro.system.config import EFDedupConfig

NODES = 4
RS_K, RS_M = 3, 2


def make_cluster(tmp_path, transport="asyncio", spill_mode="sync", nodes=NODES, **extra):
    model = ChunkPoolModel(
        [150.0, 150.0],
        grouped_sources(
            [i % 2 for i in range(nodes)], [[0.9, 0.1], [0.1, 0.9]], 80.0
        ),
    )
    topo = build_testbed(nodes, min(3, nodes))
    problem = SNOD2Problem(
        model=model,
        nu=latency_cost_matrix(topo),
        duration=2.0,
        gamma=2,
        alpha=50.0,
    )
    extra.setdefault("lookup_batch", 16)
    config = EFDedupConfig(
        chunk_size=4096,
        replication_factor=2,
        transport=transport,
        rpc_timeout_s=0.5,
        rpc_attempts=5,
        ec_data_shards=RS_K,
        ec_parity_shards=RS_M,
        spill_mode=spill_mode,
        **extra,
    )
    cluster = DurableEFDedupCluster(
        topo, problem, config=config, journal_dir=str(tmp_path / "journal")
    )
    cluster.partition = [[0, 1], [2, 3]] if nodes == 4 else [list(range(nodes))]
    cluster.deploy()
    return cluster


def ingest_files(cluster, files_per_node=2, file_kb=16, seed=7, tag="f"):
    files = {}
    schedule = round_robin(
        seeded_pool_workload(NODES, files_per_node, file_kb, seed=seed)
    )
    for i, (nid, data) in enumerate(schedule):
        fid = f"{tag}{i}"
        files[fid] = data
        cluster.ingest_file(nid, fid, data)
    return files


def assert_all_restore(cluster, files):
    for fid, data in files.items():
        assert cluster.restore_file(fid) == data, fid


class TestLiveRestorePath:
    def test_healthy_restores_are_byte_exact(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            files = ingest_files(cluster)
            assert_all_restore(cluster, files)
            # Healthy reads come from the edge shelves, not the tier.
            assert cluster.content_plane.stats.edge_hits > 0
            assert cluster.content_plane.stats.tier_hits == 0
        finally:
            cluster.shutdown()

    def test_degraded_restore_from_k_of_n(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            files = ingest_files(cluster)
            evicted = sum(r.content.clear() for r in cluster.rings)
            assert evicted > 0
            for z in range(RS_M):
                cluster.fail_zone(z)
            assert_all_restore(cluster, files)
            assert cluster.content_plane.stats.tier_hits > 0
        finally:
            cluster.shutdown()

    def test_crashed_member_falls_back_to_tier(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            files = ingest_files(cluster)
            ring = cluster.rings[0]
            ring.crash_node(ring.members[0])  # its shelf dies with it
            assert_all_restore(cluster, files)
        finally:
            cluster.shutdown()

    def test_async_spill_mode_is_equivalent(self, tmp_path):
        cluster = make_cluster(tmp_path, spill_mode="async")
        try:
            files = ingest_files(cluster)
            for ring in cluster.rings:
                ring.content.clear()
            assert_all_restore(cluster, files)  # tier got every chunk
        finally:
            cluster.shutdown()

    def test_restore_after_clear_sends_no_edge_rpc(self, tmp_path):
        """Evicted shelves leave the shelf directory empty, so a restore
        asks no member for a chunk: not one ``get_chunks`` reaches a server,
        and every content counter equals an in-process twin's."""
        from repro.obs.hub import series

        counters = {}
        for transport in ("asyncio", "inproc"):
            cluster = make_cluster(tmp_path / transport, transport=transport)
            try:
                files = ingest_files(cluster)
                assert_all_restore(cluster, files)  # healthy: from the shelves
                for ring in cluster.rings:
                    ring.content.clear()
                servers = [
                    server
                    for ring in cluster.rings
                    if ring.live_cluster is not None
                    for server in ring.live_cluster.servers.values()
                ]
                asked = sum(s.stats.by_method.get("get_chunks", 0) for s in servers)
                assert_all_restore(cluster, files)
                assert sum(s.stats.by_method.get("get_chunks", 0) for s in servers) == asked
                assert (transport == "asyncio") == (asked > 0)
                counters[transport] = (
                    [series(ring.content.stats) for ring in cluster.rings],
                    series(cluster.content_plane.stats),
                )
            finally:
                cluster.shutdown()
        assert counters["asyncio"] == counters["inproc"]
        rings, plane = counters["asyncio"]
        assert plane["tier_hits"] > 0
        assert all(r["gets"] == r["hits"] + r["misses"] for r in rings)

    def test_restore_unknown_file_raises(self, tmp_path):
        cluster = make_cluster(tmp_path, transport="inproc")
        try:
            with pytest.raises(RecipeError):
                cluster.restore_file("never-ingested")
        finally:
            cluster.shutdown()


class TestPresenceCacheInvalidation:
    def test_reingest_after_sweep_restores_despite_warm_caches(self, tmp_path):
        """Regression: the per-agent LRU presence caches were never told
        about a GC sweep. Re-ingesting swept content hit the stale cache
        entry ("already present"), the payload was never stored anywhere,
        and the restore failed on the missing chunks — silent data loss."""
        cluster = make_cluster(tmp_path, transport="inproc", cache_capacity=512)
        try:
            data = seeded_pool_workload(1, 1, 16, seed=17)["edge-0"][0]
            cluster.ingest_file("edge-0", "first", data)
            assert cluster.restore_file("first") == data  # caches now warm
            cluster.delete_file("first")
            cluster.gc_sweep()
            invalidated = sum(
                cache.stats.invalidations
                for ring in cluster.rings
                for cache in ring._agent_caches()
            )
            assert invalidated > 0  # the sweep reached the presence caches
            # The same node re-uploads the same bytes as a new file: every
            # chunk must be treated as absent again and re-stored.
            cluster.ingest_file("edge-0", "second", data)
            assert cluster.restore_file("second") == data
        finally:
            cluster.shutdown()


class TestRefcountDurability:
    def test_journal_replays_into_fresh_cluster(self, tmp_path):
        cluster = make_cluster(tmp_path, transport="inproc")
        files = ingest_files(cluster)
        doomed = sorted(files)[:3]
        for fid in doomed:
            cluster.delete_file(fid)
        live_before = dict(cluster.gc.live_refs())
        zero_before = cluster.gc.zero_refs()
        cluster.shutdown()

        reborn = make_cluster(tmp_path, transport="inproc")
        try:
            assert dict(reborn.gc.live_refs()) == live_before
            assert reborn.gc.zero_refs() == zero_before
        finally:
            reborn.shutdown()

    def test_delete_then_sweep_never_touches_survivors(self, tmp_path):
        cluster = make_cluster(tmp_path, transport="inproc")
        try:
            files = ingest_files(cluster, files_per_node=2)
            # A second segment from a different pool: chunks exclusive to it.
            cold = ingest_files(cluster, files_per_node=1, seed=99, tag="cold")
            for fid in cold:
                cluster.delete_file(fid)
            report = cluster.gc_sweep()
            assert report.swept > 0
            assert report.orphans_adopted == 0
            assert_all_restore(cluster, files)  # zero premature deletions
        finally:
            cluster.shutdown()

    def test_sweep_keeps_index_and_cloud_in_lockstep(self, tmp_path):
        cluster = make_cluster(tmp_path, transport="inproc")
        try:
            ingest_files(cluster, files_per_node=1)
            cold = ingest_files(cluster, files_per_node=1, seed=99, tag="cold")
            for fid in cold:
                cluster.delete_file(fid)
            cluster.gc_sweep()
            cloud_keys = cluster.cloud.fingerprints()
            index_keys = frozenset().union(
                *(frozenset(r.store.unique_keys()) for r in cluster.rings)
            )
            assert index_keys == cloud_keys
        finally:
            cluster.shutdown()

    def test_a_sweep_costs_rpc_calls_per_ring_not_per_fingerprint(self, tmp_path):
        """A sweep tombstones each ring's index in one batch, so sweeping
        twice the fingerprints sends exactly as many RPC calls."""
        import random

        cluster = make_cluster(tmp_path)
        try:
            rng = random.Random(5)
            members = [n for ring in cluster.rings for n in ring.members]

            def sweep_of(tag, files_per_node):
                fids = []
                for i in range(files_per_node):
                    for nid in members:
                        fids.append(f"{tag}-{nid}-{i}")
                        cluster.ingest_file(nid, fids[-1], rng.randbytes(16 * 1024))
                for fid in fids:
                    cluster.delete_file(fid)
                before = sum(r.live_cluster.client.stats.calls for r in cluster.rings)
                report = cluster.gc_sweep()
                after = sum(r.live_cluster.client.stats.calls for r in cluster.rings)
                assert report.index_tombstones == report.swept == report.candidates
                return report.swept, after - before

            swept, calls = sweep_of("small", 1)
            swept_twice, calls_twice = sweep_of("large", 2)
            assert swept_twice >= 2 * swept > 0
            assert calls_twice == calls
        finally:
            cluster.shutdown()

    def test_refcounts_count_occurrences_not_files(self, tmp_path):
        cluster = make_cluster(tmp_path, transport="inproc")
        try:
            data = b"\xab" * 4096 * 3  # one chunk content, three occurrences
            cluster.ingest_file(cluster.rings[0].members[0], "rep", data)
            fp = cluster.recipes.get("rep").entries[0].fingerprint
            assert cluster.gc.count(fp) == 3
            cluster.delete_file("rep")
            assert cluster.gc.count(fp) == 0
        finally:
            cluster.shutdown()


class TestMigrationCarriesPayloads:
    def test_dissolved_ring_payloads_survive_migration(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            files = ingest_files(cluster)
            migrator = cluster.migrate([[0, 1, 2, 3]])
            report = migrator.close_window()
            assert report.state == "COMMITTED"
            assert report.rings_dissolved >= 1
            assert report.payloads_carried > 0
            # More ingest lands on the new topology, then everything
            # restores — including files whose home ring no longer exists.
            files.update(ingest_files(cluster, files_per_node=1, seed=8, tag="g"))
            assert_all_restore(cluster, files)
        finally:
            cluster.shutdown()

    def test_sweep_after_migration_is_clean(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            files = ingest_files(cluster)
            cold = ingest_files(cluster, files_per_node=1, seed=99, tag="cold")
            cluster.migrate([[0, 1, 2, 3]]).close_window()
            for fid in cold:
                cluster.delete_file(fid)
            report = cluster.gc_sweep()
            assert report.orphans_adopted == 0
            assert_all_restore(cluster, files)
        finally:
            cluster.shutdown()


class TestChunkRpcOps:
    def test_scatter_chunk_roundtrip_over_rpc(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            store = cluster.rings[0].store
            members = list(store.nodes)
            payloads = {f"fp{i}": bytes([i]) * 33 for i in range(4)}
            failures = store.scatter_put_chunks(
                {members[0]: list(payloads.items())}
            )
            assert failures[members[0]] is None
            got = store.scatter_get_chunks({members[0]: list(payloads)})
            assert {fp: d for fp, d in got[members[0]].items() if d is not None} == payloads
            assert set(store.node_chunk_keys(members[0])) == set(payloads)
            copies, freed = store.scatter_delete_chunks(members, list(payloads))
            assert copies == 4
            assert freed == 4 * 33
            assert store.node_chunk_keys(members[0]) == []
        finally:
            cluster.shutdown()

    def test_down_node_refuses_data_plane_serves_control(self, tmp_path):
        cluster = make_cluster(tmp_path)
        try:
            ring = cluster.rings[0]
            store = ring.store
            victim = ring.members[0]
            store.scatter_put_chunks({victim: [("fp", b"x" * 10)]})
            store.mark_down(victim)
            # Data plane refuses (treated as a miss / failure)...
            failures = store.scatter_put_chunks({victim: [("fp2", b"y")]})
            assert failures[victim] is not None
            got = store.scatter_get_chunks({victim: ["fp"]})
            assert got[victim].get("fp") is None
            # ...but the control plane still enumerates the shelf.
            assert store.node_chunk_keys(victim) == ["fp"]
            store.mark_up(victim)
        finally:
            cluster.shutdown()


class TestRestoreChaosScenario:
    def test_scenario_passes(self):
        from repro.chaos import run_restore_scenario

        report = run_restore_scenario(nodes=3, files_per_node=2, file_kb=8)
        assert report.passed, report.violations
        assert report.checks["ingested_degraded"]
        names = list(report.checks)
        assert names.index("stripes_match_fresh_encode") == names.index("backfill_complete") + 1
        assert report.checks["stripes_match_fresh_encode"]
        assert report.measurements["inconsistent_stripes"] == 0
        assert report.measurements["degraded_stripes_seen"] > 0
        assert report.measurements["chunks_swept"] > 0
