"""The metrics vocabulary, pinned from outside.

Three deployment kinds cover every mount point a ring or a cluster
registers. For each, the sorted series names of
``cluster.metrics_hub().collect()`` must equal a list checked in under
``tests/metric_names/`` — generated from the export as it stood *before*
stats objects became plain dataclasses, so a renamed field, a dropped mount
or a changed prefix fails here instead of silently changing a dashboard.
"""

from __future__ import annotations

import contextlib
import dataclasses
from pathlib import Path

import pytest

from repro.system.migration import DualLookupIndex, MigrationReport
from repro.system.reference import reference_cluster, seeded_pool_workload

NAME_LISTS = Path(__file__).parent / "metric_names"
SEED = 7


def _ingest(cluster, workloads) -> None:
    for node_id, files in workloads.items():
        for data in files:
            cluster.ingest(node_id, data)


@contextlib.contextmanager
def inproc_deployment(tmp_path):
    """Two in-process rings, agent caches, one committed live migration."""
    with reference_cluster(6, [[0, 1, 2], [3, 4, 5]], cache_capacity=512) as cluster:
        _ingest(cluster, seeded_pool_workload(6, 2, 16, seed=SEED))
        migrator = cluster.migrate([[0, 1], [2, 3, 4, 5]])
        _ingest(cluster, seeded_pool_workload(6, 1, 16, seed=SEED + 1))
        migrator.close_window()
        yield cluster


@contextlib.contextmanager
def live_deployment(tmp_path):
    """One live ring with WAL, admission control, breakers, brownout and
    caches on (no heartbeat prober: its pings would make which
    ``by_method.ping`` series exist depend on timing)."""
    with reference_cluster(
        3,
        [[0, 1, 2]],
        transport="asyncio",
        data_dir=str(tmp_path / "wal"),
        admission_queue=64,
        breaker_failures=3,
        brownout=True,
        cache_capacity=64,
    ) as cluster:
        _ingest(cluster, seeded_pool_workload(3, 2, 16, seed=SEED))
        yield cluster


@contextlib.contextmanager
def durable_deployment(tmp_path):
    """Payload plane over two live rings + secure tier, with a hot-index
    cutover committed."""
    with reference_cluster(
        4,
        [[0, 1], [2, 3]],
        durable=True,
        journal_dir=str(tmp_path / "gc"),
        transport="asyncio",
        secure=True,
        hot_index_size=8,
    ) as cluster:
        workloads = seeded_pool_workload(4, 2, 16, seed=SEED)
        for node_id, files in workloads.items():
            cluster.ingest_file(node_id, f"{node_id}/0", files[0])
        cluster.migrate_hot_index()
        for node_id, files in workloads.items():
            cluster.ingest_file(node_id, f"{node_id}/1", files[1])
        cluster.close_hot_index_window()
        cluster.restore_file("edge-0/0")
        yield cluster


DEPLOYMENTS = {
    "inproc": inproc_deployment,
    "live": live_deployment,
    "durable": durable_deployment,
}


@pytest.mark.parametrize("kind", sorted(DEPLOYMENTS))
def test_hub_export_is_the_checked_in_name_list(kind, tmp_path):
    expected = (NAME_LISTS / f"{kind}.txt").read_text().split()
    with DEPLOYMENTS[kind](tmp_path) as cluster:
        names = sorted(cluster.metrics_hub().collect())
    assert names == expected


def _mounted_stats(cluster):
    """Every ``(mount, stats object)`` pair a ring or the cluster registers
    (one representative object where a mount sums several)."""
    for ring in cluster.rings:
        prefix = f"{ring.ring_id}."
        yield f"{prefix}kvstore", ring.store.stats
        for index in ring.ring_indexes.values():
            yield f"{prefix}lookups", index.lookups
        for cache in ring._agent_caches():
            yield f"{prefix}cache", cache.stats
        for brownout in ring.brownouts.values():
            yield f"{prefix}brownout", brownout.stats
        if ring.content is not None:
            yield f"{prefix}content", ring.content.stats
        if ring.is_live:
            live = ring.live_cluster
            yield f"{prefix}rpc", live.client.stats
            for wal in live.wals.values():
                yield f"{prefix}rpc.wal", wal.stats
            for node_id, server in live.servers.items():
                yield f"{prefix}rpc.server.{node_id}", server.stats
    if cluster.last_migration is not None:
        yield "migration", cluster.last_migration
    if cluster.content_plane is not None:
        yield "content.plane", cluster.content_plane.stats
    if cluster.secure is not None:
        yield "secure", cluster.secure.stats
        yield "secure.pow", cluster.secure.pow.stats
        yield "secure.hotindex", cluster.secure.hotindex.report


@pytest.mark.parametrize("kind", sorted(DEPLOYMENTS))
def test_every_numeric_field_of_a_mounted_stats_object_is_a_series(kind, tmp_path):
    """Fields are names: nobody types a counter's name a second time, so a
    field added to a stats dataclass later is exported by construction."""
    with DEPLOYMENTS[kind](tmp_path) as cluster:
        collected = cluster.metrics_hub().collect()
        pairs = list(_mounted_stats(cluster))
    assert len({mount for mount, _ in pairs}) >= 5
    for mount, stats in pairs:
        numeric = [
            f.name
            for f in dataclasses.fields(stats)
            if isinstance(getattr(stats, f.name), (int, float))
        ]
        assert numeric, mount
        for name in numeric:
            assert f"{mount}.{name}" in collected, f"{mount}.{name} not exported"


class TestWrapperWalk:
    """``D2Ring._agent_caches`` steps down an agent's index stack by
    identity, never by truthiness (an index's ``bool`` is its ``__len__``)."""

    def test_invalidation_on_a_live_ring_dumps_no_shard(self):
        with reference_cluster(
            3, [[0, 1, 2]], transport="asyncio", cache_capacity=64
        ) as cluster:
            ring = cluster.rings[0]
            _ingest(cluster, seeded_pool_workload(3, 1, 16, seed=SEED))
            client = ring.live_cluster.client
            before = dict(client.stats.by_method)
            ring.invalidate_cached_presence(["ab" * 32])
            assert client.stats.by_method == before
            assert "dump" not in client.stats.by_method

    def test_cache_series_survive_an_open_migration_window(self):
        with reference_cluster(6, [[0, 1, 2], [3, 4, 5]], cache_capacity=512) as cluster:
            _ingest(cluster, seeded_pool_workload(6, 2, 16, seed=SEED))
            migrator = cluster.migrate([[0, 1], [2, 3, 4, 5]])
            _ingest(cluster, seeded_pool_workload(6, 1, 16, seed=SEED + 1))
            destination = cluster.ring_for("edge-2")
            in_window = destination.cache_metrics()
            collected = cluster.metrics_hub().collect()
            migrator.close_window()
            assert in_window and in_window["misses"] > 0
            assert f"{destination.ring_id}.cache.hits" in collected
            # The window only adds a wrapper: closing it changes no counter.
            assert destination.cache_metrics() == in_window

    def test_walk_finds_a_cache_under_a_wrapper_while_the_index_is_empty(self):
        with reference_cluster(2, [[0, 1]], cache_capacity=8) as cluster:
            ring = cluster.rings[0]
            engine = ring.agent("edge-0").engine
            cache = engine.index
            engine.index = DualLookupIndex(
                cache, lambda fps: [False] * len(fps), MigrationReport()
            )
            assert len(engine.index) == 0  # so bool(wrapper) is False
            assert list(ring._agent_caches("edge-0")) == [cache]
