"""What a cluster's shutdown leaves behind.

- Freed on close: after ``shutdown()`` and the last outside reference is
  dropped, reference counting alone frees the cluster, its rings, their
  stores, replicas, node servers and connections, the tier and the content
  plane. The tests run with the cyclic collector disabled, so anything
  kept alive by a reference cycle shows up as a live weakref.
- Finality: an accounting-only cluster re-deploys after shutdown; a
  durable cluster's shutdown closes its refcount journal and is final.
"""

import gc
import weakref

import pytest

from repro.core.costs import SNOD2Problem
from repro.core.model import ChunkPoolModel, grouped_sources
from repro.network.costmatrix import latency_cost_matrix
from repro.network.topology import build_testbed
from repro.system.cluster import ClusterClosedError, DurableEFDedupCluster, EFDedupCluster
from repro.system.config import EFDedupConfig
from repro.system.reference import round_robin, seeded_pool_workload

NODES = 4
# A brownout ring (live only) without a content plane repairs its
# accounting from the cloud's duplicate signal, which must not need the ring.
KINDS = ("ring-inproc", "ring-live", "durable-inproc", "durable-live", "brownout-live")


def build(kind, tmp_path):
    """A deployed cluster of ``kind``: two rings of two members, an
    in-process or loopback index, with or without the payload plane (and
    for ``brownout-*``, an accounting-only cluster whose agents brown out)."""
    topology = build_testbed(NODES, NODES)
    problem = SNOD2Problem(
        model=ChunkPoolModel(
            [150.0, 150.0],
            grouped_sources([i % 2 for i in range(NODES)], [[0.9, 0.1], [0.1, 0.9]], 80.0),
        ),
        nu=latency_cost_matrix(topology),
        duration=2.0,
        gamma=2,
        alpha=50.0,
    )
    live = kind.endswith("live")
    config = EFDedupConfig(
        chunk_size=4096,
        replication_factor=2,
        lookup_batch=16,
        content_batch=8,
        transport="asyncio" if live else "inproc",
        data_dir=str(tmp_path / "wal") if live else None,
        ec_data_shards=2,
        ec_parity_shards=1,
        brownout=kind.startswith("brownout"),
    )
    if kind.startswith("durable"):
        cluster = DurableEFDedupCluster(
            topology, problem, config=config, journal_dir=str(tmp_path / "journal")
        )
    else:
        cluster = EFDedupCluster(topology, problem, config=config)
    cluster.partition = [[0, 1], [2, 3]]
    cluster.deploy()
    return cluster


def ingest(cluster, tag="f"):
    schedule = round_robin(seeded_pool_workload(NODES, 2, 16, seed=7))
    for i, (node_id, data) in enumerate(schedule):
        if isinstance(cluster, DurableEFDedupCluster):
            cluster.ingest_file(node_id, f"{tag}{i}", data)
        else:
            cluster.ingest(node_id, data)


def weakrefs(cluster) -> dict[str, weakref.ref]:
    """A weakref to every part of the deployment that should die with it."""
    parts = {"cluster": cluster}
    for ring in cluster.rings:
        name = ring.ring_id
        parts[name] = ring
        parts[f"{name}.store"] = ring.store
        live = ring.live_cluster
        if live is None:
            for node_id, replica in ring.store.nodes.items():
                parts[f"{name}.replica.{node_id}"] = replica
            continue
        parts[f"{name}.live"] = live
        parts[f"{name}.client"] = live.client
        for node_id, conn in live.client._conns.items():
            parts[f"{name}.client.conn.{node_id}"] = conn
        for node_id, server in live.servers.items():
            parts[f"{name}.server.{node_id}"] = server
            parts[f"{name}.replica.{node_id}"] = server.node
            for i, conn in enumerate(server._conns):
                parts[f"{name}.server.{node_id}.conn.{i}"] = conn
    if isinstance(cluster, DurableEFDedupCluster):
        parts["tier"] = cluster.tier
        parts["content_plane"] = cluster.content_plane
        parts["refcounts"] = cluster.gc
    return {name: weakref.ref(part) for name, part in parts.items()}


@pytest.mark.parametrize("kind", KINDS)
def test_a_closed_cluster_is_freed_by_reference_counting(kind, tmp_path):
    gc.collect()
    gc.disable()
    try:
        cluster = build(kind, tmp_path)
        ingest(cluster)
        refs = weakrefs(cluster)
        assert any(".conn." in name for name in refs) == kind.endswith("live")
        cluster.shutdown()
        del cluster
        alive = sorted(name for name, ref in refs.items() if ref() is not None)
        assert alive == []
        gc.set_debug(gc.DEBUG_SAVEALL)
        cyclic = gc.collect()
        # Only stdlib objects may be left to the collector: a closed live
        # connection's transport keeps its read callback as a bound method
        # of itself, which no program object can break.
        program = [o for o in gc.garbage if type(o).__module__.startswith("repro")]
        assert program == []
        if not kind.endswith("live"):
            assert cyclic == 0
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def test_an_accounting_cluster_redeploys_after_shutdown(tmp_path):
    cluster = build("ring-live", tmp_path)
    try:
        ingest(cluster)
        stored = cluster.cloud.stored_chunks
        cluster.shutdown()
        cluster.deploy()
        ingest(cluster)
        # The new rings' replicas reload the index from their WALs: every
        # chunk of the same files is a duplicate and nothing new is stored.
        stats = cluster.combined_stats()
        assert stats.raw_chunks > 0 and stats.unique_chunks == 0
        assert cluster.cloud.stored_chunks == stored
    finally:
        cluster.shutdown()


@pytest.mark.parametrize("kind", ["durable-inproc", "durable-live"])
def test_a_durable_clusters_shutdown_is_final(kind, tmp_path):
    cluster = build(kind, tmp_path)
    try:
        ingest(cluster)
    finally:
        cluster.shutdown()
    with pytest.raises(ClusterClosedError, match="refcounts.wal"):
        cluster.deploy()
        # Were deploy() to succeed, this would write through the closed
        # journal and fail as a bare ValueError.
        ingest(cluster, tag="again")
    cluster.shutdown()  # idempotent
    reopened = build(kind, tmp_path)  # the journal_dir carries on
    try:
        assert reopened.gc.tracked() == cluster.gc.tracked()
    finally:
        reopened.shutdown()
