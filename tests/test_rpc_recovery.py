"""Tests for live-ring crash recovery: kill/restart lifecycle, WAL-backed
durability, wire-level heartbeat detection, and Merkle anti-entropy under
its live-ring import name. The coordinator's own recovery protocol (hint
replay, degraded-key repair) is transport-independent and
lives in ``test_store_protocol.py``, which runs it over this transport too."""

import pytest

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.errors import UnavailableError
from repro.kvstore.gossip import PhiAccrualDetector
from repro.rpc import (
    FaultInjector,
    HeartbeatService,
    RemoteReplicaRepairer,
)
from repro.rpc.errors import RpcTimeoutError

from tests.conftest import FAST_RETRY, NODE_IDS, live_cluster


def keys_on(store, node_id: str, n: int = 8) -> list[str]:
    """``n`` keys that place a replica on ``node_id``."""
    found = []
    i = 0
    while len(found) < n:
        key = f"rk-{i}"
        if node_id in store.replicas_for(key):
            found.append(key)
        i += 1
    return found


class TestCrashRestartLifecycle:
    def test_restart_without_wal_recovers_via_anti_entropy(self):
        with live_cluster() as cluster:
            store = cluster.store
            victim = "n1"
            keys = keys_on(store, victim)
            store.put_if_absent_many(keys, "v")
            cluster.kill_node(victim)
            cluster.restart_node(victim, repair=False)
            # No WAL, no hints (writes predate the crash): the shard is empty
            # and verify_replication sees every key under-replicated.
            assert cluster.servers[victim].node._data == {}
            repairer = RemoteReplicaRepairer(store)
            assert repairer.verify_replication()
            repairer.repair_node(victim)
            assert repairer.verify_replication() == []
            assert cluster.servers[victim].node.dump()[keys[0]][0] == "v"

    def test_restart_with_wal_restores_pre_crash_shard(self, tmp_path):
        with live_cluster(data_dir=str(tmp_path)) as cluster:
            store = cluster.store
            victim = "n1"
            keys = keys_on(store, victim)
            store.put_if_absent_many(keys, "v")
            held_before = {
                k for k in keys if k in cluster.servers[victim].node._data
            }
            assert held_before
            cluster.kill_node(victim)
            cluster.restart_node(victim, repair=False)
            shard = cluster.servers[victim].node._data
            assert held_before <= set(shard)  # reloaded from disk, not hints
            stats = cluster.wal_stats()[victim]
            assert (
                stats["log_entries_replayed"] + stats["snapshot_entries_loaded"]
                >= len(held_before)
            )

    def test_writes_during_downtime_arrive_as_hints(self):
        with live_cluster() as cluster:
            store = cluster.store
            victim = "n2"
            cluster.kill_node(victim)
            keys = keys_on(store, victim, n=4)
            store.put_if_absent_many(keys, "while-down")
            assert store.hints.pending_for(victim) == len(keys)
            cluster.restart_node(victim)
            assert store.hints.pending_for(victim) == 0
            assert store.stats.hints_replayed == len(keys)
            for k in keys:
                assert cluster.servers[victim].node.dump()[k][0] == "while-down"

    def test_kill_is_idempotent_and_restart_requires_killed(self):
        with live_cluster() as cluster:
            cluster.kill_node("n1")
            cluster.kill_node("n1")  # no-op
            with pytest.raises(RuntimeError, match="not killed"):
                cluster.restart_node("n0")
            with pytest.raises(KeyError):
                cluster.kill_node("ghost")


class TestRemoteAntiEntropy:
    def test_repair_all_converges_and_is_idempotent(self):
        with live_cluster() as cluster:
            store = cluster.store
            store.put_if_absent_many([f"k{i}" for i in range(30)], "v")
            # One replica silently loses part of its shard.
            shard = cluster.servers["n0"].node._data
            for k in list(shard)[:5]:
                del shard[k]
            repairer = RemoteReplicaRepairer(store)
            first = repairer.repair_all()
            assert first.synced_keys >= 5
            second = RemoteReplicaRepairer(store).repair_all()
            assert second.synced_keys == 0
            assert RemoteReplicaRepairer(store).verify_replication() == []

    def test_newest_value_wins_across_the_wire(self):
        with live_cluster() as cluster:
            store = cluster.store
            store.put_if_absent_many(["k"], "old")
            holders = [
                nid for nid in NODE_IDS
                if "k" in cluster.servers[nid].node._data
            ]
            cluster.servers[holders[0]].node.multi_put([("k", "newer", 10**15, False)])
            RemoteReplicaRepairer(store).repair_all()
            for nid in holders:
                assert cluster.servers[nid].node.dump()["k"][0] == "newer"

    def test_repair_skips_down_replicas(self):
        with live_cluster() as cluster:
            store = cluster.store
            store.put_if_absent_many([f"k{i}" for i in range(10)], "v")
            store.mark_down("n1")
            stats = RemoteReplicaRepairer(store).repair_all()
            assert stats.pairs_checked > 0  # alive pairs still compared
            # verify_replication only audits alive replicas.
            assert RemoteReplicaRepairer(store).verify_replication() == []


class TestHeartbeatDetection:
    def _service(self, store) -> HeartbeatService:
        return HeartbeatService(
            store,
            interval_s=0.5,
            detector=PhiAccrualDetector(threshold=2, default_interval_s=0.5),
        )

    def test_crash_is_detected_from_missed_heartbeats(self):
        with live_cluster() as cluster:
            store = cluster.store
            service = self._service(store)
            for i in range(5):
                service.poll_once(now=float(i) * 0.5)
            assert store.alive_nodes() == NODE_IDS
            cluster.kill_node("n2", mark_down=False)  # detection is earned
            assert "n2" in store.alive_nodes()  # not yet noticed
            service.poll_once(now=60.0)
            assert "n2" not in store.alive_nodes()
            assert service.ping_failures >= 1
            assert (60.0, "n2", "down") in service.monitor.transitions

    def test_recovered_node_is_marked_up_by_the_prober(self):
        with live_cluster() as cluster:
            store = cluster.store
            service = self._service(store)
            for i in range(5):
                service.poll_once(now=float(i) * 0.5)
            cluster.kill_node("n2", mark_down=False)
            service.poll_once(now=60.0)
            assert "n2" not in store.alive_nodes()
            cluster.restart_node("n2", repair=False)
            # The prober observes the returned server and must not flap the
            # member back to down.
            service.poll_once(now=60.5)
            service.poll_once(now=61.0)
            assert "n2" in store.alive_nodes()

    def test_admin_down_is_not_fought_by_the_sweeper(self):
        with live_cluster() as cluster:
            store = cluster.store
            service = self._service(store)
            for i in range(5):
                service.poll_once(now=float(i) * 0.5)
            store.mark_down("n1")  # operator decision; server still answers
            service.poll_once(now=60.0)
            assert "n1" not in store.alive_nodes()

    def test_interval_validation(self):
        with live_cluster() as cluster:
            with pytest.raises(ValueError):
                HeartbeatService(cluster.store, interval_s=0.0)

    def test_cluster_runs_the_prober_when_configured(self):
        with live_cluster(heartbeat_interval_s=0.05) as cluster:
            assert cluster.heartbeats is not None
            assert cluster.heartbeats.running
            snap = cluster.heartbeats.snapshot()
            assert "pings" in snap and "suspicions" in snap


class TestPartialQuorumAudit:
    def test_unavailable_write_buffers_no_hints_even_on_retry(self):
        """A write that cannot reach its consistency level raises
        UnavailableError and leaves the hint buffer untouched — retrying
        must not double-buffer."""
        with live_cluster(
            consistency=ConsistencyLevel.QUORUM
        ) as cluster:
            store = cluster.store
            victim = "n1"
            key = keys_on(store, victim, n=1)[0]
            store.mark_down(victim)
            for _ in range(2):  # the retry is the regression
                with pytest.raises(UnavailableError):
                    store.put_if_absent_many([key], "v")
            assert store.stats.unavailable_errors == 2
            assert store.hints.total_pending == 0

    def test_silent_replica_fails_quorum_without_hints(self):
        """The replica is *believed* alive but every reply is lost: a
        QUORUM batch reads it before writing, so the batch fails as a typed
        timeout, applies nothing and hints nothing, however often it is
        retried. (A lost *write* ack below the level is the seam case of
        ``test_store_protocol``.)"""
        injector = FaultInjector()
        with live_cluster(
            fault_injector=injector,
            timeout_s=0.05,
            retry=FAST_RETRY,
            consistency=ConsistencyLevel.QUORUM,
        ) as cluster:
            store = cluster.store
            key = keys_on(store, "n2", n=1)[0]
            injector.drop_responses(dst="n2")
            for _ in range(2):
                with pytest.raises(RpcTimeoutError):
                    store.put_if_absent_many([key], "v", coordinator="n0")
            assert store.hints.total_pending == 0
            assert all(key not in s.node._data for s in cluster.servers.values())
