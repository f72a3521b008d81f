"""Tests for the live asyncio transport: a RemoteKVStore coordinating real
TCP node servers must behave — operation results, stats accounting, failure
semantics — exactly like the in-process DistributedKVStore, with transport
faults (drops, delays, duplicates, partitions) masked by retries or surfaced
as typed errors."""

import asyncio
import socket

import pytest

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.errors import NoSuchNodeError, UnavailableError
from repro.kvstore.store import DistributedKVStore
from repro.rpc import (
    CallPolicy,
    FaultInjector,
    LiveKVCluster,
    NodeSpec,
    Request,
    RetryPolicy,
    RpcConnectionError,
    RpcTimeoutError,
    available_codecs,
    get_codec,
)
from repro.rpc.framing import decode_frame, encode_frame

from tests.conftest import FAST_RETRY, NODE_IDS, live_cluster



def key_with_replicas(store, order: list) -> str:
    """A key whose replica list is exactly ``order`` (placement *and*
    preference order — the first entry is the node a non-replica
    coordinator's read consults)."""
    for i in range(10_000):
        key = f"probe-{i}"
        if store.replicas_for(key) == order:
            return key
    raise AssertionError("no suitable key found")


class TestBasicOperations:
    def test_put_get_roundtrip_crosses_the_wire(self):
        with live_cluster() as cluster:
            store = cluster.store
            store.put("k", "v", coordinator="n0")
            assert store.get("k", coordinator="n1") == "v"
            assert store.contains("k", coordinator="n2")
            assert store.get("missing") is None
            # the data really lives on server shards, not in the client
            holders = [s for s in cluster.servers.values() if "k" in s.node._data]
            assert len(holders) == 2  # γ replicas

    def test_put_if_absent_semantics(self):
        with live_cluster() as cluster:
            store = cluster.store
            assert store.put_if_absent("fp", "a", coordinator="n0") is True
            assert store.put_if_absent("fp", "b", coordinator="n1") is False
            assert store.get("fp") == "a"

    def test_delete_tombstones_the_key(self):
        with live_cluster() as cluster:
            store = cluster.store
            store.put("k", "v")
            assert store.delete("k") is True
            assert store.get("k") is None
            assert store.delete("k") is False
            assert "k" not in store.unique_keys()

    def test_batched_put_if_absent_handles_intra_batch_repeats(self):
        with live_cluster() as cluster:
            results = cluster.store.put_if_absent_many(
                ["a", "b", "a", "c", "b"], "m", coordinator="n0"
            )
            assert results == [True, True, False, True, False]

    def test_quorum_reads_see_quorum_writes(self):
        with live_cluster(consistency=ConsistencyLevel.QUORUM) as cluster:
            store = cluster.store
            store.put("k", "v", coordinator="n0")
            assert store.get("k", coordinator="n2") == "v"

    def test_unique_keys_is_an_operator_view_including_down_nodes(self):
        with live_cluster() as cluster:
            store = cluster.store
            store.put_if_absent_many(["a", "b", "c"], "m")
            store.mark_down("n1")
            assert store.unique_keys() == {"a", "b", "c"}

    def test_ping_and_stats_snapshot(self):
        with live_cluster() as cluster:
            rtts = cluster.store.ping_all()
            assert set(rtts) == set(NODE_IDS)
            assert all(rtt > 0 for rtt in rtts.values())
            assert cluster.client.stats.calls == 3
            assert cluster.client.stats.retries == 0

    def test_membership_change_edge_cases_live(self):
        with live_cluster() as cluster:
            # Joining needs a reachable address for the newcomer.
            with pytest.raises(NoSuchNodeError):
                cluster.store.add_node("n9")
            with pytest.raises(ValueError):
                cluster.store.add_node("n0", address=("127.0.0.1", 1))
            with pytest.raises(NoSuchNodeError):
                cluster.store.remove_node("n9")

    def test_unknown_node_rejected(self):
        with live_cluster() as cluster:
            with pytest.raises(NoSuchNodeError):
                cluster.store.mark_down("n9")


class TestParityWithInProcessStore:
    """The live store must be indistinguishable from DistributedKVStore in
    results *and* accounting on the same operation sequence."""

    def run_sequence(self, store):
        outcomes = []
        outcomes.append(store.put_if_absent("fp0", "m", coordinator="n0"))
        outcomes.append(
            store.put_if_absent_many(
                ["fp1", "fp2", "fp1", "fp3"], "m", coordinator="n0"
            )
        )
        outcomes.append(
            store.put_if_absent_many(["fp2", "fp4"], "m", coordinator="n1")
        )
        outcomes.append(store.get("fp4", coordinator="n2"))
        store.put("fp5", "x", coordinator="n1")
        outcomes.append(store.delete("fp0", coordinator="n2"))
        return outcomes

    def test_results_stats_and_keys_match(self):
        inproc = DistributedKVStore(NODE_IDS, replication_factor=2)
        expected = self.run_sequence(inproc)
        with live_cluster() as cluster:
            live = cluster.store
            assert self.run_sequence(live) == expected
            assert live.unique_keys() == inproc.unique_keys()
            assert live.total_stored_entries() == inproc.total_stored_entries()
            for field in (
                "reads",
                "writes",
                "local_reads",
                "remote_reads",
                "remote_contacts",
                "batch_rounds",
                "hints_stored",
                "unavailable_errors",
            ):
                assert getattr(live.stats, field) == getattr(inproc.stats, field), field
            assert live.stats.per_pair_contacts == inproc.stats.per_pair_contacts

    def test_batch_messages_one_per_contacted_node(self):
        """A batch costs one multi_get per consulted node and one multi_put
        per written node — not one message per key."""
        with live_cluster() as cluster:
            keys = [f"fp{i}" for i in range(50)]
            cluster.store.put_if_absent_many(keys, "m", coordinator="n0")
            by_method = cluster.client.stats.by_method
            assert by_method["multi_get"] <= len(NODE_IDS)
            assert by_method["multi_put"] <= len(NODE_IDS)


class TestFailureSemantics:
    def test_unavailable_when_too_few_replicas_alive(self):
        with live_cluster(consistency=ConsistencyLevel.ALL) as cluster:
            store = cluster.store
            store.mark_down("n1")
            key = key_with_replicas(store, ["n1", "n2"])
            with pytest.raises(UnavailableError):
                store.put(key, "v")
            assert store.stats.unavailable_errors == 1

    def test_hinted_handoff_converges_after_recovery(self):
        """Replica down during put_if_absent_many → hints buffer the misses;
        mark_up replays them and every replica set agrees byte-for-byte."""
        with live_cluster() as cluster:
            store = cluster.store
            store.mark_down("n1")
            keys = [f"fp{i}" for i in range(30)]
            results = store.put_if_absent_many(keys, "meta", coordinator="n0")
            assert all(results)  # γ=2: one replica alive suffices at ONE
            hinted = [k for k in keys if "n1" in store.replicas_for(k)]
            assert hinted, "expected some keys to replicate onto the down node"
            assert store.hints.pending_for("n1") == len(hinted)
            assert cluster.servers["n1"].node._data == {}  # nothing leaked
            store.mark_up("n1")
            assert store.stats.hints_replayed == len(hinted)
            assert store.hints.total_pending == 0
            for key in keys:
                versions = {
                    cluster.servers[r].node._data[key]
                    for r in store.replicas_for(key)
                }
                assert len(versions) == 1, f"replicas disagree on {key!r}"

    def test_hint_window_overflow_counts_drops(self):
        with live_cluster(max_hints_per_node=5) as cluster:
            store = cluster.store
            store.mark_down("n1")
            keys = [f"fp{i}" for i in range(60)]
            store.put_if_absent_many(keys, "m", coordinator="n0")
            hinted = [k for k in keys if "n1" in store.replicas_for(k)]
            assert len(hinted) > 5
            assert store.stats.hints_stored == 5
            assert store.hints.dropped == len(hinted) - 5
            # replay only restores the buffered window
            store.mark_up("n1")
            assert store.stats.hints_replayed == 5


class TestRetriesAndFaults:
    def test_dropped_requests_are_masked_by_retries(self):
        injector = FaultInjector()
        injector.drop_requests(times=2)
        with live_cluster(
            fault_injector=injector, timeout_s=0.05, retry=FAST_RETRY
        ) as cluster:
            results = cluster.store.put_if_absent_many(
                [f"k{i}" for i in range(10)], "m", coordinator="n0"
            )
            assert all(results)
            assert cluster.client.stats.retries >= 2
            assert injector.stats.dropped_requests == 2
            assert cluster.store.unique_keys() == {f"k{i}" for i in range(10)}

    def test_delays_within_timeout_do_not_retry(self):
        injector = FaultInjector()
        injector.delay_requests(0.01)
        with live_cluster(fault_injector=injector, timeout_s=0.5) as cluster:
            assert cluster.store.put_if_absent("k", "m", coordinator="n0")
            assert cluster.client.stats.retries == 0
            assert injector.stats.delayed_requests > 0

    def test_duplicate_requests_are_absorbed_by_the_idempotency_cache(self):
        injector = FaultInjector()
        injector.duplicate_requests()
        with live_cluster(fault_injector=injector) as cluster:
            results = cluster.store.put_if_absent_many(
                [f"k{i}" for i in range(10)], "m", coordinator="n0"
            )
            assert all(results)
            replays = sum(s.stats.replays for s in cluster.servers.values())
            assert replays > 0  # duplicates arrived and were answered from cache
            assert cluster.store.unique_keys() == {f"k{i}" for i in range(10)}

    def test_payload_reads_are_not_retained_for_replay(self):
        """The idempotency cache remembers replies so a retried *write* is
        never applied twice. A chunk read changes nothing, so its reply —
        the payload bytes — must not sit in that cache: on a long-lived
        node every restore would otherwise pin its bytes a second time."""
        injector = FaultInjector()
        with live_cluster(fault_injector=injector) as cluster:
            store = cluster.store
            chunks = [(f"fp{i}", bytes([i]) * 2048) for i in range(8)]
            assert store.scatter_put_chunks({"n0": chunks}) == {"n0": None}
            server = cluster.servers["n0"]
            cached_writes = len(server._seen)
            assert cached_writes >= 1  # put_chunks is a write: exact replay kept
            wanted = [fp for fp, _ in chunks]
            for _ in range(20):
                assert store.scatter_get_chunks({"n0": wanted})["n0"] == dict(chunks)
            assert store.node_chunk_dump("n0") == dict(chunks)
            assert len(server._seen) == cached_writes
            for response in server._seen.values():
                assert "chunks" not in (response.result or {})
            # A duplicated delivery of a read re-executes and answers the same.
            injector.duplicate_requests()
            replays = server.stats.replays
            assert store.scatter_get_chunks({"n0": wanted})["n0"] == dict(chunks)
            assert server.stats.replays == replays
            assert server.stats.by_method["get_chunks"] >= 22

    def test_partition_exhausts_retries_into_typed_timeout(self):
        injector = FaultInjector()
        with live_cluster(
            fault_injector=injector, timeout_s=0.05, retry=FAST_RETRY
        ) as cluster:
            store = cluster.store
            # the read from non-replica coordinator n0 consults n1 first
            key = key_with_replicas(store, ["n1", "n2"])
            injector.partition("n0", "n1")
            with pytest.raises(RpcTimeoutError) as excinfo:
                store.get(key, coordinator="n0")
            assert excinfo.value.node_id == "n1"
            assert excinfo.value.attempts == FAST_RETRY.attempts
            injector.heal("n0", "n1")
            store.put(key, "v", coordinator="n0")
            assert store.get(key, coordinator="n0") == "v"

    def test_dropped_response_retry_never_double_applies_the_claim(self):
        """The server applies a write, the network eats the reply, the client
        retries: the idempotency cache must answer the retry without
        re-executing, and the claim must be counted exactly once."""
        injector = FaultInjector()
        with live_cluster(
            fault_injector=injector, timeout_s=0.05, retry=FAST_RETRY
        ) as cluster:
            store = cluster.store
            # a key replicated on [n1, n2] with coordinator n0: the read
            # round consults n1 only, the write round touches both — aim the
            # response drop at n2 so only the non-idempotent write retries.
            key = key_with_replicas(store, ["n1", "n2"])
            injector.drop_responses(dst="n2", times=1)
            assert store.put_if_absent(key, "m", coordinator="n0") is True
            server = cluster.servers["n2"]
            executed = server.stats.by_method["multi_put"] - server.stats.replays
            assert executed == 1  # delivered twice, applied once
            assert server.stats.replays >= 1
            assert cluster.client.stats.retries >= 1
            assert store.stats.writes == 1
            versions = {
                cluster.servers[r].node._data[key] for r in store.replicas_for(key)
            }
            assert len(versions) == 1

    def test_exhausted_write_succeeds_at_level_and_hints_the_silent_replica(self):
        """Every reply from one replica is lost: with CL.ONE the other
        replica's ack satisfies the write, the silent replica is hinted,
        and (idempotency cache) it still applied the write exactly once."""
        injector = FaultInjector()
        with live_cluster(
            fault_injector=injector, timeout_s=0.05, retry=FAST_RETRY
        ) as cluster:
            store = cluster.store
            key = key_with_replicas(store, ["n1", "n2"])
            injector.drop_responses(dst="n2")
            assert store.put_if_absent(key, "m", coordinator="n0") is True
            assert store.stats.hints_stored == 1
            assert store.hints.pending_for("n2") == 1
            server = cluster.servers["n2"]
            executed = server.stats.by_method["multi_put"] - server.stats.replays
            assert executed == 1
            assert server.stats.replays == FAST_RETRY.attempts - 1


class TestClusterLifecycle:
    def test_close_is_idempotent(self):
        cluster = live_cluster()
        cluster.store.put("k", "v")
        cluster.close()
        cluster.close()

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValueError):
            LiveKVCluster([NodeSpec("a"), NodeSpec("a")], CallPolicy())

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            LiveKVCluster([], CallPolicy())

    def test_server_stats_expose_request_counts(self):
        with live_cluster() as cluster:
            cluster.store.put_if_absent_many(["a", "b"], "m", coordinator="n0")
            stats = cluster.server_stats()
            assert sum(s["requests"] for s in stats.values()) > 0


class TestConnections:
    def test_concurrent_first_calls_share_one_connect(self):
        """Sixteen first calls racing to a fresh peer open one connection;
        none is orphaned with its reader task still pending after close."""

        async def first_pings(client):
            await asyncio.gather(*(client.ping("n0") for _ in range(16)))

        async def read_loops_pending():
            return [
                task for task in asyncio.all_tasks()
                if "_read_loop" in task.get_coro().__qualname__
            ]

        with live_cluster() as cluster:
            cluster._run(first_pings(cluster.client))
            assert cluster.servers["n0"].stats.connections == 1
            assert len(cluster.client._conns) == 1
            cluster._run(cluster.client.close())
            assert cluster._run(read_loops_pending()) == []

    def test_a_failed_connect_fails_every_waiter_once(self):
        async def first_pings(client):
            return await asyncio.gather(
                *(client.ping("ghost") for _ in range(4)), return_exceptions=True
            )

        with live_cluster(retry=RetryPolicy(attempts=1)) as cluster:
            cluster.client.register_node("ghost", "127.0.0.1", 1)
            errors = cluster._run(first_pings(cluster.client))
            assert all(isinstance(e, RpcConnectionError) for e in errors), errors
            assert cluster.client._connecting == {}

    @pytest.mark.parametrize("codec", sorted(available_codecs()))
    def test_a_server_answers_in_the_codec_its_request_named(self, codec):
        with live_cluster() as cluster:
            request = encode_frame(Request("probe", "ping", {}).to_wire(), get_codec(codec))
            with socket.create_connection(cluster.servers["n0"].address, timeout=5) as sock:
                sock.sendall(request)
                reply = b""
                while len(reply) < 5 or len(reply) < 4 + int.from_bytes(reply[:4], "big"):
                    chunk = sock.recv(4096)
                    assert chunk, "server closed before answering"
                    reply += chunk
            assert reply[4] == get_codec(codec).wire_id
            message, _ = decode_frame(reply)
            assert message["result"] == {"node": "n0", "up": True}
