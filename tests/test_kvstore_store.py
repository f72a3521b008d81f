"""Tests for the distributed KV store: reads/writes, consistency levels,
failures, hinted handoff, and membership changes."""

import pytest

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.errors import NodeDownError, NoSuchNodeError, UnavailableError
from repro.kvstore.hints import Hint, HintBuffer
from repro.kvstore.replica import Replica
from repro.kvstore.store import DistributedKVStore


def make_store(n: int = 5, rf: int = 2, **kwargs) -> DistributedKVStore:
    return DistributedKVStore([f"n{i}" for i in range(n)], replication_factor=rf, **kwargs)


def replica_values(store: DistributedKVStore, key: str) -> set:
    """The value each of ``key``'s replicas holds (None where absent)."""
    return {
        (store.nodes[r].multi_get([key])[key] or (None,))[0] for r in store.replicas_for(key)
    }


class TestConsistencyLevels:
    def test_one(self):
        assert ConsistencyLevel.ONE.required_acks(3) == 1

    def test_quorum(self):
        assert ConsistencyLevel.QUORUM.required_acks(1) == 1
        assert ConsistencyLevel.QUORUM.required_acks(2) == 2
        assert ConsistencyLevel.QUORUM.required_acks(3) == 2
        assert ConsistencyLevel.QUORUM.required_acks(5) == 3

    def test_all(self):
        assert ConsistencyLevel.ALL.required_acks(3) == 3

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            ConsistencyLevel.ONE.required_acks(0)


class TestStorageNode:
    """One replica's shard, through its batched verbs."""

    def test_put_get_roundtrip(self):
        node = Replica("n")
        node.multi_put([("k", "v", 1, False)])
        assert node.multi_get(["k", "absent"]) == {"k": ("v", 1, False), "absent": None}

    def test_last_write_wins(self):
        node = Replica("n")
        node.multi_put([("k", "old", 2, False)])
        node.multi_put([("k", "stale", 1, False)])  # older: ignored
        node.multi_put([("k", "new", 3, False)])
        assert node.multi_get(["k"])["k"] == ("new", 3, False)

    def test_down_node_rejects_requests(self):
        node = Replica("n")
        node.set_down(True)
        with pytest.raises(NodeDownError):
            node.multi_get(["k"])
        with pytest.raises(NodeDownError):
            node.multi_put([("k", "v", 1, False)])

    def test_recovery_preserves_data(self):
        node = Replica("n")
        node.multi_put([("k", "v", 1, False)])
        node.set_down(True)
        node.set_down(False)
        assert node.multi_get(["k"])["k"] == ("v", 1, False)

    def test_delete(self):
        # A delete is a newer tombstone: it stays in the shard (so it can
        # win last-write-wins elsewhere) and shadows the value.
        node = Replica("n")
        node.multi_put([("k", "v", 1, False)])
        node.multi_put([("k", "", 2, True)])
        assert node.multi_get(["k"])["k"] == ("", 2, True)
        node.multi_put([("k", "v", 1, False)])  # the older write stays shadowed
        assert node.dump() == {"k": ("", 2, True)}

    def test_key_count_allowed_while_down(self):
        node = Replica("n")
        node.multi_put([("k", "v", 1, False)])
        node.set_down(True)
        assert node.key_count() == 1


class TestBasicOps:
    def test_put_get(self):
        store = make_store()
        assert store.put_if_absent_many(["k"], "v") == [True]
        assert store.contains_many(["k"]) == [True]
        assert replica_values(store, "k") == {"v"}

    def test_get_missing_returns_none(self):
        assert make_store().contains_many(["missing"]) == [False]

    def test_contains(self):
        store = make_store()
        assert store.contains_many(["k", "j"]) == [False, False]
        store.put_if_absent_many(["k"], "v")
        assert store.contains_many(["k", "j", "k"]) == [True, False, True]

    def test_put_if_absent(self):
        store = make_store()
        assert store.put_if_absent_many(["k"], "v1") == [True]
        assert store.put_if_absent_many(["k"], "v2") == [False]
        assert replica_values(store, "k") == {"v1"}
        # An intra-batch repeat is a duplicate of the first occurrence.
        assert store.put_if_absent_many(["j", "j", "k"], "v") == [True, False, False]

    def test_delete(self):
        store = make_store()
        store.put_if_absent_many(["k"], "v")
        assert store.delete_many(["k"]) == 1
        assert store.contains_many(["k"]) == [False]
        assert store.delete_many(["k"]) == 0

    def test_replication_factor_copies(self):
        store = make_store(n=5, rf=3)
        store.put_if_absent_many([f"k{i}" for i in range(100)], "v")
        assert len(store) == 100
        assert store.total_stored_entries() == 300

    def test_unique_keys(self):
        store = make_store()
        store.put_if_absent_many(["a", "b"], "v")
        assert store.unique_keys() == {"a", "b"}

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DistributedKVStore(["a", "a"])

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            DistributedKVStore([])


class TestFailures:
    def test_read_survives_one_replica_down(self):
        store = make_store(n=5, rf=2)
        store.put_if_absent_many(["k"], "v")
        store.mark_down(store.replicas_for("k")[0])
        assert store.contains_many(["k"], coordinator="n0") == [True]

    def test_unavailable_when_all_replicas_down(self):
        store = make_store(n=5, rf=2)
        store.put_if_absent_many(["k"], "v")
        for replica in store.replicas_for("k"):
            store.mark_down(replica)
        with pytest.raises(UnavailableError):
            store.contains_many(["k"])
        assert store.stats.unavailable_errors == 1

    def test_quorum_write_fails_with_one_of_two_down(self):
        store = make_store(n=5, rf=2)
        down = store.replicas_for("k")[0]
        store.mark_down(down)
        with pytest.raises(UnavailableError):
            store.put_if_absent_many(["k"], "v", consistency=ConsistencyLevel.QUORUM)
        assert store.unique_keys() == set()

    def test_one_write_succeeds_with_one_of_two_down(self):
        store = make_store(n=5, rf=2)
        store.mark_down(store.replicas_for("k")[0])
        store.put_if_absent_many(["k"], "v", consistency=ConsistencyLevel.ONE)
        assert store.contains_many(["k"]) == [True]

    def test_mark_down_unknown_node(self):
        with pytest.raises(NoSuchNodeError):
            make_store().mark_down("ghost")

    def test_hinted_handoff_replays_on_recovery(self):
        store = make_store(n=5, rf=2)
        down = store.replicas_for("k")[0]
        store.mark_down(down)
        store.put_if_absent_many(["k"], "v")
        assert store.hints.pending_for(down) == 1
        store.mark_up(down)
        assert store.hints.pending_for(down) == 0
        assert store.nodes[down].multi_get(["k"])["k"][0] == "v"
        assert store.stats.hints_replayed == 1

    def test_full_replica_count_restored_after_recovery(self):
        store = make_store(n=5, rf=2)
        down = store.replicas_for("k")[0]
        store.mark_down(down)
        store.put_if_absent_many(["k"], "v")
        store.mark_up(down)
        holders = [
            nid for nid, node in store.nodes.items() if "k" in node.dump()
        ]
        assert sorted(holders) == sorted(store.replicas_for("k"))


class TestCoordinatorAccounting:
    def test_local_read_counted(self):
        store = make_store(n=4, rf=2)
        store.put_if_absent_many(["k"], "v")
        coordinator = store.replicas_for("k")[0]
        store.contains_many(["k"], coordinator=coordinator)
        assert store.stats.local_reads == 1
        assert store.stats.remote_reads == 0

    def test_remote_read_counted(self):
        store = make_store(n=4, rf=2)
        store.put_if_absent_many(["k"], "v")
        replicas = store.replicas_for("k")
        outsider = next(nid for nid in store.nodes if nid not in replicas)
        store.contains_many(["k"], coordinator=outsider)
        assert store.stats.remote_reads == 1

    def test_pair_contacts_recorded(self):
        store = make_store(n=4, rf=1)
        store.put_if_absent_many(["k"], "v")
        replica = store.replicas_for("k")[0]
        outsider = next(nid for nid in store.nodes if nid != replica)
        store.contains_many(["k"], coordinator=outsider)
        assert store.stats.per_pair_contacts.get((outsider, replica), 0) >= 1

    def test_self_contact_not_counted_as_remote(self):
        store = make_store(n=4, rf=2)
        store.put_if_absent_many(["k"], "v", coordinator=store.replicas_for("k")[0])
        replicas = store.replicas_for("k")
        pair = (replicas[0], replicas[0])
        assert pair not in store.stats.per_pair_contacts


class TestMembership:
    def test_add_node_streams_keys(self):
        store = make_store(n=3, rf=2)
        keys = [f"k{i}" for i in range(200)]
        store.put_if_absent_many(keys, "v")
        store.add_node("n3")
        # Every key readable, and the newcomer holds its share.
        assert store.contains_many(keys) == [True] * 200
        assert store.nodes["n3"].key_count() > 0

    def test_add_existing_node_rejected(self):
        store = make_store(n=3)
        with pytest.raises(ValueError):
            store.add_node("n0")

    def test_remove_node_preserves_data(self):
        store = make_store(n=4, rf=2)
        keys = [f"k{i}" for i in range(200)]
        store.put_if_absent_many(keys, "v")
        store.remove_node("n2")
        lost = [k for k, held in zip(keys, store.contains_many(keys)) if not held]
        assert lost == [], f"{lost} lost after decommission"

    def test_remove_unknown_node_rejected(self):
        with pytest.raises(NoSuchNodeError):
            make_store().remove_node("ghost")

    def test_alive_nodes(self):
        store = make_store(n=3)
        store.mark_down("n1")
        assert sorted(store.alive_nodes()) == ["n0", "n2"]


class TestHintBuffer:
    def test_add_and_take(self):
        buf = HintBuffer()
        buf.add(Hint("n1", "k", "v", 1))
        assert buf.pending_for("n1") == 1
        hints = buf.take_for("n1")
        assert len(hints) == 1
        assert buf.pending_for("n1") == 0

    def test_overflow_drops(self):
        buf = HintBuffer(max_hints_per_node=2)
        assert buf.add(Hint("n1", "a", "v", 1))
        assert buf.add(Hint("n1", "b", "v", 2))
        assert not buf.add(Hint("n1", "c", "v", 3))
        assert buf.dropped == 1

    def test_total_pending(self):
        buf = HintBuffer()
        buf.add(Hint("n1", "a", "v", 1))
        buf.add(Hint("n2", "b", "v", 2))
        assert buf.total_pending == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            HintBuffer(max_hints_per_node=0)

    def test_restore_rebuffers_undelivered_hints_in_order(self):
        buf = HintBuffer()
        buf.add(Hint("n1", "a", "v", 1))
        buf.add(Hint("n1", "b", "v", 2))
        taken = buf.take_for("n1")
        buf.restore("n1", taken[1:])  # first delivered, second failed
        buf.add(Hint("n1", "c", "v", 3))  # new write while still down
        assert [h.key for h in buf.take_for("n1")] == ["b", "c"]

    def test_restore_bypasses_per_node_bound(self):
        # Re-buffering must never drop: these writes were already
        # accepted once; the bound only applies to *new* hints.
        buf = HintBuffer(max_hints_per_node=2)
        taken = [Hint("n1", f"k{i}", "v", i) for i in range(3)]
        buf.add(Hint("n1", "new", "v", 9))
        buf.restore("n1", taken)
        assert buf.pending_for("n1") == 4
        assert buf.dropped == 0


class TestHintReplayFailureRegression:
    """A hint replay that fails mid-way must not lose the undelivered
    hints — before the fix, ``take_for`` popped everything up front and a
    replay error dropped the tail on the floor (silent data loss on the
    recovered replica)."""

    def test_failed_replay_rebuffers_and_next_recovery_delivers(self):
        store = make_store(n=4, rf=2)
        victim = store.replicas_for("k0")[0]
        store.mark_down(victim)
        keys = [f"k{i}" for i in range(6) if victim in store.replicas_for(f"k{i}")]
        store.put_if_absent_many(keys, "v")
        pending = store.hints.pending_for(victim)
        assert pending == len(keys) > 1

        node = store.nodes[victim]
        real_multi_put = node.multi_put
        calls = {"n": 0}

        def flaky_multi_put(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("injected replay fault")
            return real_multi_put(*args, **kwargs)

        node.multi_put = flaky_multi_put
        with pytest.raises(RuntimeError, match="injected replay fault"):
            store.mark_up(victim)
        # Nothing delivered before the fault, so nothing may be lost.
        assert store.hints.pending_for(victim) == pending
        assert store.stats.replay_failures == 1

        store.mark_up(victim)  # second recovery attempt succeeds
        assert store.hints.pending_for(victim) == 0
        assert store.stats.hints_replayed == pending
        for key in keys:
            assert node.multi_get([key])[key][0] == "v"


class TestTombstones:
    """Deletion semantics under failures — regression tests for the
    hint-resurrection bug the stateful suite originally caught: without
    tombstones, a delete issued while a replica was down was undone when
    that replica's pending write-hints replayed on recovery."""

    def test_delete_survives_hint_replay(self):
        store = make_store(n=4, rf=2)
        victim = store.replicas_for("k")[0]
        store.mark_down(victim)
        store.put_if_absent_many(["k"], "v")  # hint buffered for victim
        store.delete_many(["k"])  # tombstone, also hinted
        store.mark_up(victim)  # both hints replay, tombstone is newer
        assert store.contains_many(["k"]) == [False]

    def test_delete_survives_anti_entropy(self):
        from repro.kvstore.repair import ReplicaRepairer

        store = make_store(n=4, rf=2)
        store.put_if_absent_many(["k"], "v")
        victim = store.replicas_for("k")[0]
        stale = store.nodes[victim].dump()["k"]
        store.delete_many(["k"])
        # The victim silently missed the tombstone: it still holds the
        # live value, and no hint or degraded-key record knows.
        store.nodes[victim]._data["k"] = stale
        ReplicaRepairer(store).repair_all()  # tombstone wins the sync
        assert store.contains_many(["k"]) == [False]  # read at ONE, from the victim

    def test_deleted_key_leaves_unique_keys(self):
        store = make_store()
        store.put_if_absent_many(["a", "b"], "v")
        store.delete_many(["a"])
        assert store.unique_keys() == {"b"}

    def test_rewrite_after_delete(self):
        store = make_store()
        store.put_if_absent_many(["k"], "old")
        store.delete_many(["k"])
        store.put_if_absent_many(["k"], "new")
        assert replica_values(store, "k") == {"new"}
        assert "k" in store.unique_keys()

    def test_put_if_absent_after_delete_is_new(self):
        store = make_store()
        store.put_if_absent_many(["k"], "old")
        store.delete_many(["k"])
        assert store.put_if_absent_many(["k"], "fresh") == [True]
        assert store.contains_many(["k"]) == [True]

    def test_delete_returns_liveness(self):
        store = make_store()
        assert store.delete_many(["never-written"]) == 0
        store.put_if_absent_many(["k", "j"], "v")
        # Each live key counts once, however often the batch names it.
        assert store.delete_many(["k", "never-written", "k"]) == 1
        assert store.delete_many(["k", "j"]) == 1
        assert store.delete_many(["k", "j"]) == 0
