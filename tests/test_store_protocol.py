"""The store protocol, once, over both replica transports.

Everything here is a property of the quorum coordinator
(``repro.kvstore.coordinator``), so every case runs twice: over the direct
transport (``DistributedKVStore``, replicas as objects) and over the asyncio
transport (``RemoteKVStore``, replicas behind TCP node servers). The
``ring`` fixture hides the difference; ``ring.shard(node_id)`` is the back
door to a member's ``StorageNode`` for planting and inspecting divergence.

Faults are injected at the seam — a ``ReplicaTransport`` method that raises
one of the transport's own ``missed_ack`` exceptions — so a regression in
the one coordinator fails on both parametrisations.
"""

import random
from types import SimpleNamespace

import pytest

from repro.kvstore.consistency import ConsistencyLevel
from repro.kvstore.errors import NoSuchNodeError, UnavailableError
from repro.kvstore.repair import ReplicaRepairer
from repro.kvstore.store import DistributedKVStore
from repro.kvstore.transport import ReplicaTransport
from repro.obs import series
from repro.rpc import NodeSpec

from tests.conftest import live_cluster

ONE, QUORUM = ConsistencyLevel.ONE, ConsistencyLevel.QUORUM
TRANSPORTS = ["direct", "asyncio"]


def make_ring(transport: str, n=4, rf=2, consistency=ONE) -> SimpleNamespace:
    ids = [f"n{i}" for i in range(n)]
    if transport == "direct":
        store = DistributedKVStore(ids, replication_factor=rf, default_consistency=consistency)
        return SimpleNamespace(
            store=store,
            shard=store.nodes.__getitem__,
            add_node=store.add_node,
            remove_node=store.remove_node,
            close=lambda: None,
        )
    cluster = live_cluster(ids, replication_factor=rf, consistency=consistency)
    return SimpleNamespace(
        store=cluster.store,
        shard=lambda node_id: cluster.servers[node_id].node,
        add_node=lambda node_id: cluster.add_node(NodeSpec(node_id)),
        remove_node=cluster.remove_node,
        close=cluster.close,
    )


@pytest.fixture(params=TRANSPORTS)
def ring(request):
    """Factory for rings on the parametrised transport, closed at teardown."""
    made = []

    def make(**kwargs):
        made.append(make_ring(request.param, **kwargs))
        return made[-1]

    yield make
    for r in made:
        r.close()


def keys_on(store, node_id: str, n: int = 4) -> list[str]:
    """``n`` keys that place a replica on ``node_id``."""
    found, i = [], 0
    while len(found) < n:
        if node_id in store.replicas_for(f"rk-{i}"):
            found.append(f"rk-{i}")
        i += 1
    return found


def shards(r) -> dict[str, dict]:
    return {n: dict(r.shard(n)._data) for n in r.store.nodes}


class TestSeam:
    def test_exactly_two_transports(self):
        import repro.rpc.transport  # noqa: F401  (registers the subclass)

        names = sorted(cls.__name__ for cls in ReplicaTransport.__subclasses__())
        assert names == ["AsyncioTransport", "DirectTransport"]

    def test_direct_drive_rejects_a_suspension(self):
        import asyncio

        store = DistributedKVStore(["a"])
        with pytest.raises(RuntimeError, match="suspended"):
            store.drive(asyncio.sleep(0))


class TestHintReplay:
    def test_failed_replay_rebuffers_then_delivers(self, ring, monkeypatch):
        """PR 11's regression, at the seam: a replay whose multi_put is a
        missed ack must re-buffer every undelivered hint (popping them
        before delivery is confirmed loses the writes they buffered)."""
        r = ring()
        store, victim = r.store, "n2"
        store.mark_down(victim)
        keys = keys_on(store, victim)
        for k in keys:
            store.put(k, "while-down")
        assert store.hints.pending_for(victim) == len(keys)

        fault = store.transport.missed_ack[0]("injected replay fault")
        real = store.transport.multi_put
        state = {"failed": False}

        async def flaky(node_id, rows, src=None):
            if not state["failed"]:
                state["failed"] = True
                raise fault
            return await real(node_id, rows, src)

        monkeypatch.setattr(store.transport, "multi_put", flaky)
        with pytest.raises(type(fault)):
            store.mark_up(victim)
        # Nothing was confirmed delivered: every hint must survive.
        assert store.hints.pending_for(victim) == len(keys)
        assert store.stats.replay_failures == 1
        assert store.stats.hints_replayed == 0
        store.mark_up(victim)  # the next recovery replays the rebuffered tail
        assert store.hints.pending_for(victim) == 0
        assert store.stats.hints_replayed == len(keys)
        for k in keys:
            assert r.shard(victim).local_get(k).value == "while-down"

    def test_delete_survives_hint_replay(self, ring):
        store = ring().store
        victim = store.replicas_for("k")[0]
        store.mark_down(victim)
        store.put("k", "v")  # hint buffered for victim
        store.delete("k")  # tombstone, also hinted
        store.mark_up(victim)  # both hints replay, tombstone is newer
        assert store.get("k") is None

    def test_quorum_miss_buffers_no_hints_even_on_retry(self, ring):
        store = ring(n=3, consistency=QUORUM).store
        victim = "n1"
        (key,) = keys_on(store, victim, n=1)
        store.mark_down(victim)
        for _ in range(2):  # the retry is the regression
            with pytest.raises(UnavailableError):
                store.put(key, "v")
        assert store.stats.unavailable_errors == 2
        assert store.hints.total_pending == 0

    def test_missed_ack_below_level_hints_nothing(self, ring, monkeypatch):
        """Routing passed, the transport then lost an ack: the write fails
        the level after the scatter and must not hint."""
        store = ring(n=3, consistency=QUORUM).store
        fault = store.transport.missed_ack[0]("injected")
        real = store.transport.multi_put

        async def deaf_n2(node_id, rows, src=None):
            if node_id == "n2":
                raise fault
            return await real(node_id, rows, src)

        monkeypatch.setattr(store.transport, "multi_put", deaf_n2)
        single, *batched = keys_on(store, "n2", n=3)
        for _ in range(2):
            with pytest.raises(UnavailableError):
                store.put(single, "v", coordinator="n0")
        for key in batched:
            with pytest.raises(UnavailableError):
                store.put_if_absent_many([key], "v", coordinator="n0")
        assert store.hints.total_pending == 0
        assert store.stats.unavailable_errors == 4


class TestRepair:
    def test_mark_up_repairs_degraded_keys_beyond_hints(self, ring):
        """Hints lost while a replica was down (window overflow,
        coordinator crash): mark_up's recovery pass must still push the
        keys the ring served under-replicated, and count them."""
        r = ring(n=3)
        store, victim = r.store, "n1"
        keys = keys_on(store, victim)
        for k in keys:
            store.put(k, "pre")
        store.mark_down(victim)
        for k in keys:
            store.put(k, "while-down")  # hinted AND recorded as degraded
        store.hints.take_for(victim)  # simulate hint loss
        store.mark_up(victim)
        assert store.stats.hints_replayed == 0
        assert store.stats.recovery_repairs == len(keys)
        for k in keys:
            assert r.shard(victim).local_get(k).value == "while-down"

    def test_quorum_get_repairs_stale_replica(self, ring):
        r = ring(n=3, consistency=QUORUM)
        store = r.store
        store.put("k", "old")
        fresh, stale = store.replicas_for("k")
        r.shard(fresh).local_put("k", "newer", 10**15)
        assert store.get("k") == "newer"
        assert store.stats.read_repairs >= 1
        assert r.shard(stale).local_get("k").value == "newer"

    def test_contains_many_never_writes(self, ring):
        """The migration dual-lookup probe must not mutate the ring it
        probes: a QUORUM probe over a replica that silently lost a row
        leaves the row lost. Only ``get`` repairs."""
        r = ring(n=3, consistency=QUORUM)
        store = r.store
        store.put("k", "v")
        lossy = store.replicas_for("k")[1]
        del r.shard(lossy)._data["k"]
        before = shards(r)
        assert store.contains_many(["k", "ghost"]) == [True, False]
        assert store.contains_many(["k"], ts_bound=store.clock_now()) == [True]
        assert store.stats.read_repairs == 0
        assert shards(r) == before
        assert store.get("k") == "v"
        assert store.stats.read_repairs == 1
        assert r.shard(lossy).local_contains("k")

    def test_ts_bound_probe_is_accounted_too(self, ring):
        store = ring().store
        keys = [f"k{i}" for i in range(12)]
        store.put_if_absent_many(keys, "", coordinator="n0")
        bound = store.clock_now()
        store.put("late", "x")  # after the cutover: must not leak
        before = series(store.stats)
        assert store.contains_many(keys + ["late"], coordinator="n0", ts_bound=bound) == (
            [True] * 12 + [False]
        )
        after = series(store.stats)
        assert after["reads"] - before["reads"] == 13
        assert after["local_reads"] + after["remote_reads"] - (
            before["local_reads"] + before["remote_reads"]
        ) == 13
        # The bounded probe consults every alive replica of every key.
        assert after["remote_contacts"] - before["remote_contacts"] == 3
        assert after["batch_rounds"] - before["batch_rounds"] == 1


class TestBatch:
    def test_batched_equals_sequential_with_repeats(self, ring):
        keys = ["fp1", "fp2", "fp1", "fp3", "fp2", "fp4"]
        batched, sequential = ring().store, ring().store
        sequential.put_if_absent("fp3", "m", coordinator="n1")
        batched.put_if_absent("fp3", "m", coordinator="n1")
        got = batched.put_if_absent_many(keys, "m", coordinator="n0")
        want = [sequential.put_if_absent(k, "m", coordinator="n0") for k in keys]
        assert got == want == [True, True, False, False, False, True]
        assert batched.unique_keys() == sequential.unique_keys()
        for field in ("reads", "writes", "local_reads", "remote_reads"):
            assert getattr(batched.stats, field) == getattr(sequential.stats, field)
        # The round trip is per contacted node, not per key.
        assert batched.stats.remote_contacts <= sequential.stats.remote_contacts
        assert batched.stats.batch_rounds == 1

    def test_unroutable_key_applies_nothing(self, ring):
        """A batch is routed whole before any write: one unavailable key
        must leave no entry and no hint behind, or the caller's retry would
        answer "duplicate" for chunks nobody was told were new."""
        r = ring(rf=1)
        store, victim = r.store, "n2"
        batch = [f"k{i}" for i in range(24)]
        assert any(store.replicas_for(k) == [victim] for k in batch[1:])
        store.mark_down(victim)
        with pytest.raises(UnavailableError):
            store.put_if_absent_many(batch, "m", coordinator="n0")
        assert store.total_stored_entries() == 0
        assert store.hints.total_pending == 0
        assert store.stats.batch_rounds == 0
        store.mark_up(victim)
        assert store.put_if_absent_many(batch, "m", coordinator="n0") == [True] * 24


class TestMembership:
    def test_add_node_streams_keys(self, ring):
        r = ring(n=3)
        for i in range(60):
            r.store.put(f"k{i}", str(i))
        r.add_node("n3")
        assert r.store.is_up("n3")
        for i in range(60):
            assert r.store.get(f"k{i}") == str(i)
        assert r.shard("n3").key_count() > 0
        assert ReplicaRepairer(r.store).verify_replication() == []

    def test_remove_node_preserves_data(self, ring):
        r = ring()
        for i in range(60):
            r.store.put(f"k{i}", str(i))
        r.remove_node("n2")
        assert "n2" not in r.store.nodes
        for i in range(60):
            assert r.store.get(f"k{i}") == str(i), f"k{i} lost after decommission"

    def test_remove_node_voids_the_members_hints(self, ring):
        r = ring()
        store = r.store
        store.mark_down("n2")
        for k in keys_on(store, "n2", n=8):
            store.put(k, "v")
        assert store.hints.pending_for("n2") == 8
        r.remove_node("n2")
        assert store.hints.total_pending == 0
        with pytest.raises(NoSuchNodeError):
            store.is_up("n2")

    def test_last_member_cannot_leave(self, ring):
        r = ring(n=1, rf=1)
        with pytest.raises(ValueError, match="last member"):
            r.store.remove_node("n0")
        r.store.put("k", "v")  # the ring still routes
        assert r.store.get("k") == "v"


class TestAntiEntropy:
    def test_repair_converges_and_is_idempotent(self, ring):
        r = ring(n=3)
        store = r.store
        for i in range(30):
            store.put(f"k{i}", str(i))
        lost = list(r.shard("n0")._data)[:5]  # silently loses part of its shard
        for k in lost:
            del r.shard("n0")._data[k]
        repairer = ReplicaRepairer(store)
        assert repairer.verify_replication() == sorted(lost)
        first = repairer.repair_all()
        assert first.synced_keys == 5
        assert first.buckets_streamed < first.buckets_compared
        assert ReplicaRepairer(store).repair_all().synced_keys == 0
        assert ReplicaRepairer(store).verify_replication() == []
        # Placement is respected: keys only land on their actual replicas.
        for key in store.unique_keys():
            holders = [n for n in store.nodes if key in r.shard(n)._data]
            assert sorted(holders) == sorted(store.replicas_for(key))

    def test_newest_value_wins(self, ring):
        r = ring(n=3)
        r.store.put("k", "old")
        holders = r.store.replicas_for("k")
        r.shard(holders[0]).local_put("k", "newer", 10**15)
        ReplicaRepairer(r.store).repair_all()
        for node_id in holders:
            assert r.shard(node_id).local_get("k").value == "newer"

    def test_tombstone_wins_the_sync(self, ring):
        r = ring()
        store = r.store
        store.put("k", "v")
        victim = store.replicas_for("k")[0]
        stale = r.shard(victim).local_get("k")
        store.delete("k")
        r.shard(victim)._data["k"] = stale  # silently missed the tombstone
        ReplicaRepairer(store).repair_all()
        assert store.get("k") is None
        assert r.shard(victim).local_get("k").tombstone

    def test_repair_skips_down_replicas(self, ring):
        r = ring(n=3)
        store = r.store
        for i in range(10):
            store.put(f"k{i}", "v")
        store.mark_down("n1")
        held = dict(r.shard("n1")._data)
        stats = ReplicaRepairer(store).repair_all()
        assert stats.pairs_checked == 1  # only the alive pair is compared
        assert r.shard("n1")._data == held
        # verify_replication only audits alive replicas.
        assert ReplicaRepairer(store).verify_replication() == []
        with pytest.raises(NoSuchNodeError):
            ReplicaRepairer(store).repair_node("ghost")


def run_mixed_sequence(store, seed: int, ops: int = 500) -> list:
    """A seeded mix of every client verb plus failures and recoveries;
    returns each operation's outcome (value, verdicts or error type)."""
    rng = random.Random(seed)
    nodes = list(store.nodes)
    keys = [f"key-{i}" for i in range(40)]
    down: set[str] = set()
    outcomes = []
    for _ in range(ops):
        op = rng.choice(
            ["put", "get", "delete", "claim", "claim", "probe", "mark_down", "mark_up"]
        )
        coordinator = rng.choice(nodes)
        level = rng.choice([ONE, QUORUM])
        try:
            if op == "put":
                outcomes.append(store.put(rng.choice(keys), str(rng.random()), level, coordinator))
            elif op == "get":
                outcomes.append(store.get(rng.choice(keys), level, coordinator))
            elif op == "delete":
                outcomes.append(store.delete(rng.choice(keys), level, coordinator))
            elif op == "claim":
                batch = rng.choices(keys, k=rng.randint(1, 12))
                outcomes.append(store.put_if_absent_many(batch, "m", level, coordinator))
            elif op == "probe":
                batch = rng.choices(keys, k=rng.randint(1, 12))
                bound = rng.choice([None, store.clock_now()])
                outcomes.append(store.contains_many(batch, level, coordinator, ts_bound=bound))
            elif op == "mark_down" and len(down) < 2:
                down.add(victim := rng.choice(nodes))
                store.mark_down(victim)
            elif op == "mark_up" and down:
                down.discard(victim := rng.choice(sorted(down)))
                store.mark_up(victim)
        except UnavailableError as exc:
            outcomes.append(("unavailable", exc.key, exc.required, exc.alive))
    for victim in sorted(down):
        store.mark_up(victim)
    return outcomes


@pytest.mark.parametrize("seed", [7, 11])
def test_same_sequence_same_everything_on_both_transports(seed):
    """The store's contract does not depend on the transport: one seeded
    500-op sequence yields equal return values, counters, contact matrix,
    key set and shard contents (timestamps included) on both."""
    direct, live = make_ring("direct"), make_ring("asyncio")
    try:
        assert run_mixed_sequence(direct.store, seed) == run_mixed_sequence(live.store, seed)
        assert series(direct.store.stats) == series(live.store.stats)
        assert direct.store.stats.per_pair_contacts == live.store.stats.per_pair_contacts
        assert direct.store.unique_keys() == live.store.unique_keys()
        assert direct.store.hints.total_pending == live.store.hints.total_pending == 0
        assert shards(direct) == shards(live)
    finally:
        live.close()
