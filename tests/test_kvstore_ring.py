"""Tests for tokens, the consistent-hash ring, and replica placement."""

from collections import Counter

import pytest

from repro.kvstore.errors import NoSuchNodeError, ReplicationError, RingEmptyError
from repro.kvstore.hashring import ConsistentHashRing
from repro.kvstore.replication import SimpleReplicationStrategy
from repro.kvstore.tokens import TOKEN_SPACE, key_token, node_token, token_distance


class TestTokens:
    def test_key_token_deterministic(self):
        assert key_token("abc") == key_token("abc")

    def test_key_token_range(self):
        for key in ("", "a", "some-long-key", "fp:deadbeef"):
            assert 0 <= key_token(key) < TOKEN_SPACE

    def test_different_keys_different_tokens(self):
        assert key_token("a") != key_token("b")

    def test_key_token_is_the_md5_partitioner(self):
        import hashlib

        for key in ("", "a", "fp:deadbeef", "ü-ключ", "ab" * 32):
            digest = hashlib.md5(key.encode("utf-8")).digest()
            assert key_token(key) == int.from_bytes(digest, "big") % TOKEN_SPACE

    def test_node_token_varies_with_vnode(self):
        assert node_token("n1", 0) != node_token("n1", 1)

    def test_node_token_negative_vnode_rejected(self):
        with pytest.raises(ValueError):
            node_token("n1", -1)

    def test_token_distance_wraps(self):
        assert token_distance(TOKEN_SPACE - 1, 0) == 1

    def test_token_distance_zero(self):
        assert token_distance(5, 5) == 0


class TestConsistentHashRing:
    def test_empty_ring_raises(self):
        with pytest.raises(RingEmptyError):
            ConsistentHashRing().primary_for_key("k")

    def test_single_node_owns_everything(self):
        ring = ConsistentHashRing()
        ring.add_node("only")
        for key in ("a", "b", "c"):
            assert ring.primary_for_key(key) == "only"

    def test_add_duplicate_rejected(self):
        ring = ConsistentHashRing()
        ring.add_node("n1")
        with pytest.raises(ValueError, match="already"):
            ring.add_node("n1")

    def test_remove_unknown_rejected(self):
        with pytest.raises(NoSuchNodeError):
            ConsistentHashRing().remove_node("ghost")

    def test_contains_and_len(self):
        ring = ConsistentHashRing()
        ring.add_node("a")
        ring.add_node("b")
        assert "a" in ring and "b" in ring and "c" not in ring
        assert len(ring) == 2

    def test_remove_node(self):
        ring = ConsistentHashRing()
        ring.add_node("a")
        ring.add_node("b")
        ring.remove_node("a")
        assert ring.primary_for_key("anything") == "b"

    def test_placement_stable_under_membership(self):
        """Consistent hashing: removing one node only moves that node's keys."""
        ring = ConsistentHashRing(vnodes=32)
        for n in ("a", "b", "c", "d"):
            ring.add_node(n)
        keys = [f"key-{i}" for i in range(500)]
        before = {k: ring.primary_for_key(k) for k in keys}
        ring.remove_node("d")
        for k in keys:
            if before[k] != "d":
                assert ring.primary_for_key(k) == before[k]

    def test_vnodes_smooth_load(self):
        ring = ConsistentHashRing(vnodes=64)
        for i in range(5):
            ring.add_node(f"n{i}")
        counts = Counter(ring.primary_for_key(f"key-{i}") for i in range(5000))
        expected = 1000
        for node in ring.nodes:
            assert 0.5 * expected < counts[node] < 1.7 * expected, (node, counts[node])

    def test_walk_yields_each_node_once(self):
        ring = ConsistentHashRing()
        for i in range(4):
            ring.add_node(f"n{i}")
        walked = list(ring.walk_from_key("some-key"))
        assert sorted(walked) == [f"n{i}" for i in range(4)]

    def test_walk_starts_with_primary(self):
        ring = ConsistentHashRing()
        for i in range(4):
            ring.add_node(f"n{i}")
        assert next(iter(ring.walk_from_key("k"))) == ring.primary_for_key("k")

    def test_layout_deterministic_across_instances(self):
        a = ConsistentHashRing()
        b = ConsistentHashRing()
        for n in ("x", "y", "z"):
            a.add_node(n)
            b.add_node(n)
        for i in range(100):
            assert a.primary_for_key(f"k{i}") == b.primary_for_key(f"k{i}")

    def test_invalid_vnodes_rejected(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(vnodes=0)


class TestPrimaryTokenRanges:
    def _ring(self, n: int, vnodes: int = 16) -> ConsistentHashRing:
        ring = ConsistentHashRing(vnodes=vnodes)
        for i in range(n):
            ring.add_node(f"n{i}")
        return ring

    def test_unknown_node_rejected(self):
        with pytest.raises(NoSuchNodeError):
            self._ring(3).primary_token_ranges("ghost")

    def test_single_node_owns_whole_space(self):
        ring = ConsistentHashRing()
        ring.add_node("only")
        assert ring.primary_token_ranges("only") == [(0, TOKEN_SPACE)]

    def test_ranges_tile_the_token_space(self):
        """Per-node primary ranges are disjoint and their union is exactly
        [0, TOKEN_SPACE) — every token has one owner."""
        ring = self._ring(4)
        ranges = [r for n in ring.nodes for r in ring.primary_token_ranges(n)]
        ranges.sort()
        total = 0
        prev_hi = 0
        for lo, hi in ranges:
            assert lo < hi
            assert lo >= prev_hi  # disjoint
            prev_hi = hi
            total += hi - lo
        assert total == TOKEN_SPACE

    def test_ranges_agree_with_primary_for_token(self):
        ring = self._ring(5)
        for node in ring.nodes:
            for lo, hi in ring.primary_token_ranges(node):
                assert ring.primary_for_token(lo) == node
                assert ring.primary_for_token(hi - 1) == node
                assert ring.primary_for_token((lo + hi) // 2) == node

    def test_key_tokens_route_to_owning_range(self):
        ring = self._ring(3)
        for i in range(200):
            token = key_token(f"key-{i}")
            owner = ring.primary_for_token(token)
            assert any(
                lo <= token < hi for lo, hi in ring.primary_token_ranges(owner)
            )


class TestReplication:
    def _ring(self, n: int) -> ConsistentHashRing:
        ring = ConsistentHashRing()
        for i in range(n):
            ring.add_node(f"n{i}")
        return ring

    def test_factor_must_be_positive(self):
        with pytest.raises(ReplicationError):
            SimpleReplicationStrategy(0)

    def test_replica_count(self):
        strategy = SimpleReplicationStrategy(3)
        replicas = strategy.replicas_for_key(self._ring(5), "key")
        assert len(replicas) == 3
        assert len(set(replicas)) == 3

    def test_fewer_nodes_than_factor(self):
        strategy = SimpleReplicationStrategy(5)
        replicas = strategy.replicas_for_key(self._ring(2), "key")
        assert sorted(replicas) == ["n0", "n1"]

    def test_primary_first(self):
        ring = self._ring(5)
        strategy = SimpleReplicationStrategy(2)
        assert strategy.replicas_for_key(ring, "k")[0] == ring.primary_for_key("k")

    def test_effective_factor(self):
        strategy = SimpleReplicationStrategy(3)
        assert strategy.effective_factor(self._ring(2)) == 2
        assert strategy.effective_factor(self._ring(8)) == 3

    def test_replicas_deterministic(self):
        ring = self._ring(6)
        strategy = SimpleReplicationStrategy(2)
        assert strategy.replicas_for_key(ring, "k") == strategy.replicas_for_key(ring, "k")

    def test_replica_spread_roughly_uniform(self):
        """With γ=2 each node should hold ~2/N of all keys."""
        ring = ConsistentHashRing(vnodes=64)
        for i in range(4):
            ring.add_node(f"n{i}")
        strategy = SimpleReplicationStrategy(2)
        holds = {f"n{i}": 0 for i in range(4)}
        n_keys = 2000
        for i in range(n_keys):
            for node in strategy.replicas_for_key(ring, f"key-{i}"):
                holds[node] += 1
        expected = n_keys * 2 / 4
        for node, count in holds.items():
            assert 0.5 * expected < count < 1.6 * expected, (node, count)


class TestPlacementTable:
    """``replicas_for_key`` is a table lookup; the generator walk it
    replaced stays as the reference it must equal."""

    @staticmethod
    def walked_simple(ring, key, factor):
        out = []
        for node in ring.walk_from_key(key):
            out.append(node)
            if len(out) == factor:
                break
        return out

    @staticmethod
    def walked_cloud_aware(ring, key, factor, cloud_of):
        walk = list(ring.walk_from_key(key))
        chosen, used = [], set()
        for node in walk:
            if len(chosen) < factor and cloud_of[node] not in used:
                chosen.append(node)
                used.add(cloud_of[node])
        for node in walk:
            if len(chosen) < factor and node not in chosen:
                chosen.append(node)
        return chosen

    def test_equals_the_walk_for_10_000_keys_across_membership_changes(self):
        import random

        from repro.kvstore.topology_strategy import CloudAwareReplicationStrategy

        rng = random.Random(24)
        members = [f"n{i}" for i in range(7)]
        cloud_of = {n: f"cloud-{i % 3}" for i, n in enumerate(members + ["n7", "n8"])}
        ring = ConsistentHashRing(vnodes=8)
        for node in members:
            ring.add_node(node)
        simple = {f: SimpleReplicationStrategy(f) for f in (1, 2, 3)}
        aware = {f: CloudAwareReplicationStrategy(f, cloud_of) for f in (2, 4)}
        steps = [None, ("add", "n7"), ("remove", "n2"), ("add", "n8"), ("remove", "n0")]
        for step in steps:
            if step is not None:
                getattr(ring, f"{step[0]}_node")(step[1])
            for _ in range(2000):
                key = f"{rng.getrandbits(160):040x}"
                for factor, strategy in simple.items():
                    assert strategy.replicas_for_key(ring, key) == self.walked_simple(
                        ring, key, factor
                    )
                for factor, strategy in aware.items():
                    assert strategy.replicas_for_key(ring, key) == self.walked_cloud_aware(
                        ring, key, factor, cloud_of
                    )

    def test_store_and_ring_agree_after_add_and_remove(self):
        from repro.kvstore.store import DistributedKVStore

        store = DistributedKVStore(["a", "b", "c"], replication_factor=2)
        keys = [f"fp-{i}" for i in range(500)]

        def check():
            for key in keys:
                assert store.replicas_for(key) == self.walked_simple(store.ring, key, 2)

        check()
        store.add_node("d")
        check()
        store.remove_node("a")
        check()

    def test_answers_are_copies(self):
        ring = ConsistentHashRing()
        for node in ("a", "b", "c"):
            ring.add_node(node)
        strategy = SimpleReplicationStrategy(2)
        first = strategy.replicas_for_key(ring, "k")
        first.append("mutated")
        assert strategy.replicas_for_key(ring, "k") == first[:2]

    def test_empty_ring_still_raises(self):
        with pytest.raises(RingEmptyError):
            SimpleReplicationStrategy(2).replicas_for_key(ConsistentHashRing(), "k")

    def test_unassigned_cloud_is_still_rejected(self):
        from repro.kvstore.topology_strategy import CloudAwareReplicationStrategy

        ring = ConsistentHashRing()
        for node in ("a", "b"):
            ring.add_node(node)
        with pytest.raises(ReplicationError, match="no edge cloud"):
            CloudAwareReplicationStrategy(2, {"a": "east"}).replicas_for_key(ring, "k")


class TestBatchPlacement:
    """``placements`` is the batch form of ``placement``: same table, same
    answers, one hash per key; the coordinator's per-placement route table
    equals routing each key from scratch."""

    @staticmethod
    def strategies(members):
        from repro.kvstore.topology_strategy import CloudAwareReplicationStrategy

        cloud_of = {n: f"cloud-{i % 2}" for i, n in enumerate(members)}
        return [
            SimpleReplicationStrategy(2),
            SimpleReplicationStrategy(3),
            CloudAwareReplicationStrategy(3, cloud_of),
        ]

    @staticmethod
    def oracle_route(store, key, required, coordinator):
        """The per-key definition: placement, the members believed up, and
        the coordinator's own replica first, then ring order."""
        replicas = store.replicas_for(key)
        alive = [r for r in replicas if store.is_up(r)]
        ordered = alive
        if coordinator in alive:
            ordered = [coordinator] + [r for r in alive if r != coordinator]
        return replicas, alive, ordered[:required]

    def test_batch_equals_per_key_across_membership_and_liveness(self):
        from repro.kvstore.store import DistributedKVStore

        members = [f"n{i}" for i in range(6)]
        keys = [f"fp-{i:04x}" for i in range(400)]
        for strategy in self.strategies(members + ["n6"]):
            store = DistributedKVStore(members, replication_factor=3, strategy=strategy)
            steps = [
                lambda: None,
                lambda: store.add_node("n6"),
                lambda: store.mark_down("n2"),
                lambda: store.remove_node("n0"),
                lambda: store.mark_up("n2"),
            ]
            for step in steps:
                step()
                batch = store.ring.placements(keys, strategy.select)
                assert [list(r) for r in batch] == [store.replicas_for(k) for k in keys]
                assert all(isinstance(r, tuple) for r in batch)  # immutable answers

    def test_slot_routes_equal_the_per_key_definition(self):
        from repro.kvstore.consistency import ConsistencyLevel
        from repro.kvstore.errors import UnavailableError
        from repro.kvstore.store import DistributedKVStore

        members = [f"n{i}" for i in range(5)]
        keys = [f"fp-{i:04x}" for i in range(300)]
        for strategy in self.strategies(members + ["n5"]):
            store = DistributedKVStore(members, replication_factor=3, strategy=strategy)
            steps = [
                lambda: None,
                lambda: store.mark_down("n1"),
                lambda: store.mark_down("n3"),
                lambda: store.add_node("n5"),
                lambda: store.mark_up("n1"),
                lambda: store.remove_node("n4"),
                lambda: store.mark_up("n3"),
            ]
            for step in steps:
                step()
                for coordinator in [*store.nodes, None]:
                    for level in ConsistencyLevel:
                        required = store._required_acks(level)
                        expected = {
                            k: self.oracle_route(store, k, required, coordinator) for k in keys
                        }
                        unavailable = [k for k in keys if len(expected[k][1]) < required]
                        if unavailable:
                            with pytest.raises(UnavailableError) as raised:
                                store._routes(keys, required, coordinator)
                            assert raised.value.key == unavailable[0]
                            continue
                        routes = store._routes(keys, required, coordinator)
                        assert {k: tuple(map(list, r)) for k, r in routes.items()} == expected

    def test_one_md5_per_distinct_key_per_batched_lookup(self, monkeypatch):
        import repro.kvstore.hashring as hashring
        from repro.kvstore.store import DistributedKVStore
        from repro.system.agent import RingIndex

        index = RingIndex(DistributedKVStore(["edge-0", "edge-1", "edge-2"]), "edge-0")
        hashed: list[str] = []
        real = hashring.key_token
        monkeypatch.setattr(hashring, "key_token", lambda key: hashed.append(key) or real(key))
        batch = [f"fp-{i}" for i in range(64)]
        index.lookup_and_insert_many(batch)  # all new
        assert sorted(hashed) == sorted(batch)
        hashed.clear()
        index.lookup_and_insert_many(batch[:40] + batch[:24])  # repeats, all present
        assert sorted(hashed) == sorted(batch[:40])
