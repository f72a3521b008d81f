"""Tests for the chunk-payload data plane: ring-local content stores,
the refcount GC ledger, and the ContentPlane spill/fetch/sweep paths."""

import math
import shutil

import pytest

from repro.content import (
    ContentPlane,
    ContentStore,
    InMemoryContentStore,
    RefcountGC,
    RingContentStore,
)
from repro.erasure.striped_store import ErasureCodedChunkStore, ZoneFailedError
from repro.kvstore.store import DistributedKVStore
from repro.rpc import NodeSpec, RetryPolicy

from tests.conftest import live_cluster


def make_index(n=3, rf=2):
    return DistributedKVStore([f"n{i}" for i in range(n)], replication_factor=rf)


class _FakeRing:
    """Just enough ring surface for ContentPlane: id, content, index."""

    def __init__(self, ring_id, content, store):
        self.ring_id = ring_id
        self.content = content
        self.store = store


def make_ring(ring_id="ring-0", n=3, rf=2, batch=4):
    index = make_index(n, rf)
    content = RingContentStore(ring_id, index, batch_size=batch)
    return _FakeRing(ring_id, content, index)


class TestContentStoreProtocol:
    def test_in_memory_store_conforms(self):
        assert isinstance(InMemoryContentStore(), ContentStore)

    def test_erasure_store_conforms(self):
        assert isinstance(ErasureCodedChunkStore(2, 1), ContentStore)

    def test_ring_store_conforms(self):
        assert isinstance(make_ring().content, ContentStore)

    def test_in_memory_roundtrip(self):
        store = InMemoryContentStore()
        assert store.put_chunk("fp", b"abc") is True
        assert store.put_chunk("fp", b"abc") is False  # dup
        assert store.get_chunk("fp") == b"abc"
        assert store.has_chunk("fp")
        assert store.payload_bytes == 3
        assert store.delete_chunk("fp") is True
        assert store.delete_chunk("fp") is False
        with pytest.raises(KeyError):
            store.get_chunk("fp")


class TestRingContentStore:
    def test_put_buffers_until_batch(self):
        """``put_chunk`` only buffers — past ``batch_size`` too; the batch
        size bounds each message of the flush instead."""
        ring = make_ring(n=1, rf=1, batch=3)
        for i in range(7):
            ring.content.put_chunk(f"fp{i}", bytes([i]))
        assert ring.content.stats.batch_flushes == 0
        assert ring.content.snapshot()["pending"] == 7
        assert ring.content.flush() == 7
        assert ring.content.stats.batch_flushes == 3  # 3 + 3 + 1 to the one member
        assert ring.content.stats.puts == 7

    def test_get_after_flush(self):
        ring = make_ring()
        ring.content.put_chunk("fp", b"payload")
        assert ring.content.get_chunk("fp") == b"payload"
        with pytest.raises(KeyError):
            ring.content.get_chunk("ghost")

    def test_placement_follows_index_primary(self):
        ring = make_ring()
        ring.content.put_chunk("fp", b"x")
        ring.content.flush()
        primary = ring.store.replicas_for("fp")[0]
        assert "fp" in ring.store.node_chunk_keys(primary)

    def test_down_primary_falls_to_next_replica(self):
        ring = make_ring()
        primary = ring.store.replicas_for("fp")[0]
        ring.store.mark_down(primary)
        ring.content.put_chunk("fp", b"x")
        ring.content.flush()
        assert "fp" not in ring.store.node_chunk_keys(primary)
        assert ring.content.get_chunk("fp") == b"x"

    def test_all_replicas_down_drops_put(self):
        ring = make_ring(n=2, rf=2)
        for nid in list(ring.store.nodes):
            ring.store.mark_down(nid)
        ring.content.put_chunk("fp", b"x")
        ring.content.flush()
        assert ring.content.stats.dropped_puts == 1

    def test_delete_many_and_clear(self):
        ring = make_ring()
        ring.content.put_chunk("a", b"xx")
        ring.content.put_chunk("b", b"yyy")
        copies, freed = ring.content.delete_many(["a"])
        assert (copies, freed) == (1, 2)
        assert ring.content.clear() == 1  # only b left
        assert ring.content.fingerprints() == frozenset()

    def test_rehome_member_moves_payloads(self):
        ring = make_ring(n=3, rf=1)
        for i in range(12):
            ring.content.put_chunk(f"fp{i}", bytes([i]))
        ring.content.flush()
        shelves = ring.content.drain_by_member()
        victim = max(shelves, key=lambda n: len(shelves[n]))
        held = len(shelves[victim])
        assert held > 0
        moved = ring.content.rehome_member(victim)
        assert moved == held
        ring.store.remove_node(victim)
        # Every chunk still readable, none left on the departed member.
        assert victim not in ring.content.drain_by_member()
        for i in range(12):
            assert ring.content.get_chunk(f"fp{i}") == bytes([i])

    def test_drain_by_member_returns_everything(self):
        ring = make_ring()
        ring.content.put_chunk("a", b"1")
        ring.content.put_chunk("b", b"2")
        drained = ring.content.drain_by_member()
        merged = {fp: d for shelf in drained.values() for fp, d in shelf.items()}
        assert merged == {"a": b"1", "b": b"2"}


class TestRefcountGC:
    def test_incr_decr_zero_refs(self):
        gc = RefcountGC()
        assert gc.incr("fp") == 1
        assert gc.incr("fp", 2) == 3
        assert gc.decr("fp", 3) == 0
        assert gc.zero_refs() == ["fp"]
        assert gc.live_refs() == {}

    def test_decr_clamps_and_counts_underflow(self):
        gc = RefcountGC()
        assert gc.decr("ghost") == 0
        assert gc.underflows == 1

    def test_forget_removes_from_ledger(self):
        gc = RefcountGC()
        gc.incr("fp")
        gc.decr("fp")
        gc.forget("fp")
        assert gc.tracked() == frozenset()

    def test_journal_replay_after_restart(self, tmp_path):
        with RefcountGC(journal_dir=tmp_path) as gc:
            gc.incr("a", 2)
            gc.incr("b", 1)
            gc.decr("b", 1)  # zero but still tracked (awaiting sweep)
            gc.incr("c", 1)
            gc.forget("c")  # tombstoned: replay must not resurrect it
        with RefcountGC(journal_dir=tmp_path) as reborn:
            assert reborn.count("a") == 2
            assert reborn.count("b") == 0
            assert reborn.zero_refs() == ["b"]
            assert "c" not in reborn.tracked()

    def test_replay_is_idempotent_absolute_counts(self, tmp_path):
        # Counts are journaled as absolutes, so a replay after more
        # mutations lands on the latest value, not a sum of deltas.
        with RefcountGC(journal_dir=tmp_path) as gc:
            for _ in range(5):
                gc.incr("fp")
            gc.decr("fp", 2)
        with RefcountGC(journal_dir=tmp_path) as reborn:
            assert reborn.count("fp") == 3
            reborn.incr("fp")
        with RefcountGC(journal_dir=tmp_path) as again:
            assert again.count("fp") == 4

    def test_batch_commits_k_appends_with_one_flush(self, tmp_path):
        with RefcountGC(journal_dir=tmp_path) as gc:
            with gc.batch():
                for fp in ("a", "b", "a", "c"):
                    gc.incr(fp)
            assert (gc.wal.stats.appends, gc.wal.stats.flushes) == (4, 1)
            gc.incr("d")  # outside a batch: its own flush, as ever
            assert (gc.wal.stats.appends, gc.wal.stats.flushes) == (5, 2)
            metrics = gc.metrics()
            assert (metrics["journal_appends"], metrics["journal_flushes"]) == (5, 2)
        with RefcountGC(journal_dir=tmp_path) as reborn:
            assert reborn.counts == {"a": 2, "b": 1, "c": 1, "d": 1}

    def test_batch_without_a_journal_only_counts(self):
        gc = RefcountGC()
        with gc.batch():
            gc.incr("a")
        assert gc.count("a") == 1
        assert gc.metrics()["journal_flushes"] == 0.0

    def test_snapshot_compaction_survives_restart(self, tmp_path):
        with RefcountGC(journal_dir=tmp_path, snapshot_every=8) as gc:
            for i in range(50):
                gc.incr(f"fp{i % 5}")
            assert gc.wal.stats.snapshots >= 1
        with RefcountGC(journal_dir=tmp_path, snapshot_every=8) as reborn:
            assert sum(reborn.counts.values()) == 50

    def test_journaling_cost_does_not_grow_with_the_ledger(self, tmp_path, monkeypatch):
        # N distinct references: the ledger view (an O(ledger) rebuild) may
        # be built O(log N + N / snapshot_every) times and the snapshots may
        # hold O(N) entries in total. The parent rebuilt it on every incr —
        # N views, O(N^2) entries walked.
        n, every = 4096, 64
        views, snapshot_entries = [], []
        real_view = RefcountGC._ledger_view

        def counting_view(self):
            view = real_view(self)
            views.append(len(view))
            return view

        monkeypatch.setattr(RefcountGC, "_ledger_view", counting_view)
        with RefcountGC(journal_dir=tmp_path, snapshot_every=every) as gc:
            real_write = gc.wal.write_snapshot

            def counting_write(data):
                snapshot_entries.append(len(data))
                real_write(data)

            monkeypatch.setattr(gc.wal, "write_snapshot", counting_write)
            for i in range(n):
                gc.incr(f"fp{i}")
            assert gc.wal.stats.appends == n
            expected = dict(gc.counts)
        assert len(views) <= math.log2(n) + n / every
        assert sum(snapshot_entries) <= 2 * n
        with RefcountGC(journal_dir=tmp_path, snapshot_every=every) as reborn:
            assert reborn.counts == expected
            # snapshot + log read back: at most about twice the ledger
            replayed = (
                reborn.wal.stats.snapshot_entries_loaded
                + reborn.wal.stats.log_entries_replayed
            )
            assert replayed <= 2 * max(n, every)

    def test_small_ledger_still_snapshots_every_snapshot_every(self, tmp_path):
        # A ledger smaller than snapshot_every keeps the old cadence, so the
        # log of a hot, small working set stays bounded.
        with RefcountGC(journal_dir=tmp_path, snapshot_every=8) as gc:
            for i in range(80):
                gc.incr(f"fp{i % 4}")
            assert gc.wal.stats.snapshots == 10

    def test_crash_at_every_journal_prefix_replays_the_counts(self, tmp_path):
        # Crash after every mutation (snapshots and log truncations
        # included), and with the last record torn mid-append: a restart
        # must land on the in-memory counts as of the last whole record.
        ops = (
            [("incr", f"fp{i % 7}", 1 + i % 3) for i in range(20)]
            + [("decr", f"fp{i}", 2) for i in range(7)]
            + [("forget", "fp3", 0), ("incr", "fp3", 1), ("incr", "new", 4)]
            + [("decr", f"fp{i % 7}", 1) for i in range(12)]
        )
        live = tmp_path / "live"
        history = [{}]
        with RefcountGC(journal_dir=live, snapshot_every=5) as gc:
            for step, (op, fingerprint, n) in enumerate(ops, start=1):
                if op == "forget":
                    gc.forget(fingerprint)
                else:
                    getattr(gc, op)(fingerprint, n)
                history.append(dict(gc.counts))
                crashed = tmp_path / f"crash-{step}"
                shutil.copytree(live, crashed)
                with RefcountGC(journal_dir=crashed) as reborn:
                    assert reborn.counts == history[step], step
                log = crashed / "refcounts.wal.jsonl"
                whole = log.read_bytes()
                if whole:
                    # tear the final record; the rest of the log is intact
                    log.write_bytes(whole[:-3])
                    with RefcountGC(journal_dir=crashed) as torn:
                        assert torn.wal.stats.torn_records_dropped == 1
                        assert torn.counts == history[step - 1], step
            assert gc.wal.stats.snapshots >= 3

    # A journal directory written by the commit before the amortised
    # snapshot rule (snapshot_every=6; ops below), byte for byte.
    _PARENT_SNAPSHOT = (
        '{"aa": ["2", 6, false], "bb": ["4", 6, false], '
        '"cc": ["1", 6, false], "dd": ["1", 6, false]}'
    )
    _PARENT_LOG = (
        '["aa", "1", 7, false]\n["aa", "0", 8, false]\n["dd", "0", 9, false]\n'
        '["dd", "0", 10, true]\n["ee", "1", 11, false]\n'
    )

    def test_parent_commit_journal_loads_unchanged(self, tmp_path):
        old = tmp_path / "old"
        old.mkdir()
        (old / "refcounts.snap.json").write_text(self._PARENT_SNAPSHOT)
        (old / "refcounts.wal.jsonl").write_text(self._PARENT_LOG)
        with RefcountGC(journal_dir=old, snapshot_every=6) as gc:
            assert gc.counts == {"aa": 0, "bb": 4, "cc": 1, "ee": 1}
            assert gc.zero_refs() == ["aa"]
            assert gc.incr("ee") == 2
        assert (old / "refcounts.wal.jsonl").read_text() == (
            self._PARENT_LOG + '["ee", "2", 12, false]\n'
        )
        # ... and the same mutations still write the same bytes today.
        new = tmp_path / "new"
        with RefcountGC(journal_dir=new, snapshot_every=6) as gc:
            for fingerprint in ["aa", "bb", "cc", "aa", "dd"]:
                gc.incr(fingerprint)
            gc.incr("bb", 3)
            gc.decr("aa")
            gc.decr("aa")
            gc.decr("dd")
            gc.forget("dd")
            gc.incr("ee")
        assert (new / "refcounts.snap.json").read_text() == self._PARENT_SNAPSHOT
        assert (new / "refcounts.wal.jsonl").read_text() == self._PARENT_LOG


class TestContentPlane:
    def test_sync_spill_reaches_tier(self):
        plane = ContentPlane(ErasureCodedChunkStore(2, 1))
        plane.spill("fp", b"d" * 100)
        assert plane.tier.has_chunk("fp")
        assert plane.stats.spills == 1
        plane.close()

    def test_async_spill_lands_after_flush(self):
        with ContentPlane(ErasureCodedChunkStore(2, 1), spill_mode="async") as plane:
            for i in range(20):
                plane.spill(f"fp{i}", bytes([i]) * 50)
            plane.flush()
            assert plane.tier.stored_chunks == 20

    def test_fetch_prefers_edge_then_tier(self):
        ring = make_ring()
        plane = ContentPlane(ErasureCodedChunkStore(2, 1))
        plane.register_ring(ring)
        ring.content.put_chunk("edge", b"from-edge")
        plane.spill("tier", b"from-tier")
        got = plane.fetch_many(["edge", "tier"])
        assert got == {"edge": b"from-edge", "tier": b"from-tier"}
        assert plane.stats.edge_hits == 1
        assert plane.stats.tier_hits == 1
        with pytest.raises(KeyError):
            plane.fetch("ghost")
        plane.close()

    def test_spill_deferred_when_zones_down_then_retried(self):
        tier = ErasureCodedChunkStore(2, 1)
        plane = ContentPlane(tier)
        tier.fail_zone(0)
        tier.fail_zone(1)
        plane.spill("fp", b"deferred" * 10)
        assert plane.deferred_spills_pending == 1
        assert not tier.has_chunk("fp")
        tier.recover_zone(0)
        tier.recover_zone(1)
        plane.flush()
        assert plane.deferred_spills_pending == 0
        assert tier.get_chunk("fp") == b"deferred" * 10
        plane.close()

    def test_sweep_reclaims_zero_refs_everywhere(self):
        ring = make_ring()
        gc = RefcountGC()
        plane = ContentPlane(ErasureCodedChunkStore(2, 1), gc=gc)
        plane.register_ring(ring)
        for fp, data in (("keep", b"k" * 64), ("drop", b"d" * 64)):
            ring.content.put_chunk(fp, data)
            plane.spill(fp, data)
            gc.incr(fp)
        gc.decr("drop")
        report = plane.sweep()
        assert report.swept == 1
        assert report.reclaimed_payload_bytes == 64
        assert report.edge_copies_deleted == 1
        assert not plane.tier.has_chunk("drop")
        assert plane.tier.has_chunk("keep")
        assert "drop" not in gc.tracked()
        assert plane.fetch("keep") == b"k" * 64
        plane.close()

    def test_sweep_adopts_untracked_orphans(self):
        plane = ContentPlane(ErasureCodedChunkStore(2, 1))
        plane.spill("orphan", b"o" * 32)  # stored but never refcounted
        report = plane.sweep()
        assert report.orphans_adopted == 1
        assert report.swept == 1
        assert not plane.tier.has_chunk("orphan")
        plane.close()

    def test_sweep_keeps_orphans_when_disabled(self):
        plane = ContentPlane(ErasureCodedChunkStore(2, 1))
        plane.spill("orphan", b"o")
        report = plane.sweep(include_unreferenced=False)
        assert report.swept == 0
        assert plane.tier.has_chunk("orphan")
        plane.close()

    def test_forget_ring_stops_edge_serving(self):
        ring = make_ring()
        plane = ContentPlane(ErasureCodedChunkStore(2, 1))
        plane.register_ring(ring)
        ring.content.put_chunk("fp", b"x")
        plane.forget_ring(ring.ring_id)
        with pytest.raises(KeyError):
            plane.fetch("fp")  # edge copy is gone from the plane's view
        plane.close()

    def test_metrics_surface(self):
        plane = ContentPlane(ErasureCodedChunkStore(2, 1))
        plane.spill("fp", b"m" * 10)
        snap = plane.metrics()
        assert snap["spills"] == 1.0
        assert snap["spill_bytes"] == 10.0
        assert snap["registered_rings"] == 0.0
        plane.close()

    def test_invalid_spill_mode_rejected(self):
        with pytest.raises(ValueError):
            ContentPlane(ErasureCodedChunkStore(2, 1), spill_mode="maybe")


COUNTERS = ("spills", "spill_bytes", "spill_dups", "deferred_spills", "tier_hits", "fetch_misses")


class TestBatchedPlane:
    """The batch spill and fetch against a per-chunk replay of the same
    calls: same counters, same tier, same errors."""

    def _planes(self, spill_mode="sync"):
        planes = []
        for _ in range(2):
            tier = ErasureCodedChunkStore(3, 2, n_zones=7)
            for zone in (0, 1, 2):  # some stripes of a batch fail, some store
                tier.fail_zone(zone)
            planes.append(ContentPlane(tier, spill_mode=spill_mode))
        return planes

    def _batches(self):
        batches = [
            [(f"fp{b}-{i}", bytes([b, i]) * (50 + 31 * i)) for i in range(9)] for b in range(3)
        ]
        batches[1].append(batches[1][0])  # repeated inside a batch
        batches[2].append(batches[0][3])  # already stored (or deferred) earlier
        return batches

    def test_spill_and_fetch_counters_equal_a_per_chunk_replay(self):
        batched, single = self._planes()
        for batch in self._batches():
            batched.spill_many(batch)
            for fingerprint, data in batch:
                single.spill(fingerprint, data)
        assert batched.stats.deferred_spills > 0 and batched.stats.spills > 0
        for plane in (batched, single):
            for zone in (0, 1, 2):
                plane.tier.recover_zone(zone)
            plane.flush()  # the deferred chunks, retried as one batch
        assert batched.tier._zones == single.tier._zones
        wanted = sorted(batched.tier.fingerprints())
        assert batched.fetch_many(wanted) == {fp: single.fetch(fp) for fp in wanted}
        with pytest.raises(KeyError, match="ghost"):
            batched.fetch_many([wanted[0], "ghost", wanted[1]])
        single.fetch(wanted[0])
        with pytest.raises(KeyError, match="ghost"):
            single.fetch("ghost")
        for name in COUNTERS:
            assert getattr(batched.stats, name) == getattr(single.stats, name), name
        for plane in (batched, single):
            plane.close()

    def test_async_mode_queues_one_batch_per_call_and_drains(self):
        with ContentPlane(ErasureCodedChunkStore(2, 1), spill_mode="async") as plane:
            seen = []
            put_chunks = plane.tier.put_chunks
            plane.tier.put_chunks = lambda batch: seen.append(len(batch)) or put_chunks(batch)
            batches = self._batches()
            for batch in batches:
                plane.spill_many(batch)
            plane.flush()
            assert seen == [len(batch) for batch in batches]
            assert plane.tier.stored_chunks == plane.stats.spills == 27
            assert plane.stats.spill_dups == 2


class TestGetManyPlacement:
    def test_placement_resolved_once_per_wanted_fingerprint(self):
        """``get_many`` used to ask ``replicas_for`` twice per fingerprint
        (22 % of a healthy restore after the payload frames went raw), then
        once per fingerprint (all of them misses on a degraded restore).
        Now only a fingerprint two members returned is placed, once."""
        ring = make_ring(n=3, rf=2, batch=64)
        for i in range(20):
            ring.content.put_chunk(f"fp{i}", bytes([i]) * 3)
        ring.content.flush()
        contested = ["fp3", "fp7"]
        for fingerprint in contested:
            (holder,) = [
                n for n in ring.store.nodes
                if fingerprint in ring.store.node_chunk_keys(n)
            ]
            other = next(n for n in ring.store.nodes if n != holder)
            ring.store.scatter_put_chunks(
                {other: [(fingerprint, ring.content.get_chunk(fingerprint))]}
            )
        calls = []
        real = ring.store.replicas_for
        ring.store.replicas_for = lambda key: calls.append(key) or real(key)
        wanted = [f"fp{i}" for i in range(20)] + ["absent", "fp3", "fp3"]
        found = ring.content.get_many(wanted)
        assert found == {f"fp{i}": bytes([i]) * 3 for i in range(20)}
        assert list(found) == list(dict.fromkeys(wanted))[:20]  # request order
        assert sorted(calls) == contested  # once each, repeats folded
        calls.clear()
        assert ring.content.get_many(["absent", "ghost"]) == {}
        assert calls == []  # an all-miss scatter places nothing

    def test_contested_fingerprint_returns_the_primary_copy(self):
        ring = make_ring(n=3, rf=2)
        primary, secondary = ring.store.replicas_for("fp")
        shelve = ring.store.scatter_put_chunks
        shelve({secondary: [("fp", b"secondary")], primary: [("fp", b"primary")]})
        assert ring.content.get_many(["fp"]) == {"fp": b"primary"}
        assert ring.content.stats.hits == 1

    def test_primary_copy_wins_then_any_alive_holder(self):
        ring = make_ring(n=3, rf=2)
        primary, secondary = ring.store.replicas_for("fp")
        (outsider,) = set(ring.store.nodes) - {primary, secondary}
        shelve = ring.store.scatter_put_chunks
        shelve({outsider: [("fp", b"outsider")]})
        assert ring.content.get_many(["fp"]) == {"fp": b"outsider"}
        shelve({secondary: [("fp", b"secondary")]})
        assert ring.content.get_many(["fp"]) == {"fp": b"secondary"}
        shelve({primary: [("fp", b"primary")]})
        assert ring.content.get_many(["fp"]) == {"fp": b"primary"}
        ring.store.mark_down(primary)
        assert ring.content.get_many(["fp"]) == {"fp": b"secondary"}


class _ShelfRig:
    """One ring's index store and edge shelf on one transport, with the
    membership verbs the shelf-directory differential drives."""

    def __init__(self, transport: str) -> None:
        ids = ["n0", "n1", "n2", "n3"]
        self.cluster = None
        if transport == "asyncio":
            retry = RetryPolicy(attempts=3, base_delay_s=0.002, max_delay_s=0.005, jitter=0.0)
            self.cluster = live_cluster(ids, retry=retry)
            self.store = self.cluster.store
        else:
            self.store = DistributedKVStore(ids, replication_factor=2)
        self.content = RingContentStore("ring-0", self.store, batch_size=3)
        self.crashed: set[str] = set()
        self.joined = len(ids)

    def up_members(self) -> list[str]:
        return [n for n in self.store.alive_nodes() if n not in self.crashed]

    def remove(self, node_id: str) -> None:
        self.content.rehome_member(node_id)
        (self.cluster or self.store).remove_node(node_id)
        newcomer = f"n{self.joined}"
        self.joined += 1
        if self.cluster is not None:
            self.cluster.add_node(NodeSpec(newcomer))
        else:
            self.store.add_node(newcomer)

    def lost_ack_flush(self) -> None:
        """Flush with every put_chunks message landing, then losing its ack."""
        transport = self.store.transport
        real = transport.put_chunks

        async def lands_then_fails(node_id, entries):
            await real(node_id, entries)
            raise transport.missed_ack[0]("ack lost after the put landed")

        transport.put_chunks = lands_then_fails
        try:
            self.content.flush()
        finally:
            del transport.put_chunks

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.close()


def _broadcast_oracle(store, fingerprints):
    """What a read that asks every alive member returns: the primary's copy
    of a fingerprint first, then any alive holder's."""
    alive = store.alive_nodes()
    by_node = store.scatter_get_chunks({n: list(fingerprints) for n in alive})
    found = {}
    for fingerprint in fingerprints:
        held = {n: by_node[n].get(fingerprint) for n in alive}
        for node_id in [*store.replicas_for(fingerprint), *alive]:
            if held.get(node_id) is not None:
                found[fingerprint] = held[node_id]
                break
    return found


class TestShelfDirectory:
    """Holder-routed reads equal a broadcast to every alive member, after
    every step of a seeded sequence of puts, lost acks, deletes, evictions,
    membership changes, outages and crashes, on both transports."""

    @pytest.mark.parametrize("transport", ["direct", "asyncio"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_holder_reads_equal_a_broadcast(self, transport, seed):
        import random

        rng = random.Random(seed)
        rig = _ShelfRig(transport)
        ops = ["put", "put", "put", "lost_ack", "delete", "clear", "remove", "down", "up"]
        if transport == "asyncio":
            ops += ["crash", "restart"]
        schedule = ops * 5
        rng.shuffle(schedule)
        shelved: list[str] = []
        seen_ops = set()
        try:
            for step, op in enumerate(schedule):
                up = rig.up_members()
                down = sorted(set(rig.store.alive_nodes()) ^ set(rig.store.nodes))
                if op in ("put", "lost_ack"):
                    fresh = [f"fp{len(shelved) + i}" for i in range(rng.randint(1, 5))]
                    again = rng.sample(shelved, min(len(shelved), rng.randint(0, 3)))
                    shelved += fresh
                    for fingerprint in fresh + again:
                        # Copies differ by step, so the choice of copy shows.
                        rig.content.put_chunk(fingerprint, f"{fingerprint}@{step}".encode())
                    rig.lost_ack_flush() if op == "lost_ack" else rig.content.flush()
                elif op == "delete":
                    rig.content.delete_many(rng.sample(shelved, len(shelved) // 3))
                elif op == "clear":
                    rig.content.clear()
                elif op == "remove" and len(up) >= 2:
                    rig.remove(rng.choice(up))
                elif op == "down" and len(up) >= 2:
                    rig.store.mark_down(rng.choice(up))
                elif op == "up" and set(down) - rig.crashed:
                    rig.store.mark_up(rng.choice(sorted(set(down) - rig.crashed)))
                elif op == "crash" and len(up) >= 2:
                    victim = rng.choice(up)
                    rig.cluster.kill_node(victim)
                    rig.crashed.add(victim)
                elif op == "restart" and rig.crashed:
                    victim = rng.choice(sorted(rig.crashed))
                    rig.cluster.restart_node(victim, repair=False)
                    rig.crashed.discard(victim)
                else:
                    continue
                seen_ops.add(op)
                wanted = shelved + ["never-shelved"]
                expected = _broadcast_oracle(rig.store, wanted)
                stats = rig.content.stats
                before = (stats.gets, stats.hits, stats.misses)
                got = rig.content.get_many(wanted)
                assert got == expected, (step, op)
                assert list(got) == list(expected), (step, op)
                assert (stats.gets, stats.hits, stats.misses) == (
                    before[0] + len(wanted),
                    before[1] + len(expected),
                    before[2] + len(wanted) - len(expected),
                ), (step, op)
            assert {"put", "lost_ack", "delete", "clear", "remove"} <= seen_ops
        finally:
            rig.close()

    def test_a_fingerprint_nobody_holds_sends_no_message(self):
        ring = make_ring(n=3, rf=2)
        ring.content.put_chunk("fp", b"x")
        ring.content.flush()
        asked = []
        real = ring.store.transport.get_chunks

        async def recording(node_id, fingerprints):
            asked.append((node_id, list(fingerprints)))
            return await real(node_id, fingerprints)

        ring.store.transport.get_chunks = recording
        assert ring.content.get_many(["ghost", "fp"]) == {"fp": b"x"}
        assert asked == [(ring.store.replicas_for("fp")[0], ["fp"])]
        ring.content.clear()
        asked.clear()
        assert ring.content.get_many(["ghost", "fp"]) == {}
        assert asked == []
        assert ring.content.stats.misses == 3

    def test_an_unacknowledged_delete_keeps_the_member_listed(self):
        ring = make_ring(n=3, rf=1)
        ring.content.put_chunk("fp", b"x")
        ring.content.flush()
        (holder,) = ring.store.replicas_for("fp")
        ring.store.mark_down(holder)  # the replica refuses the delete
        assert ring.content.delete_many(["fp"]) == (0, 0)
        ring.store.mark_up(holder)
        assert ring.content.get_many(["fp"]) == {"fp": b"x"}
