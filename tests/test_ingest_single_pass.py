"""``ingest_file`` pays each cost once, and is all-or-nothing.

One body (``D2Ring.ingest_file``) serves the ring and the durable cluster:
the recipe and the refcounts come from the lookup batches of the dedup
pass itself, so a file is chunked and hashed once; each batch's
references are journaled before any of its chunks is stored; a duplicate
``file_id`` or a mid-file failure leaves the catalog and the ledger as
they were.
"""

from collections import Counter

import numpy as np
import pytest

from repro.chaos import check_invariants
from repro.chunking.fastcdc import FastCDCChunker
from repro.dedup.engine import DedupEngine
from repro.content import ContentPlane
from repro.dedup.recipes import RecipeError, RecipeStore, make_recipe
from repro.erasure.striped_store import ErasureCodedChunkStore
from repro.kvstore.errors import NodeDownError, UnavailableError
from repro.system.config import EFDedupConfig
from repro.system.ring import D2Ring
from tests.test_restore_durability import make_cluster

LOOKUP_BATCH = 16  # make_cluster's lookup_batch


def payload(seed: int, kb: int = 96) -> bytes:
    """Random bytes with an internal repeat, so a file holds duplicate
    chunks of its own (refcounts count occurrences, not fingerprints)."""
    block = np.random.default_rng(seed).integers(
        0, 256, kb * 1024 // 2, dtype=np.uint8
    ).tobytes()
    return block + block


def durable(tmp_path, transport="inproc", **extra):
    return make_cluster(tmp_path, transport=transport, **extra)


class TestRecipeComesFromTheDedupPass:
    @pytest.mark.parametrize("algo", ["fixed", "gear", "fastcdc", "ae", "ram"])
    def test_recipe_equals_make_recipe_for_every_production_chunker(
        self, tmp_path, algo
    ):
        cluster = durable(tmp_path, chunking_algo=algo)
        try:
            data = payload(1)
            cluster.ingest_file("edge-0", "f", data)
            chunker = cluster.config.make_chunker()
            assert cluster.recipes.get("f") == make_recipe("f", data, chunker=chunker)
            assert cluster.restore_file("f") == data
        finally:
            cluster.shutdown()

    @pytest.mark.parametrize(
        "transport,extra",
        [
            ("inproc", {"lookup_batch": 1}),
            ("inproc", {"secure": True}),
            ("asyncio", {"brownout": True}),
        ],
        ids=["lookup_batch=1", "secure", "brownout"],
    )
    def test_recipe_equals_make_recipe_on_every_engine_path(self, tmp_path, transport, extra):
        cluster = durable(tmp_path, transport, chunking_algo="fastcdc", **extra)
        try:
            ring = cluster.ring_for("edge-0")
            engine = ring.agent("edge-0").engine
            files = {f"f{i}": payload(10 + i) for i in range(2)}
            files["again"] = files["f0"]  # an all-duplicate file
            for file_id, data in files.items():
                cluster.ingest_file("edge-0", file_id, data)
            for file_id, data in files.items():
                expected = make_recipe(file_id, data, chunker=engine.chunker)
                assert cluster.recipes.get(file_id) == expected
                assert cluster.restore_file(file_id) == data
            # one reference per recipe entry, duplicates within a file included
            expected_refs: dict[str, int] = {}
            for file_id in files:
                for entry in cluster.recipes.get(file_id).entries:
                    expected_refs[entry.fingerprint] = (
                        expected_refs.get(entry.fingerprint, 0) + 1
                    )
            assert cluster.gc.live_refs() == expected_refs
        finally:
            cluster.shutdown()

    def test_ring_ingest_file_shares_the_body(self):
        # A bare ring over a content plane, with a catalog of its own, runs
        # the same single pass.
        ring = D2Ring(
            "ring-0",
            ["a", "b"],
            config=EFDedupConfig(chunk_size=4096, chunking_algo="fastcdc", lookup_batch=8),
            content_plane=ContentPlane(ErasureCodedChunkStore(2, 1)),
        )
        recipes = RecipeStore()
        data = payload(3)
        ring.ingest_file("a", "f", data, recipes)
        assert recipes.get("f") == make_recipe(
            "f", data, chunker=ring.agent("a").engine.chunker
        )
        assert ring.restore_file("f", recipes) == data
        with pytest.raises(RecipeError, match="already stored"):
            ring.ingest_file("b", "f", data, recipes)

    def test_cut_points_runs_once_per_file(self, tmp_path, monkeypatch):
        calls = []
        real = FastCDCChunker.cut_points

        def counting(self, data):
            calls.append(len(data))
            return real(self, data)

        monkeypatch.setattr(FastCDCChunker, "cut_points", counting)
        cluster = durable(tmp_path, chunking_algo="fastcdc")
        try:
            data = payload(4)
            cluster.ingest_file("edge-0", "f", data)
            assert calls == [len(data)]
        finally:
            cluster.shutdown()

    def test_batch_refcounts_are_journaled_before_its_chunks_are_stored(
        self, tmp_path, monkeypatch
    ):
        cluster = durable(tmp_path, chunking_algo="fastcdc")
        try:
            ring = cluster.ring_for("edge-0")
            events: list[tuple[str, str]] = []

            def tap(owner, name, label):
                real = getattr(owner, name)

                def tapped(fingerprint, *args, **kwargs):
                    events.append((label, fingerprint))
                    return real(fingerprint, *args, **kwargs)

                monkeypatch.setattr(owner, name, tapped)

            tap(cluster.gc, "incr", "incr")
            tap(ring.content, "put_chunk", "store")
            tap(cluster.content_plane, "spill", "store")
            data = payload(5, kb=256)
            cluster.ingest_file("edge-0", "f", data)
            entries = cluster.recipes.get("f").entries
            assert len(entries) > 2 * LOOKUP_BATCH
            assert [fp for kind, fp in events if kind == "incr"] == [
                e.fingerprint for e in entries
            ]
            first_position = {}
            for position, entry in enumerate(entries):
                first_position.setdefault(entry.fingerprint, position)
            incrs = 0
            stores = 0
            for kind, fingerprint in events:
                if kind == "incr":
                    incrs += 1
                    continue
                stores += 1
                batch_end = min(
                    len(entries),
                    (first_position[fingerprint] // LOOKUP_BATCH + 1) * LOOKUP_BATCH,
                )
                assert incrs >= batch_end, (fingerprint, incrs, batch_end)
            assert stores > 0
        finally:
            cluster.shutdown()


def unique_payload(seed: int, chunks: int) -> bytes:
    """``chunks`` distinct 4 KiB fixed-size chunks."""
    return np.random.default_rng(seed).integers(
        0, 256, chunks * 4096, dtype=np.uint8
    ).tobytes()


class TestTheLookupBatchIsTheWriteUnit:
    """A lookup round shelves its payloads in one scatter of messages of at
    most ``content_batch`` payloads and commits its references with one
    journal flush — on both transports, counted the same."""

    @staticmethod
    def three_member_cluster(tmp_path, transport):
        return durable(
            tmp_path, transport, nodes=3, lookup_batch=64, content_batch=4
        )

    @pytest.mark.parametrize("transport", ["inproc", "asyncio"])
    def test_one_lookup_round_is_one_scatter_of_bounded_messages(
        self, tmp_path, monkeypatch, transport
    ):
        cluster = self.three_member_cluster(tmp_path, transport)
        try:
            ring = cluster.ring_for("edge-0")
            scatters: list[list[tuple[str, int]]] = []
            real = ring.store.scatter_put_chunks

            def spy(messages):
                scatters.append([(node, len(entries)) for node, entries in messages])
                return real(messages)

            monkeypatch.setattr(ring.store, "scatter_put_chunks", spy)
            cluster.ingest_file("edge-0", "f", unique_payload(21, 2 * 64))
            assert len(scatters) == 2  # two lookup rounds, two scatters
            for scatter in scatters:
                assert max(size for _, size in scatter) <= 4
                shares = Counter()
                for node, size in scatter:
                    shares[node] += size
                assert len(shares) == 3 and sum(shares.values()) == 64
                # each member's share goes in ceil(share / 4) messages
                assert len(scatter) == sum(-(-share // 4) for share in shares.values())
            stats = ring.content.stats
            assert stats.batch_flushes == sum(len(s) for s in scatters)
            assert (stats.puts, stats.dropped_puts) == (128, 0)
            assert cluster.restore_file("f") == unique_payload(21, 2 * 64)
        finally:
            cluster.shutdown()

    @pytest.mark.parametrize("transport", ["inproc", "asyncio"])
    def test_a_failed_message_drops_only_its_own_payloads(
        self, tmp_path, monkeypatch, transport
    ):
        cluster = self.three_member_cluster(tmp_path, transport)
        try:
            ring = cluster.ring_for("edge-0")
            real = ring.store.transport.put_chunks
            sent: list[list[tuple[str, bytes]]] = []

            async def second_message_lost(node_id, entries):
                sent.append(entries)
                if len(sent) == 2:
                    raise NodeDownError(node_id)
                return await real(node_id, entries)

            monkeypatch.setattr(ring.store.transport, "put_chunks", second_message_lost)
            data = unique_payload(22, 64)
            cluster.ingest_file("edge-0", "f", data)
            lost = {fp for fp, _ in sent[1]}
            assert 1 <= len(lost) <= 4
            stats = ring.content.stats
            assert stats.dropped_puts == len(lost)
            assert stats.puts == 64 - len(lost)
            assert stats.batch_flushes == len(sent)
            stored = {entry.fingerprint for entry in cluster.recipes.get("f").entries}
            assert ring.content.fingerprints() == stored - lost
            assert cluster.restore_file("f") == data  # the tier holds every chunk
        finally:
            cluster.shutdown()

    def test_a_batchs_references_are_k_appends_and_one_flush(self, tmp_path):
        cluster = durable(tmp_path)  # fixed 4 KiB chunks, lookup_batch 16
        try:
            wal = cluster.gc.wal
            appends, flushes = wal.stats.appends, wal.stats.flushes
            data = payload(23)  # 24 chunks, each repeated once: 2 lookup rounds
            cluster.ingest_file("edge-0", "f", data)
            entries = cluster.recipes.get("f").entries
            assert len(entries) == 24
            assert wal.stats.appends - appends == 24
            assert wal.stats.flushes - flushes == 2
            assert cluster.gc.metrics()["journal_flushes"] == wal.stats.flushes
        finally:
            cluster.shutdown()

    @pytest.mark.parametrize(
        "transport,extra",
        [("inproc", {}), ("inproc", {"secure": True}), ("asyncio", {"brownout": True})],
        ids=["plain", "secure", "brownout"],
    )
    def test_ratio_restores_and_index_match_through_the_batch_sink(
        self, tmp_path, transport, extra
    ):
        cluster = durable(tmp_path, transport, nodes=3, chunking_algo="fastcdc", **extra)
        try:
            ring = cluster.ring_for("edge-0")
            files = {f"f{i}": payload(30 + i % 3) + payload(40 + i) for i in range(5)}
            reference = DedupEngine(chunker=cluster.config.make_chunker())
            for i, (file_id, data) in enumerate(files.items()):
                cluster.ingest_file(ring.members[i % 3], file_id, data)
                reference.dedup_bytes(data)
            assert ring.dedup_ratio == reference.stats.dedup_ratio
            for file_id, data in files.items():
                assert cluster.restore_file(file_id) == data
            report = check_invariants(ring)
            assert report.passed, report.violations
        finally:
            cluster.shutdown()


class TestIngestIsAllOrNothing:
    def _state(self, cluster):
        ring = cluster.ring_for("edge-0")
        return {
            "recipes": cluster.recipes.file_ids(),
            "live_refs": cluster.gc.live_refs(),
            "tracked": cluster.gc.tracked(),
            "tier": set(cluster.tier.fingerprints()),
            "shelves": set(ring.content.fingerprints()),
            "index": set(ring.store.unique_keys()),
            "cloud": set(cluster.cloud.fingerprints()),
        }

    def test_failure_mid_file_leaves_no_recipe_and_no_refs(self, tmp_path, monkeypatch):
        cluster = durable(tmp_path, chunking_algo="fastcdc")
        try:
            ring = cluster.ring_for("edge-0")
            kept = payload(6)
            cluster.ingest_file("edge-0", "kept", kept)
            before = self._state(cluster)

            # Shares its first half with "kept" (references taken on
            # already-counted chunks must be released too), then new data.
            doomed = kept[: len(kept) // 2] + payload(7, kb=256)
            real_claims = ring.store.put_if_absent_many
            rounds = []

            def claims_then_outage(*args, **kwargs):
                rounds.append(1)
                if len(rounds) == 4:  # mid-file: every replica goes away
                    for member in ring.members:
                        ring.fail_node(member)
                return real_claims(*args, **kwargs)

            monkeypatch.setattr(ring.store, "put_if_absent_many", claims_then_outage)
            with pytest.raises(UnavailableError):
                cluster.ingest_file("edge-0", "doomed", doomed)
            assert len(rounds) == 4
            monkeypatch.undo()
            for member in ring.members:
                ring.recover_node(member)

            assert cluster.recipes.file_ids() == before["recipes"]
            assert cluster.gc.live_refs() == before["live_refs"]
            assert cluster.gc.underflows == 0
            # What the aborted call stored is zero-ref: the sweep takes
            # exactly that and the cluster is as if the call never happened.
            report = cluster.gc_sweep()
            assert report.swept > 0
            assert report.orphans_adopted == 0
            assert self._state(cluster) == before
            assert cluster.restore_file("kept") == kept

            cluster.ingest_file("edge-0", "doomed", doomed)
            assert cluster.restore_file("doomed") == doomed
            assert cluster.restore_file("kept") == kept
        finally:
            cluster.shutdown()

    def test_duplicate_file_id_is_refused_before_the_index_is_touched(self, tmp_path):
        cluster = durable(tmp_path, chunking_algo="fastcdc")
        try:
            ring = cluster.ring_for("edge-0")
            data = payload(8)
            cluster.ingest_file("edge-0", "f", data)
            before = self._state(cluster)
            rounds = ring.ring_indexes["edge-0"].lookups.batch_rounds
            appends = cluster.gc.wal.stats.appends
            with pytest.raises(RecipeError, match="already stored"):
                cluster.ingest_file("edge-0", "f", payload(9))
            assert ring.ring_indexes["edge-0"].lookups.batch_rounds == rounds
            assert cluster.gc.wal.stats.appends == appends
            assert self._state(cluster) == before
            assert cluster.restore_file("f") == data
        finally:
            cluster.shutdown()
