"""Tests for file recipes and the restore path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking.fixed import FixedSizeChunker
from repro.chunking.gear import GearChunker
from repro.dedup.recipes import (
    FileRecipe,
    RecipeEntry,
    RecipeError,
    RecipeStore,
    make_recipe,
    restore_file,
)
from repro.content import ContentPlane
from repro.erasure.striped_store import ErasureCodedChunkStore
from repro.system.config import EFDedupConfig
from repro.system.ring import D2Ring


class TestMakeRecipe:
    def test_entry_counts_and_lengths(self):
        data = b"x" * 10_000
        recipe = make_recipe("f", data, chunker=FixedSizeChunker(4096))
        assert recipe.n_chunks == 3
        assert [e.length for e in recipe.entries] == [4096, 4096, 1808]
        assert recipe.total_bytes == 10_000

    def test_empty_file(self):
        recipe = make_recipe("empty", b"", chunker=FixedSizeChunker(4096))
        assert recipe.n_chunks == 0
        assert recipe.total_bytes == 0

    def test_duplicate_chunks_repeat_in_recipe(self):
        recipe = make_recipe("f", b"aaaa" * 2, chunker=FixedSizeChunker(4))
        assert recipe.entries[0].fingerprint == recipe.entries[1].fingerprint


class TestRestoreFile:
    def _chunk_map(self, data: bytes, chunk: int = 4096) -> dict[str, bytes]:
        from repro.chunking.hashing import default_fingerprint

        return {
            default_fingerprint(c.data): c.data
            for c in FixedSizeChunker(chunk).chunk(data)
        }

    def test_roundtrip(self):
        data = bytes(range(256)) * 40
        recipe = make_recipe("f", data, chunker=FixedSizeChunker(4096))
        chunks = self._chunk_map(data)
        assert restore_file(recipe, chunks.__getitem__) == data

    def test_roundtrip_cdc(self):
        data = bytes(range(256)) * 100
        chunker = GearChunker(avg_size=1024)
        recipe = make_recipe("f", data, chunker=chunker)
        from repro.chunking.hashing import default_fingerprint

        chunks = {default_fingerprint(c.data): c.data for c in chunker.chunk(data)}
        assert restore_file(recipe, chunks.__getitem__) == data

    def test_missing_chunk(self):
        recipe = make_recipe("f", b"x" * 8192, chunker=FixedSizeChunker(4096))
        with pytest.raises(RecipeError, match="missing"):
            restore_file(recipe, {}.__getitem__)

    def test_corrupt_chunk_caught(self):
        data = b"y" * 4096
        recipe = make_recipe("f", data, chunker=FixedSizeChunker(4096))
        bad = {recipe.entries[0].fingerprint: b"z" * 4096}
        with pytest.raises(RecipeError, match="verification"):
            restore_file(recipe, bad.__getitem__)

    def test_wrong_length_caught(self):
        data = b"y" * 4096
        recipe = make_recipe("f", data, chunker=FixedSizeChunker(4096))
        bad = {recipe.entries[0].fingerprint: b"y" * 100}
        with pytest.raises(RecipeError, match="bytes"):
            restore_file(recipe, bad.__getitem__)

    def test_verification_can_be_skipped(self):
        data = b"y" * 4096
        recipe = make_recipe("f", data, chunker=FixedSizeChunker(4096))
        substituted = {recipe.entries[0].fingerprint: b"z" * 4096}
        out = restore_file(recipe, substituted.__getitem__, verify=False)
        assert out == b"z" * 4096  # caller opted out of safety

    def test_each_distinct_chunk_is_fetched_and_verified_once(self):
        from repro.chunking import hashing

        a, b, c = b"a" * 4096, b"b" * 4096, b"c" * 4096
        data = a + b + a + c + b + a
        recipe = make_recipe("f", data, chunker=FixedSizeChunker(4096))
        chunks = self._chunk_map(data)
        fetched, hashed = [], []

        def fetch(fp):
            fetched.append(fp)
            return chunks[fp]

        def fingerprint(payload):
            hashed.append(bytes(payload))
            return hashing.default_fingerprint(payload)

        assert restore_file(recipe, fetch, fingerprint=fingerprint) == data
        assert len(recipe.entries) == 6
        assert fetched == list(dict.fromkeys(e.fingerprint for e in recipe.entries))
        assert hashed == [a, b, c]

    def test_corrupt_repeated_chunk_names_its_first_index(self):
        good, repeated = b"g" * 4096, b"r" * 4096
        recipe = make_recipe(
            "f", good + repeated + good + repeated, chunker=FixedSizeChunker(4096)
        )
        chunks = self._chunk_map(good + repeated)
        chunks[recipe.entries[1].fingerprint] = b"x" * 4096
        with pytest.raises(RecipeError, match="chunk 1 failed fingerprint"):
            restore_file(recipe, chunks.__getitem__)

    def test_repeated_entry_still_gets_its_length_checked(self):
        data = b"y" * 8192
        recipe = make_recipe("f", data, chunker=FixedSizeChunker(4096))
        fp = recipe.entries[0].fingerprint
        lying = FileRecipe("f", (recipe.entries[0], RecipeEntry(fp, 100)))
        with pytest.raises(RecipeError, match="chunk 1 has 4096 bytes"):
            restore_file(lying, {fp: b"y" * 4096}.__getitem__)

    @given(data=st.binary(min_size=1, max_size=5000))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, data):
        recipe = make_recipe("f", data, chunker=FixedSizeChunker(256))
        chunks = self._chunk_map(data, chunk=256)
        assert restore_file(recipe, chunks.__getitem__) == data


class TestRecipeStore:
    def test_put_get(self):
        store = RecipeStore()
        recipe = FileRecipe(file_id="f", entries=(RecipeEntry("fp", 4),))
        store.put(recipe)
        assert store.get("f") is recipe
        assert "f" in store
        assert len(store) == 1

    def test_duplicate_rejected(self):
        store = RecipeStore()
        recipe = FileRecipe(file_id="f", entries=())
        store.put(recipe)
        with pytest.raises(RecipeError, match="already"):
            store.put(recipe)

    def test_missing(self):
        with pytest.raises(RecipeError, match="no recipe"):
            RecipeStore().get("ghost")

    def test_logical_bytes(self):
        store = RecipeStore()
        store.put(FileRecipe("a", (RecipeEntry("x", 10), RecipeEntry("y", 5))))
        store.put(FileRecipe("b", (RecipeEntry("x", 10),)))
        assert store.logical_bytes() == 25
        assert store.file_ids() == ["a", "b"]


class TestRingRestore:
    def _ring(self) -> D2Ring:
        return D2Ring(
            "r",
            ["n0", "n1"],
            config=EFDedupConfig(chunk_size=4096),
            content_plane=ContentPlane(ErasureCodedChunkStore(2, 1)),
        )

    def test_end_to_end_restore(self):
        from repro.datasets.accelerometer import AccelerometerSource

        ring, recipes = self._ring(), RecipeStore()
        src = AccelerometerSource(participant=0)
        files = {f"day{i}": src.generate_file(i).data for i in range(3)}
        for i, (fid, data) in enumerate(files.items()):
            ring.ingest_file(ring.members[i % 2], fid, data, recipes)
        for fid, data in files.items():
            assert ring.restore_file(fid, recipes) == data

    def test_restore_deduplicated_file(self):
        """A file whose chunks were all duplicates (uploaded by an earlier
        file) still restores — the recipe points at shared chunks."""
        ring, recipes = self._ring(), RecipeStore()
        payload = bytes(8192)
        ring.ingest_file("n0", "first", payload, recipes)
        ring.ingest_file("n1", "second", payload, recipes)  # 100% duplicate
        assert ring.cloud.stored_chunks == 1
        assert ring.restore_file("second", recipes) == payload

    def test_restore_requires_payloads(self):
        ring = D2Ring("r", ["n0"], config=EFDedupConfig(chunk_size=4096))
        with pytest.raises(RuntimeError, match="content plane"):
            ring.ingest_file("n0", "f", b"data", RecipeStore())

    def test_restore_refuses_the_accounting_cloud(self):
        # The accounting-only cloud keeps no bytes, so a ring without a
        # content plane refuses to restore instead of reading the cloud.
        recipes = RecipeStore()
        recipes.put(make_recipe("f", b"abcd", chunker=FixedSizeChunker(4096)))
        ring = D2Ring("r", ["n0"], config=EFDedupConfig(chunk_size=4096))
        with pytest.raises(RuntimeError, match="content plane"):
            ring.restore_file("f", recipes)
        with pytest.raises(RecipeError):
            self._ring().restore_file("ghost", recipes)
