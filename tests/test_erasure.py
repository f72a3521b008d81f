"""Tests for the erasure-coding package: GF(256), Reed-Solomon, and the
zone-striped chunk store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.gf256 import (
    EXP_TABLE,
    MUL_TABLE,
    gf_div,
    gf_inv,
    gf_mat_inv,
    gf_matmul,
    gf_mul,
    gf_mul_vec,
    gf_pow,
)
from repro.erasure.reedsolomon import ReedSolomonCode, Shard
from repro.erasure.striped_store import ErasureCodedChunkStore, ZoneFailedError
from tests import gf256_oracle


class TestGF256:
    def test_mul_identity(self):
        for a in range(256):
            assert gf_mul(a, 1) == a
            assert gf_mul(a, 0) == 0

    def test_mul_commutative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = int(rng.integers(0, 256)), int(rng.integers(0, 256))
            assert gf_mul(a, b) == gf_mul(b, a)

    def test_mul_associative(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b, c = (int(x) for x in rng.integers(0, 256, 3))
            assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    def test_distributive_over_xor(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b, c = (int(x) for x in rng.integers(0, 256, 3))
            assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)

    def test_inverse(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inv(a)) == 1

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_div_is_mul_by_inverse(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = int(rng.integers(0, 256))
            b = int(rng.integers(1, 256))
            assert gf_div(a, b) == gf_mul(a, gf_inv(b))

    def test_div_by_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            gf_div(5, 0)

    def test_pow(self):
        assert gf_pow(7, 0) == 1
        assert gf_pow(7, 1) == 7
        assert gf_pow(7, 2) == gf_mul(7, 7)
        assert gf_pow(0, 5) == 0

    def test_exp_table_periodic(self):
        assert (EXP_TABLE[:255] == EXP_TABLE[255:510]).all()

    def test_mul_vec_matches_scalar(self):
        rng = np.random.default_rng(4)
        vec = rng.integers(0, 256, size=64, dtype=np.uint8)
        scalar = 37
        out = gf_mul_vec(scalar, vec)
        for i in range(64):
            assert out[i] == gf_mul(scalar, int(vec[i]))

    def test_mul_table_is_gf_mul_for_every_pair(self):
        assert MUL_TABLE.shape == (256, 256) and MUL_TABLE.dtype == np.uint8
        expected = [[gf_mul(a, b) for b in range(256)] for a in range(256)]
        assert MUL_TABLE.tolist() == expected

    @given(
        scalar=st.integers(min_value=0, max_value=255),
        vec=st.binary(max_size=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_mul_vec_matches_oracle(self, scalar, vec):
        vec = np.frombuffer(vec, dtype=np.uint8)
        assert np.array_equal(
            gf_mul_vec(scalar, vec), gf256_oracle.gf_mul_vec(scalar, vec)
        )

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matmul_matches_oracle(self, data):
        r, k, length = (data.draw(st.integers(1, 5)) for _ in range(3))
        # Small coefficients too, so the skip-0 and XOR-for-1 branches run.
        coefficient = st.one_of(st.integers(0, 2), st.integers(0, 255))
        matrix = np.array(
            data.draw(st.lists(st.lists(coefficient, min_size=k, max_size=k),
                               min_size=r, max_size=r)),
            dtype=np.uint8,
        )
        shards = np.frombuffer(
            data.draw(st.binary(min_size=k * length, max_size=k * length)),
            dtype=np.uint8,
        ).reshape(k, length)
        before = shards.copy()
        assert np.array_equal(
            gf_matmul(matrix, shards), gf256_oracle.gf_matmul(matrix, shards)
        )
        assert np.array_equal(shards, before)  # inputs are never written to

    def test_mat_inv_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            while True:
                m = rng.integers(0, 256, size=(4, 4)).astype(np.uint8)
                try:
                    inv = gf_mat_inv(m)
                    break
                except ValueError:
                    continue
            product = gf_matmul(m, inv)
            assert np.array_equal(product, np.eye(4, dtype=np.uint8))

    def test_singular_matrix_rejected(self):
        singular = np.zeros((3, 3), dtype=np.uint8)
        with pytest.raises(ValueError, match="singular"):
            gf_mat_inv(singular)


class TestReedSolomon:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ReedSolomonCode(0, 2)
        with pytest.raises(ValueError):
            ReedSolomonCode(2, -1)
        with pytest.raises(ValueError):
            ReedSolomonCode(200, 60)

    def test_systematic_data_shards_verbatim(self):
        code = ReedSolomonCode(4, 2)
        payload = bytes(range(200))
        shards = code.encode(payload)
        recovered = b"".join(s.data for s in shards[:4])[: len(payload)]
        assert recovered == payload

    def test_roundtrip_all_shards(self):
        code = ReedSolomonCode(4, 2)
        payload = np.random.default_rng(0).integers(0, 256, 999, dtype=np.uint8).tobytes()
        assert code.decode(code.encode(payload), len(payload)) == payload

    @pytest.mark.parametrize("lost", [(0,), (5,), (0, 1), (0, 5), (4, 5), (2, 3)])
    def test_roundtrip_with_losses(self, lost):
        code = ReedSolomonCode(4, 2)
        payload = np.random.default_rng(1).integers(0, 256, 777, dtype=np.uint8).tobytes()
        shards = [s for s in code.encode(payload) if s.index not in lost]
        assert code.decode(shards, len(payload)) == payload

    def test_too_many_losses_rejected(self):
        code = ReedSolomonCode(4, 2)
        payload = b"hello world" * 10
        shards = code.encode(payload)[:3]
        with pytest.raises(ValueError, match="at least k"):
            code.decode(shards, len(payload))

    def test_duplicate_shard_rejected(self):
        code = ReedSolomonCode(2, 1)
        shards = code.encode(b"data!")
        with pytest.raises(ValueError, match="duplicate"):
            code.decode([shards[0], shards[0]], 5)

    def test_bad_index_rejected(self):
        code = ReedSolomonCode(2, 1)
        with pytest.raises(ValueError, match="out of range"):
            code.decode([Shard(index=9, data=b"xx")], 2)

    def test_inconsistent_lengths_rejected(self):
        code = ReedSolomonCode(2, 1)
        with pytest.raises(ValueError, match="lengths"):
            code.decode([Shard(0, b"aa"), Shard(1, b"bbb")], 4)

    def test_empty_payload(self):
        code = ReedSolomonCode(3, 2)
        shards = code.encode(b"")
        assert code.decode(shards, 0) == b""

    def test_reconstruct_shard(self):
        code = ReedSolomonCode(4, 2)
        payload = bytes(range(256)) * 3
        shards = code.encode(payload)
        survivors = [s for s in shards if s.index != 2]
        rebuilt = code.reconstruct_shard(survivors, 2, len(payload))
        assert rebuilt == shards[2]

    def test_storage_overhead(self):
        assert ReedSolomonCode(4, 2).storage_overhead == pytest.approx(1.5)
        assert ReedSolomonCode(10, 4).storage_overhead == pytest.approx(1.4)

    @given(
        payload=st.binary(min_size=1, max_size=500),
        k=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, payload, k, m):
        code = ReedSolomonCode(k, m)
        shards = code.encode(payload)
        assert len(shards) == k + m
        assert code.decode(shards, len(payload)) == payload

    @given(payload=st.binary(min_size=1, max_size=300), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_any_k_of_n_decodes_property(self, payload, data):
        code = ReedSolomonCode(3, 3)
        shards = code.encode(payload)
        chosen = data.draw(st.permutations(range(6)))[:3]
        subset = [s for s in shards if s.index in chosen]
        assert code.decode(subset, len(payload)) == payload


class TestKernelMatchesOracle:
    """The table kernel against the retired log/exp one (tests/gf256_oracle):
    same shards out of encode, same bytes out of decode for every loss
    pattern of <= m shards."""

    @given(
        k=st.integers(min_value=1, max_value=5),
        m=st.integers(min_value=0, max_value=3),
        payload=st.one_of(
            st.sampled_from([b"", b"\x00", b"\xff"]), st.binary(max_size=400)
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_match_oracle(self, k, m, payload):
        import itertools

        code = ReedSolomonCode(k, m)
        shards = code.encode(payload)
        assert shards == gf256_oracle.encode(code, payload)
        for n_lost in range(m + 1):
            for lost in itertools.combinations(range(k + m), n_lost):
                subset = [s for s in shards if s.index not in lost]
                decoded = code.decode(subset, len(payload))
                assert decoded == payload, lost
                assert decoded == gf256_oracle.decode(code, subset, len(payload))

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 4, 5, 8191, 8192, 8193])
    def test_reference_code_at_chunk_sized_payloads(self, length):
        code = ReedSolomonCode(3, 2)
        payload = np.random.default_rng(length).integers(
            0, 256, length, dtype=np.uint8
        ).tobytes()
        shards = code.encode(payload)
        assert shards == gf256_oracle.encode(code, payload)
        assert code.decode(shards[2:], length) == payload
        assert gf256_oracle.decode(code, shards[2:], length) == payload

    def test_decode_accepts_shards_in_any_order(self):
        code = ReedSolomonCode(3, 2)
        payload = bytes(range(200))
        shards = code.encode(payload)
        assert code.decode([shards[4], shards[0], shards[3]], 200) == payload


class TestErasureCodedChunkStore:
    def test_zone_count_validation(self):
        with pytest.raises(ValueError):
            ErasureCodedChunkStore(4, 2, n_zones=5)

    def test_put_get_roundtrip(self):
        store = ErasureCodedChunkStore(4, 2)
        payload = bytes(range(256)) * 4
        assert store.put_chunk("fp", payload) is True
        assert store.get_chunk("fp") == payload

    def test_dedup_on_fingerprint(self):
        store = ErasureCodedChunkStore(2, 1)
        store.put_chunk("fp", b"data")
        assert store.put_chunk("fp", b"data") is False
        assert store.stored_chunks == 1

    def test_unknown_chunk(self):
        with pytest.raises(KeyError):
            ErasureCodedChunkStore(2, 1).get_chunk("ghost")

    def test_survives_m_zone_failures(self):
        store = ErasureCodedChunkStore(4, 2)
        payload = b"x" * 10_000
        store.put_chunk("fp", payload)
        store.fail_zone(0)
        store.fail_zone(3)
        assert store.get_chunk("fp") == payload

    def test_fails_beyond_m_losses(self):
        store = ErasureCodedChunkStore(4, 2)
        store.put_chunk("fp", b"y" * 1000)
        for z in (0, 1, 2):
            store.fail_zone(z)
        with pytest.raises(ZoneFailedError):
            store.get_chunk("fp")

    def test_storage_overhead_matches_code(self):
        store = ErasureCodedChunkStore(4, 2)
        store.put_chunk("fp", b"z" * 4096)
        assert store.storage_overhead == pytest.approx(1.5, rel=0.01)

    def test_write_during_outage_still_durable(self):
        store = ErasureCodedChunkStore(4, 2)
        store.fail_zone(1)
        payload = b"w" * 2048
        store.put_chunk("fp", payload)
        store.recover_zone(1)
        # Chunk readable even though zone 1 never got its shard...
        assert store.get_chunk("fp") == payload
        # ...and losing one MORE zone still works (5 shards exist, k=4).
        store.fail_zone(0)
        assert store.get_chunk("fp") == payload

    def test_write_rejected_when_too_few_zones(self):
        store = ErasureCodedChunkStore(4, 2)
        for z in (0, 1, 2):
            store.fail_zone(z)
        with pytest.raises(ZoneFailedError):
            store.put_chunk("fp", b"data")
        assert store.stored_chunks == 0
        assert store.stored_shard_bytes == 0  # clean rollback

    def test_repair_restores_redundancy(self):
        store = ErasureCodedChunkStore(4, 2, n_zones=8)
        payload = b"r" * 4096
        store.put_chunk("fp", payload)
        store.fail_zone(0)
        rebuilt = store.repair_chunk("fp")
        assert rebuilt >= 1
        # After repair, even two further zone losses keep the data readable.
        store.fail_zone(1)
        store.fail_zone(2)
        assert store.get_chunk("fp") == payload

    def test_zone_bounds_checked(self):
        store = ErasureCodedChunkStore(2, 1)
        with pytest.raises(ValueError):
            store.fail_zone(99)


class TestLossPatternsExhaustive:
    """Every loss pattern of <= m shards must decode, for a grid of codes."""

    @pytest.mark.parametrize("k,m", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (3, 3)])
    def test_all_loss_patterns_up_to_m(self, k, m):
        import itertools

        code = ReedSolomonCode(k, m)
        payload = np.random.default_rng(k * 10 + m).integers(
            0, 256, 257, dtype=np.uint8
        ).tobytes()
        shards = code.encode(payload)
        for n_lost in range(m + 1):
            for lost in itertools.combinations(range(k + m), n_lost):
                subset = [s for s in shards if s.index not in lost]
                assert code.decode(subset, len(payload)) == payload, lost

    @pytest.mark.parametrize("k,m", [(1, 1), (2, 2), (4, 2)])
    def test_one_byte_payload_all_patterns(self, k, m):
        import itertools

        code = ReedSolomonCode(k, m)
        shards = code.encode(b"\x7f")
        for lost in itertools.combinations(range(k + m), m):
            subset = [s for s in shards if s.index not in lost]
            assert code.decode(subset, 1) == b"\x7f"

    def test_zero_length_payload_survives_losses(self):
        code = ReedSolomonCode(3, 2)
        shards = code.encode(b"")
        assert code.decode(shards[2:], 0) == b""


class TestZoneRecoveryBackfill:
    """recover_zone() must repair every stripe written during the outage."""

    def test_degraded_write_tracked_then_backfilled(self):
        store = ErasureCodedChunkStore(4, 2)
        store.fail_zone(0)
        store.fail_zone(1)
        store.put_chunk("fp", b"d" * 3000)
        assert store.under_replicated_stripes == 1
        rebuilt = store.recover_zone(0)
        # One zone back: 5 placements possible, still short of k+m=6.
        assert rebuilt >= 1
        assert store.under_replicated_stripes == 1
        rebuilt = store.recover_zone(1)
        assert rebuilt >= 1
        assert store.under_replicated_stripes == 0
        # Full redundancy restored: any m zones may now die.
        store.fail_zone(0)
        store.fail_zone(1)
        assert store.get_chunk("fp") == b"d" * 3000

    def test_healthy_writes_never_under_replicated(self):
        store = ErasureCodedChunkStore(3, 2)
        for i in range(5):
            store.put_chunk(f"fp{i}", bytes([i]) * 100)
        assert store.under_replicated_stripes == 0
        assert store.recover_zone(0) == 0  # no-op recovery rebuilds nothing

    def test_metrics_surface(self):
        store = ErasureCodedChunkStore(3, 2)
        store.put_chunk("fp", b"m" * 900)
        store.fail_zone(4)
        snap = store.metrics()
        assert snap["stored_chunks"] == 1.0
        assert snap["payload_bytes"] == 900.0
        assert snap["zones_down"] == 1.0
        assert snap["under_replicated_stripes"] == 0.0
        assert snap["stored_shard_bytes"] > 0.0


class TestDeleteChunkAccounting:
    """delete_chunk must return byte accounting to exactly zero."""

    def test_delete_roundtrip_accounting(self):
        store = ErasureCodedChunkStore(4, 2)
        store.put_chunk("a", b"x" * 5000)
        store.put_chunk("b", b"y" * 300)
        bytes_with_both = store.stored_shard_bytes
        assert store.delete_chunk("a") is True
        assert store.stored_shard_bytes < bytes_with_both
        assert store.payload_bytes == 300
        assert store.delete_chunk("b") is True
        assert store.stored_chunks == 0
        assert store.stored_shard_bytes == 0
        assert store.payload_bytes == 0
        assert store.fingerprints() == frozenset()

    def test_delete_missing_is_false(self):
        assert ErasureCodedChunkStore(2, 1).delete_chunk("ghost") is False

    def test_delete_during_outage_drops_stale_shards_on_recovery(self):
        store = ErasureCodedChunkStore(2, 1)
        store.put_chunk("fp", b"z" * 1200)
        store.fail_zone(0)
        assert store.delete_chunk("fp") is True
        assert store.payload_bytes == 0
        # Zone 0 still holds its (now orphaned) shard bytes until it heals.
        assert store.stored_shard_bytes > 0
        store.recover_zone(0)
        assert store.stored_shard_bytes == 0

    def test_deleted_chunk_not_backfilled(self):
        store = ErasureCodedChunkStore(2, 1)
        store.fail_zone(0)
        store.put_chunk("fp", b"q" * 800)
        assert store.under_replicated_stripes == 1
        store.delete_chunk("fp")
        assert store.under_replicated_stripes == 0
        assert store.recover_zone(0) == 0
        assert store.stored_shard_bytes == 0

    def test_chunk_length_and_has_chunk(self):
        store = ErasureCodedChunkStore(2, 1)
        store.put_chunk("fp", b"L" * 77)
        assert store.has_chunk("fp")
        assert store.chunk_length("fp") == 77
        with pytest.raises(KeyError):
            store.chunk_length("ghost")
