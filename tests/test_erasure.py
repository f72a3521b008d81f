"""Tests for the erasure-coding package: GF(256), Reed-Solomon, and the
zone-striped chunk store."""

import hashlib
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.gf256 import (
    EXP_TABLE,
    MUL_TABLE,
    gf_div,
    gf_dot,
    gf_inv,
    gf_mat_inv,
    gf_matmul,
    gf_mul,
    gf_pow,
)
from repro.erasure import reedsolomon
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
        out = gf_dot((scalar,), (vec.tobytes(),))
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
        expected = gf256_oracle.gf_mul_vec(scalar, np.frombuffer(vec, dtype=np.uint8))
        assert gf_dot((scalar,), (vec,)) == expected.tobytes()

    def test_dot_matches_oracle_for_every_coefficient(self):
        rng = np.random.default_rng(6)
        vec = np.concatenate(
            [np.arange(256, dtype=np.uint8), rng.integers(0, 256, 777, dtype=np.uint8)]
        )
        part = vec.tobytes()
        for coefficient in range(256):
            expected = gf256_oracle.gf_mul_vec(coefficient, vec).tobytes()
            assert gf_dot((coefficient,), (part,)) == expected, coefficient
        assert part == vec.tobytes()  # the input is never written to

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_dot_matches_oracle(self, data):
        n = data.draw(st.integers(1, 6))
        length = data.draw(st.sampled_from([0, 1, 2, 7, 64, 300]))
        coefficient = st.one_of(st.integers(0, 2), st.integers(0, 255))
        coefficients = data.draw(st.lists(coefficient, min_size=n, max_size=n))
        parts = [
            data.draw(st.binary(min_size=length, max_size=length)) for _ in range(n)
        ]
        rows = np.frombuffer(b"".join(parts), dtype=np.uint8).reshape(n, length)
        expected = gf256_oracle.gf_matmul(np.array([coefficients], dtype=np.uint8), rows)
        out = gf_dot(coefficients, parts)
        assert isinstance(out, bytes)
        assert out == expected.tobytes()

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

    def test_payload_length_beyond_shards_rejected(self):
        code = ReedSolomonCode(3, 2)
        shards = code.encode(b"x" * 10)  # 3 data shards of 4 bytes
        assert len(code.decode(shards, 12)) == 12  # padding included: allowed
        for survivors in (shards, shards[2:]):
            with pytest.raises(ValueError, match="payload_length"):
                code.decode(survivors, 13)
        with pytest.raises(ValueError, match="payload_length"):
            code.reconstruct_shard(shards[1:], 0, 13)

    def test_negative_payload_length_rejected(self):
        code = ReedSolomonCode(2, 1)
        with pytest.raises(ValueError, match="payload_length"):
            code.decode(code.encode(b"data"), -1)

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

    def test_reconstruct_shard_bad_index_rejected(self):
        code = ReedSolomonCode(2, 1)
        shards = code.encode(b"data")
        for index in (-1, 3):
            with pytest.raises(ValueError, match="out of range"):
                code.reconstruct_shard(shards, index, 4)

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


# Parity shards of GOLDEN_PAYLOAD as the kernel before this one wrote them:
# what is stored in zones must stay readable, so these bytes never change.
GOLDEN_PAYLOAD = b"".join(hashlib.sha256(bytes([i])).digest() for i in range(32))
GOLDEN_PARITY = {
    (3, 2): (
        "bcfd5abac95332b7db9c47eb211e15b700a4e4960481f4c0204276dd2d344907"
        "0ad9dc8d537a07bf6493bb89cbeef0d146392d50d3f37ae603987675678a2b51"
        "4c2391a25926ced7b60f93006492f1948ead42aa9f8f73170f10c9a52d617049"
        "06a9497dedc9135d385bf325d0006df97d0c01c80ea425858ffe1bc058ae8cb2"
        "1668fe373e640ab9b9ab79d79aa18e9c8a62f861c0d45128256a2d3ac6b95138"
        "e551c2d6e3a05992031f125d91887029797da4d5de3ec358a80fd63e40d396a3"
        "3a105bd0df76a3c97d8cd9c84a95c4ff39e324c4e4705b135f8fbd4def770d60"
        "70e6efb02b830bd64af735a5c952f5186c7da2aa572ac3a9701b0206582db1e2"
        "970394cc92f757d09871ebf6900f9ef5fcacfad5e869898d589188343fd35e4e"
        "935158a740f0d6aca01b4127f8e6ad71980a62e88df1ad341e60c38ccbaa03b2"
        "3cad206f9b42254b24b8112338314a560b71ca19047cbf255f725738d80759b2"
        "55985d64b5e9bbab9f95260ccf8014b2abbb454da531a3d90e03521a046e5cfd"
        "de6cd87f7eb376385724da717339e93e4332294c3429ca4df4e2d73698a35bd7"
        "3d5197d7beab646b1133c946588a7352dca2cf217c3544b0ccb281f687f8ca76"
        "fe4efa0949020c187e15be3c76134d0eb6ed2120ac6fb64cca5c689f8743e979"
        "bd0145e74a31b24c057cda5739e1b9dde72a91842e40afac5f5efd1c087c52f3"
        "b9784f79879c994e3e69a4d61554155aa3787975217eabff480135c42239e27c"
        "cb1d28e2cf481efe2b62975307faeda564e1e980e916b16dfe5249810d49706a"
        "6c50b70da91f56f5edd438b63deb4d7e86f0ae603ac6eaf84e6b24a21be05731"
        "b72757d74540ede0049be55186c267fb8475ab0ba977dc99cc89380cc1af011c"
        "bae9693addfebd6c34193c4fc046b2caf583f019e28bffa9d645f3cb3bdf0806"
        "817fe6809b6fd78542957052"
    ),
    (4, 2): (
        "247d9a027bbf1d115c0688b315150f19e2a8b138cc12a81e54b630d98c476304"
        "47ccdad93e4407514dc107c7ee6c71bbe13172ffecfd994fc8c5cebd12cea670"
        "49edc83c55d75e4adebc46e7dc16eaaf85798aaaa0bae286628c0a8ed69ee55b"
        "e4ebb21f67feaa136176077faab7e9c1f8de252c40dcadd765abe34c7f8e9a9d"
        "285ee683e8201591ff96a5eb158d186c8823abac7745be9c558c204aee6dcc1d"
        "a06323d4c4f0b979d31288711da4bbbf3eb6117d66f2d240cc40dc0fc86f51fe"
        "a41c79d7b86835c37ce28d328096639db046fe82dc4ccb9561541b9a875571cd"
        "4c9ca7b41792ba986b02d8de470679df6e8bffc5de3e26038adf3bad70bb5dd7"
        "c06c4ac3aa2ef992e4180e5b62cc16db29cd63aceb9dca120fe877c97a9dece7"
        "bbe93e7aa0f4f67ef862043d72a60d2615b51bbbb7277fd7014a16deffe9607d"
        "4ae4b76e170400e51f92dd2b7f079693509b2229119a878345926b0377451b54"
        "a86bf7845bb06b427874b6c5cb4f330bc8849e6ee6496a31abecc0e9bb7cc4b6"
        "cdeade018554b475eaa869e30549dd0a3f78e7d754cf4fee05c6e203aed63c0d"
        "c0d2e3e18b08dca46fcbc1687ef61bace8f1b72d875b10d4d15a6e3c7060ac02"
        "882680eee94a1907e716624f3c1a3555907da606bb83c3a801bdc041aac6e8e8"
        "876d45126fa8b7fe73f737accc1d81e60a27c56ef39b5a46ac97bb96a6868f9c"
    ),
}


class TestStoredShardFormat:
    @pytest.mark.parametrize("k,m", sorted(GOLDEN_PARITY))
    def test_golden_parity_bytes(self, k, m):
        assert len(GOLDEN_PAYLOAD) == 1024
        shards = ReedSolomonCode(k, m).encode(GOLDEN_PAYLOAD)
        assert b"".join(s.data for s in shards[:k])[:1024] == GOLDEN_PAYLOAD
        parity = b"".join(s.data for s in shards[k:])
        assert parity.hex() == GOLDEN_PARITY[(k, m)]


def _survivor_sets(code):
    return itertools.combinations(range(code.total_shards), code.k)


class TestSurvivorSets:
    """Decode and single-shard repair from every k-subset of the stripe,
    through the per-code cache of solved rows."""

    @pytest.mark.parametrize("k,m", [(3, 2), (4, 2), (10, 4)])
    def test_every_k_subset_decodes_within_cache_bound(self, k, m):
        code = ReedSolomonCode(k, m)
        payload = np.random.default_rng(k + m).integers(
            0, 256, 1001, dtype=np.uint8
        ).tobytes()
        shards = code.encode(payload)
        for chosen in _survivor_sets(code):
            subset = [shards[i] for i in chosen]
            assert code.decode(subset, len(payload)) == payload, chosen
            assert len(code._solved) <= reedsolomon.SOLVE_CACHE_MAX
        if k == 10:
            # 1001 survivor sets went through a cache of SOLVE_CACHE_MAX.
            assert len(code._solved) == reedsolomon.SOLVE_CACHE_MAX

    def test_cold_and_warm_cache_decode_the_same_bytes(self):
        warm = ReedSolomonCode(4, 2)
        payload = bytes(range(256)) * 5 + b"tail"
        shards = warm.encode(payload)
        for _ in range(2):  # second pass: every survivor set is cached
            for chosen in _survivor_sets(warm):
                subset = [shards[i] for i in chosen]
                cold = ReedSolomonCode(4, 2)
                assert not cold._solved
                decoded = warm.decode(subset, len(payload))
                assert decoded == cold.decode(subset, len(payload)) == payload
        assert len(warm._solved) == 14  # 15 survivor sets, one all-data (never solved)

    def test_eviction_keeps_results_correct(self, monkeypatch):
        monkeypatch.setattr(reedsolomon, "SOLVE_CACHE_MAX", 3)
        code = ReedSolomonCode(3, 2)
        payload = b"evict me " * 50
        shards = code.encode(payload)
        for _ in range(2):
            for chosen in _survivor_sets(code):
                subset = [shards[i] for i in chosen]
                assert code.decode(subset, len(payload)) == payload
                assert len(code._solved) <= 3

    @pytest.mark.parametrize("k,m", [(3, 2), (4, 2), (2, 3)])
    def test_reconstruct_every_shard_from_every_survivor_set(self, k, m):
        code = ReedSolomonCode(k, m)
        for length in (0, 1, k, 997):
            payload = np.random.default_rng(length).integers(
                0, 256, length, dtype=np.uint8
            ).tobytes()
            shards = code.encode(payload)
            assert shards == gf256_oracle.encode(code, payload)
            for chosen in _survivor_sets(code):
                subset = [shards[i] for i in chosen]
                for index in range(code.total_shards):
                    rebuilt = code.reconstruct_shard(subset, index, length)
                    assert rebuilt == shards[index], (chosen, index)

    def test_solve_cache_shared_between_threads(self, monkeypatch):
        monkeypatch.setattr(reedsolomon, "SOLVE_CACHE_MAX", 4)
        code = ReedSolomonCode(4, 2)
        payload = bytes(range(251)) * 3
        shards = code.encode(payload)
        subsets = [[shards[i] for i in chosen] for chosen in _survivor_sets(code)]
        failures: list[object] = []

        def worker(seed: int) -> None:
            order = np.random.default_rng(seed).permutation(len(subsets))
            try:
                for _ in range(20):
                    for i in order:
                        if code.decode(subsets[i], len(payload)) != payload:
                            failures.append(i)
                        if len(code._solved) > 4:
                            failures.append("bound")
            except Exception as exc:  # surfaced by the assert below
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


def _assert_stripes_match_fresh_encode(store, payloads):
    """Every stripe holds all k+m shards, one per zone, byte-identical to a
    fresh ``encode`` of its payload — and the zones hold nothing else."""
    assert store.inconsistent_stripes() == []
    held = {}
    for zone in store._zones:
        held.update(zone)
    assert sum(len(zone) for zone in store._zones) == len(held)
    expected = {}
    for fingerprint, payload in payloads.items():
        assert store.get_chunk(fingerprint) == payload
        placement = store._meta[fingerprint].shard_zone
        assert sorted(placement) == list(range(store.code.total_shards))
        for index, zone in placement.items():
            expected[(fingerprint, index)] = store._zones[zone][(fingerprint, index)]
    assert held == expected
    assert store.stored_shard_bytes == sum(len(data) for data in held.values())
    assert store.payload_bytes == sum(len(payload) for payload in payloads.values())


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
        for zone in (0, 1, 2):
            store.recover_zone(zone)
        # The re-homed shard is the one encode would write; the stale copy
        # in zone 0 went when the zone came back.
        _assert_stripes_match_fresh_encode(store, {"fp": payload})

    def test_zone_bounds_checked(self):
        store = ErasureCodedChunkStore(2, 1)
        with pytest.raises(ValueError):
            store.fail_zone(99)


class TestLossPatternsExhaustive:
    """Every loss pattern of <= m shards must decode, for a grid of codes."""

    @pytest.mark.parametrize("k,m", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2), (3, 3)])
    def test_all_loss_patterns_up_to_m(self, k, m):
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
        _assert_stripes_match_fresh_encode(store, {"fp": b"d" * 3000})
        # Full redundancy restored: any m zones may now die.
        store.fail_zone(0)
        store.fail_zone(1)
        assert store.get_chunk("fp") == b"d" * 3000

    @pytest.mark.parametrize("n_zones", [5, 7])
    def test_mixed_outage_backfills_byte_identical_shards(self, n_zones):
        """Healthy writes, then writes with one and two zones down, deletes
        and a mid-outage repair: after both zones return, every stripe is
        what a fresh encode would have written."""
        store = ErasureCodedChunkStore(3, 2, n_zones=n_zones)
        rng = np.random.default_rng(n_zones)
        payloads = {}

        def put(tag, count):
            for i in range(count):
                size = int(rng.integers(0, 5000))
                payloads[f"{tag}{i}"] = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
                assert store.put_chunk(f"{tag}{i}", payloads[f"{tag}{i}"])

        put("healthy", 2 * n_zones)
        store.fail_zone(0)
        put("one-down", 2 * n_zones)
        store.fail_zone(1)
        put("two-down", 2 * n_zones)
        assert store.under_replicated_stripes > 0
        for doomed in ("healthy1", "one-down2", "two-down3"):
            assert store.delete_chunk(doomed)
            del payloads[doomed]
        # Spare live zones (n_zones=7) take re-homed shards now; with none
        # (n_zones=5) the repair finds nowhere to write and waits.
        for fingerprint in ("healthy0", "one-down0", "two-down0"):
            store.repair_chunk(fingerprint)
        for fingerprint, payload in payloads.items():
            assert store.get_chunk(fingerprint) == payload
        store.recover_zone(0)
        store.recover_zone(1)
        assert store.under_replicated_stripes == 0
        assert store.zones_down == []
        _assert_stripes_match_fresh_encode(store, payloads)
        # Full redundancy: any m zones may die and every chunk still reads.
        for down in itertools.combinations(range(n_zones), 2):
            for zone in down:
                store.fail_zone(zone)
            for fingerprint, payload in payloads.items():
                assert store.get_chunk(fingerprint) == payload
            for zone in down:
                assert store.recover_zone(zone) == 0  # nothing left to backfill

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


def _mixed_payloads(k, seed):
    """Payload lengths a batch must mix: 0, 1, k - 1, k + 1 and chunk-sized."""
    rng = np.random.default_rng(seed)
    lengths = [0, 1, k - 1, k + 1, int(rng.integers(8192, 16385)), 8192, 16384]
    return [rng.integers(0, 256, n, dtype=np.uint8).tobytes() for n in lengths]


def _loss_patterns(k, m):
    return [
        lost
        for n_lost in range(m + 1)
        for lost in itertools.combinations(range(k + m), n_lost)
    ]


class TestBatchMatchesSingle:
    """``encode_many`` / ``decode_many`` against per-stripe ``encode`` /
    ``decode`` and the oracle, byte for byte, over every (k, m) that
    TestKernelMatchesOracle draws from."""

    @pytest.mark.parametrize("k,m", list(itertools.product(range(1, 6), range(4))))
    def test_batch_encode_and_decode_match_single_and_oracle(self, k, m):
        code = ReedSolomonCode(k, m)
        payloads = _mixed_payloads(k, seed=10 * k + m)
        batch = code.encode_many(payloads)
        assert batch == [code.encode(p) for p in payloads]
        assert batch == [gf256_oracle.encode(code, p) for p in payloads]
        # One call mixing every loss pattern of <= m shards.
        patterns = _loss_patterns(k, m)
        stripes = [
            ([s for s in shards if s.index not in patterns[i % len(patterns)]], len(p))
            for i, (shards, p) in enumerate(
                (shards, p) for shards, p in zip(batch * len(patterns), payloads * len(patterns))
            )
        ]
        decoded = code.decode_many(stripes)
        assert decoded == [code.decode(s, n) for s, n in stripes]
        assert decoded == [gf256_oracle.decode(code, s, n) for s, n in stripes]
        assert decoded == payloads * len(patterns)

    def test_empty_batches(self):
        code = ReedSolomonCode(3, 2)
        assert code.encode_many([]) == [] and code.decode_many([]) == []

    @pytest.mark.parametrize("k,m", [(1, 1), (2, 2), (3, 2), (4, 2), (5, 3), (10, 4)])
    def test_every_planned_row_equals_its_direct_row(self, k, m):
        code = ReedSolomonCode(k, m)
        rng = np.random.default_rng(k * m)
        columns = [rng.integers(0, 256, 257, dtype=np.uint8).tobytes() for _ in range(k)]
        parity_rows = code.encode_matrix[k:].tolist()
        plans = [(code._encode_plan, parity_rows)]
        for survivors in itertools.islice(_survivor_sets(code), 40):
            rows, plan, layout = code._solve(survivors)
            missing = [i for i in range(k) if i not in survivors]
            plans.append((plan, [rows[i] for i in missing]))
            assert [layout[i] < k for i in range(k)] == [i in survivors for i in range(k)]
        for plan, direct in plans:
            assert code._run(plan, list(columns))[k:] == [gf_dot(r, columns) for r in direct]
            assert plan.walks <= sum(sum(c > 1 for c in r) for r in direct)

    @pytest.mark.parametrize("k,m,direct,planned", [(3, 2, 6, 3), (4, 2, 8, 8), (10, 4, 40, 39)])
    def test_shared_parity_rows_cut_table_walks(self, k, m, direct, planned):
        code = ReedSolomonCode(k, m)
        assert sum(sum(c > 1 for c in row) for row in code.encode_matrix[k:].tolist()) == direct
        assert code._encode_plan.walks == planned

    @pytest.mark.parametrize(
        "bad,match",
        [
            (lambda shards: [*shards[:2], Shard(9, shards[0].data)], "out of range"),
            (lambda shards: [shards[0], shards[0], shards[1]], "duplicate"),
            (lambda shards: shards[:2], "at least k"),
            (lambda shards: [shards[0], shards[1], Shard(4, shards[4].data + b"x")], "lengths"),
        ],
    )
    def test_bad_stripe_mid_batch_raises_what_decode_raises(self, bad, match):
        code = ReedSolomonCode(3, 2)
        payloads = _mixed_payloads(3, seed=5)
        good = [(shards[1:4], len(p)) for shards, p in zip(code.encode_many(payloads), payloads)]
        broken = (bad(code.encode(b"broken stripe")), 13)
        with pytest.raises(ValueError, match=match) as single:
            code.decode(*broken)
        walked = code.walk_bytes
        with pytest.raises(ValueError, match=match) as batch:
            code.decode_many(good[:3] + [broken] + good[3:])
        assert str(batch.value) == str(single.value)
        assert code.walk_bytes == walked  # validated before any arithmetic

    def test_payload_length_beyond_capacity_mid_batch(self):
        code = ReedSolomonCode(3, 2)
        shards = code.encode(b"x" * 10)
        stripes = [(shards[2:], 10), (shards[2:], 13), (shards[2:], 10)]
        with pytest.raises(ValueError, match="payload_length 13 exceeds the 12 bytes"):
            code.decode_many(stripes)


class TestBatchedTier:
    def _twins(self, n_zones, down):
        stores = [ErasureCodedChunkStore(3, 2, n_zones=n_zones) for _ in range(2)]
        for store in stores:
            for zone in down:
                store.fail_zone(zone)
        return stores

    def test_put_chunks_splits_a_batch_into_stored_and_failed_stripes(self):
        batched, single = self._twins(7, down=(0, 1, 2))
        rng = np.random.default_rng(3)
        entries = [
            (f"fp{i}", rng.integers(0, 256, int(rng.integers(0, 9000)), dtype=np.uint8).tobytes())
            for i in range(16)
        ]
        entries.insert(5, entries[2])  # repeated inside the batch
        outcomes = batched.put_chunks(entries)
        replay = []
        for fingerprint, data in entries:
            try:
                replay.append(single.put_chunk(fingerprint, data))
            except ZoneFailedError as exc:
                replay.append(exc)
        assert [type(o) for o in outcomes] == [type(o) for o in replay]
        assert [str(o) for o in outcomes] == [str(o) for o in replay]
        failed = [o for o in outcomes if isinstance(o, ZoneFailedError)]
        assert failed and True in outcomes and outcomes[5] is False
        assert str(failed[0]) == "only 2 zones up; need 3 to store a chunk"
        assert batched._zones == single._zones
        assert batched._next_zone == single._next_zone == (len(entries) - 1) % 7
        for attr in ("stored_shard_bytes", "payload_bytes", "_under_replicated"):
            assert getattr(batched, attr) == getattr(single, attr)
        stored = [fp for (fp, _), o in zip(entries, outcomes) if o is True]
        assert batched.get_chunks(stored) == [dict(entries)[fp] for fp in stored]
        assert batched.inconsistent_stripes() == []

    def test_get_chunks_returns_errors_per_fingerprint(self):
        store = ErasureCodedChunkStore(3, 2, n_zones=7)
        store.put_chunks([("a", b"a" * 100), ("b", b"b" * 200)])  # zones 0-4, 1-5
        for zone in (1, 2, 5):  # a keeps 3 shards, b only 2
            store.fail_zone(zone)
        out = store.get_chunks(["a", "ghost", "b"])
        assert out[0] == b"a" * 100
        assert isinstance(out[1], KeyError) and "ghost" in str(out[1])
        assert isinstance(out[2], ZoneFailedError)
        with pytest.raises(ZoneFailedError):
            store.get_chunk("b")

    def test_gf_walk_bytes_closed_form(self):
        store = ErasureCodedChunkStore(3, 2)
        code = store.code
        payloads = {f"fp{i}": bytes([i]) * (1000 + 37 * i) for i in range(10)}
        store.put_chunks(list(payloads.items()))
        sizes = {fp: -(-len(p) // 3) for fp, p in payloads.items()}
        # k·s per stripe; direct parity rows would walk 2·k·s.
        assert store.metrics()["gf_walk_bytes"] == sum(3 * s for s in sizes.values())
        written = store.metrics()["gf_walk_bytes"]
        store.fail_zone(0)
        store.fail_zone(3)
        assert [store.get_chunk(fp) for fp in payloads] == list(payloads.values())
        # A degraded read walks only the planned rows of its survivor set.
        expected = 0
        for fp in payloads:
            placement = store._meta[fp].shard_zone
            survivors = tuple(sorted(i for i, z in placement.items() if z not in (0, 3))[:3])
            if survivors[-1] >= 3:
                expected += code._solve(survivors)[1].walks * sizes[fp]
        assert expected > 0
        assert store.metrics()["gf_walk_bytes"] - written == expected

    def test_inconsistent_stripes_names_corrupt_and_colocated_stripes(self):
        store = ErasureCodedChunkStore(3, 2, n_zones=6)
        store.put_chunks([(f"fp{i}", bytes([i]) * 500) for i in range(6)])
        assert store.inconsistent_stripes() == []
        zone = store._meta["fp1"].shard_zone[4]
        parity = bytearray(store._zones[zone][("fp1", 4)])
        parity[0] ^= 1
        store._zones[zone][("fp1", 4)] = bytes(parity)
        meta = store._meta["fp3"]
        store._zones[meta.shard_zone[0]][("fp3", 1)] = store._zones[meta.shard_zone[1]].pop(("fp3", 1))
        meta.shard_zone[1] = meta.shard_zone[0]  # two shards in one zone
        del store._zones[store._meta["fp5"].shard_zone[2]][("fp5", 2)]  # a shard gone
        assert store.inconsistent_stripes() == ["fp1", "fp3", "fp5"]


class TestTierReadDifferential:
    """Seeded random histories over a striped store; after every step,
    ``get_chunks`` must agree with ``decode_many`` over
    ``_reachable_shards`` and with the oracle: the same bytes, the same
    error types and messages, the same ``gf_walk_bytes`` delta."""

    POOL = [f"fp{i}" for i in range(10)]
    READ = POOL + ["ghost"]

    @staticmethod
    def _payload(rng):
        length = rng.choice([0, 1, 2, 3, 0, 1, 2, 3, int(rng.integers(4, 400))])
        return rng.integers(0, 256, length, dtype=np.uint8).tobytes()

    @staticmethod
    def _outcome(call):
        try:
            return call()
        except ValueError as exc:
            return exc

    def _reference(self, store):
        """Per fingerprint of ``READ``: its ``_reachable_shards`` error, or
        None and a stripe for one ``decode_many`` batch."""
        outcomes, stripes = [], []
        for fingerprint in self.READ:
            try:
                meta, available = store._reachable_shards(fingerprint)
            except (KeyError, ZoneFailedError) as exc:
                outcomes.append(exc)
            else:
                outcomes.append(None)
                stripes.append((available, meta.payload_length))
        return outcomes, stripes

    def _check(self, store, model):
        code = store.code
        before = code.walk_bytes
        got = self._outcome(lambda: store.get_chunks(self.READ))
        read_walks = code.walk_bytes - before
        outcomes, stripes = self._reference(store)
        before = code.walk_bytes
        decoded = self._outcome(lambda: code.decode_many(stripes))
        assert code.walk_bytes - before == read_walks
        if isinstance(decoded, ValueError):
            assert type(got) is ValueError and str(got) == str(decoded)
            return
        assert not isinstance(got, ValueError), got
        decoded = iter(decoded)
        expected = [next(decoded) if outcome is None else outcome for outcome in outcomes]
        assert len(got) == len(expected)
        for fingerprint, outcome, reference in zip(self.READ, got, expected):
            assert type(outcome) is type(reference), fingerprint
            if fingerprint not in model:
                assert str(outcome) == str(reference) == str(KeyError(f"no chunk {fingerprint!r}"))
            elif isinstance(reference, ZoneFailedError):
                placement = store._meta[fingerprint].shard_zone
                live = sum(store._zone_up[zone] for zone in placement.values())
                assert str(outcome) == str(reference) == (
                    f"chunk {fingerprint!r}: {live} shards reachable, need {code.k}"
                )
            else:
                assert outcome == reference == model[fingerprint]
                _, available = store._reachable_shards(fingerprint)
                assert gf256_oracle.decode(code, available, len(outcome)) == outcome

    def _tamper(self, store, model, rng):
        """Cut one held shard short, or claim a payload longer than its
        shards hold; both paths must raise the same ValueError. Undone."""
        fingerprint = sorted(model)[int(rng.integers(len(model)))]
        meta = store._meta[fingerprint]
        if rng.random() < 0.5:
            index, zone = sorted(meta.shard_zone.items())[int(rng.integers(len(meta.shard_zone)))]
            held = store._zones[zone][(fingerprint, index)]
            store._zones[zone][(fingerprint, index)] = held[:-1]
            self._check(store, model)
            store._zones[zone][(fingerprint, index)] = held
        else:
            length = meta.payload_length
            meta.payload_length = store.code.k * max(1, -(-length // store.code.k)) + 1
            self._check(store, model)
            meta.payload_length = length

    @pytest.mark.parametrize("n_zones", [5, 7])
    @pytest.mark.parametrize("seed", range(6))
    def test_get_chunks_matches_decode_many_and_oracle(self, n_zones, seed):
        rng = np.random.default_rng(1000 * n_zones + seed)
        store = ErasureCodedChunkStore(3, 2, n_zones=n_zones)
        k, m = store.code.k, store.code.m
        model: dict[str, bytes] = {}
        unordered = 0
        for _ in range(100):
            step = rng.choice(["put", "put", "fail", "recover", "repair", "delete", "tamper"])
            down = store.zones_down
            if step == "put":
                size = int(rng.integers(1, 7))
                entries = [(str(rng.choice(self.POOL)), self._payload(rng)) for _ in range(size)]
                if len(entries) > 1 and rng.random() < 0.5:
                    entries.append(entries[0])  # a repeat inside the batch
                for (fingerprint, data), stored in zip(entries, store.put_chunks(entries)):
                    if stored is True:
                        model[fingerprint] = data
            elif step == "fail" and len(down) <= m:
                up = [z for z in range(n_zones) if z not in down]
                store.fail_zone(int(rng.choice(up)))
            elif step == "recover" and down:
                store.recover_zone(int(rng.choice(down)))
            elif step == "repair" and model:
                try:
                    store.repair_chunk(str(rng.choice(sorted(model))))
                except ZoneFailedError:
                    pass
            elif step == "delete":
                fingerprint = str(rng.choice(self.POOL))
                assert store.delete_chunk(fingerprint) == (model.pop(fingerprint, None) is not None)
            elif step == "tamper" and model:
                self._tamper(store, model, rng)
            self._check(store, model)
            unordered += sum(
                list(meta.shard_zone) != sorted(meta.shard_zone) for meta in store._meta.values()
            )
        for zone in store.zones_down:
            store.recover_zone(zone)
        self._check(store, model)
        for n_lost in range(m + 1):
            for lost in itertools.combinations(range(n_zones), n_lost):
                for zone in lost:
                    store._zone_up[zone] = False  # a read-only outage: no backfill on return
                self._check(store, model)
                for zone in lost:
                    store._zone_up[zone] = True
        assert store.inconsistent_stripes() == []
        assert unordered > 0  # a backfill appended a low index after higher ones

    def test_backfilled_stripe_reads_its_lowest_survivors(self):
        """A backfill appends index 1 after 4; with zone 2 down the read
        must solve from (0, 1, 3), not from the first three in the map."""
        store = ErasureCodedChunkStore(3, 2, n_zones=5)
        store.fail_zone(1)
        store.put_chunks([("a", b"abcdef")])  # index i on zone i; index 1 not written
        store.fail_zone(0)
        store.recover_zone(1)  # index 0 re-homed to zone 1
        store.recover_zone(0)  # index 1 backfilled onto zone 0
        assert list(store._meta["a"].shard_zone.items()) == [(0, 1), (2, 2), (3, 3), (4, 4), (1, 0)]
        store.fail_zone(2)
        before = store.code.walk_bytes
        assert store.get_chunks(["a"]) == [b"abcdef"]
        assert store.code.walk_bytes - before == store.code._solve((0, 1, 3))[1].walks * 2
