"""Equivalence tests for the vectorized CDC backends.

The scalar per-byte loops in :mod:`repro.chunking.gear` and
:mod:`repro.chunking.rabin` are the reference oracles; the numpy block scans
must produce byte-identical boundaries on every input — random buffers,
dataset streams, and the degenerate shapes (empty, sub-min, all-boundary,
no-boundary, forced cuts). The kernel-level window hashes are also checked
directly against a straight Python evaluation of their definitions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking.gear import _GEAR_TABLE, GearChunker
from repro.chunking.rabin import _BASE, _MOD, RabinChunker
from repro.chunking.vectorized import (
    _gear_doubling_into,
    first_candidate_in,
    gear_window_hashes,
    rabin_window_hashes,
)
from repro.datasets.accelerometer import AccelerometerSource
from repro.datasets.trafficvideo import TrafficVideoSource


def _random_bytes(n: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


def _low_entropy_bytes(n: int, seed: int = 0, alphabet: int = 4) -> bytes:
    return (
        np.random.default_rng(seed)
        .integers(0, alphabet, size=n, dtype=np.uint8)
        .tobytes()
    )


def _boundaries(chunker, data: bytes) -> list[tuple[int, int]]:
    return [(c.offset, c.length) for c in chunker.chunk(data)]


def _assert_backends_agree(make, data: bytes) -> None:
    scalar = _boundaries(make("scalar"), data)
    vectorized = _boundaries(make("vectorized"), data)
    assert vectorized == scalar
    # "auto" must be one of the two, i.e. also identical.
    assert _boundaries(make("auto"), data) == scalar


GEAR_CONFIGS = [
    # (avg, min, max) — id strings name the regime.
    pytest.param((256, None, None), id="gear-defaults"),
    pytest.param((256, 256, 256), id="gear-fixed-size"),
    pytest.param((1024, 1, 4096), id="gear-gap-zone"),  # min < mask_bits - 1
    pytest.param((2, 1, 64), id="gear-tiny-avg"),
    pytest.param((1, 1, 16), id="gear-all-boundary"),  # mask == 0 cuts everywhere
    pytest.param((64 * 1024, 512, 64 * 1024), id="gear-sparse"),
]

RABIN_CONFIGS = [
    # (avg, min, max, window)
    pytest.param((256, None, None, 48), id="rabin-defaults"),
    pytest.param((256, 48, 256, 48), id="rabin-tight-max"),
    pytest.param((100, 16, 400, 16), id="rabin-non-pow2-divisor"),
    pytest.param((4, 4, 64, 4), id="rabin-dense"),
    pytest.param((64 * 1024, 48, 64 * 1024, 48), id="rabin-sparse"),
]


def _gear_maker(cfg):
    avg, mn, mx = cfg
    return lambda backend: GearChunker(avg_size=avg, min_size=mn, max_size=mx, backend=backend)


def _rabin_maker(cfg):
    avg, mn, mx, w = cfg
    return lambda backend: RabinChunker(
        avg_size=avg, min_size=mn, max_size=mx, window_size=w, backend=backend
    )


@pytest.mark.parametrize("cfg", GEAR_CONFIGS)
class TestGearEquivalence:
    def test_random_buffers(self, cfg):
        make = _gear_maker(cfg)
        for seed, n in [(0, 10_000), (1, 65_536), (2, 3 * 4096 + 17)]:
            _assert_backends_agree(make, _random_bytes(n, seed))

    def test_low_entropy_and_zeros(self, cfg):
        make = _gear_maker(cfg)
        _assert_backends_agree(make, _low_entropy_bytes(20_000, seed=3))
        # All-zeros: the hash cycles through a fixed orbit — either no
        # boundary ever fires (forced max_size cuts) or they fire
        # periodically; both backends must agree either way.
        _assert_backends_agree(make, bytes(20_000))

    def test_edge_sizes(self, cfg):
        make = _gear_maker(cfg)
        chunker = make("scalar")
        for n in [0, 1, chunker.min_size - 1, chunker.min_size, chunker.max_size + 1]:
            if n < 0:
                continue
            _assert_backends_agree(make, _random_bytes(max(n, 0), seed=n))


@pytest.mark.parametrize("cfg", RABIN_CONFIGS)
class TestRabinEquivalence:
    def test_random_buffers(self, cfg):
        make = _rabin_maker(cfg)
        for seed, n in [(0, 10_000), (1, 65_536), (2, 3 * 4096 + 17)]:
            _assert_backends_agree(make, _random_bytes(n, seed))

    def test_low_entropy_and_zeros(self, cfg):
        make = _rabin_maker(cfg)
        _assert_backends_agree(make, _low_entropy_bytes(20_000, seed=3))
        _assert_backends_agree(make, bytes(20_000))

    def test_edge_sizes(self, cfg):
        make = _rabin_maker(cfg)
        chunker = make("scalar")
        for n in [0, 1, chunker.min_size - 1, chunker.min_size, chunker.max_size + 1]:
            if n < 0:
                continue
            _assert_backends_agree(make, _random_bytes(max(n, 0), seed=n))


class TestDegenerateShapes:
    def test_rabin_zeros_force_cut_at_max(self):
        """All-zero data has window hash 0, which never matches
        ``divisor - 1`` for divisor > 1 — every chunk is a forced cut."""
        chunker = RabinChunker(avg_size=256, min_size=64, max_size=512, window_size=48)
        data = bytes(5000)
        for backend in ("scalar", "vectorized"):
            chunker.backend = backend
            lengths = [c.length for c in chunker.chunk(data)]
            assert lengths == [512] * 9 + [5000 - 9 * 512]

    def test_gear_all_boundary_cuts_at_min(self):
        """avg_size=1 means mask == 0: every end the loop tests is a
        boundary, so every chunk is the shortest testable length —
        min_size + 1 (the reference loop consumes a byte before each
        boundary check, so ``min_size`` itself is never an end)."""
        for backend in ("scalar", "vectorized"):
            chunker = GearChunker(avg_size=1, min_size=1, max_size=16, backend=backend)
            lengths = [c.length for c in chunker.chunk(_random_bytes(4096, seed=9))]
            assert lengths == [2] * 2048

    def test_shorter_than_min_size_is_one_chunk(self):
        data = _random_bytes(100, seed=5)
        for make in (
            lambda b: GearChunker(avg_size=4096, backend=b),
            lambda b: RabinChunker(avg_size=4096, backend=b),
        ):
            for backend in ("scalar", "vectorized"):
                chunks = list(make(backend).chunk(data))
                assert len(chunks) == 1
                assert chunks[0].data == data


class TestDatasetStreams:
    """The backends must agree on the repo's actual dataset generators, not
    just synthetic noise — their block structure (repeated templates,
    recurring vehicle tiles) exercises long runs and aligned repeats."""

    @pytest.mark.parametrize("make", [
        pytest.param(lambda b: GearChunker(avg_size=4096, backend=b), id="gear"),
        pytest.param(lambda b: RabinChunker(avg_size=4096, backend=b), id="rabin"),
    ])
    def test_trafficvideo(self, make):
        source = TrafficVideoSource(camera=0, blocks_per_frame=16)
        for i in range(3):
            data = source.generate_file(i).data
            assert _boundaries(make("vectorized"), data) == _boundaries(make("scalar"), data)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda b: GearChunker(avg_size=4096, backend=b), id="gear"),
        pytest.param(lambda b: RabinChunker(avg_size=4096, backend=b), id="rabin"),
    ])
    def test_accelerometer(self, make):
        source = AccelerometerSource(participant=1, size_jitter=0.3)
        for i in range(3):
            data = source.generate_file(i).data
            assert _boundaries(make("vectorized"), data) == _boundaries(make("scalar"), data)

    def test_chunk_stream_matches_bytes(self):
        """Streamed blocks and a contiguous buffer chunk identically."""
        source = AccelerometerSource(participant=0)
        blocks = [source.generate_file(i).data for i in range(3)]
        joined = b"".join(blocks)
        for backend in ("scalar", "vectorized"):
            chunker = GearChunker(avg_size=4096, backend=backend)
            streamed = [(c.offset, c.length) for c in chunker.chunk_stream(iter(blocks))]
            direct = _boundaries(chunker, joined)
            assert streamed == direct


@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=0, max_size=8192), avg_exp=st.integers(5, 10))
def test_gear_property_equivalence(data: bytes, avg_exp: int):
    avg = 1 << avg_exp
    scalar = GearChunker(avg_size=avg, backend="scalar")
    vectorized = GearChunker(avg_size=avg, backend="vectorized")
    assert _boundaries(vectorized, data) == _boundaries(scalar, data)


@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=0, max_size=8192), avg=st.integers(64, 700))
def test_rabin_property_equivalence(data: bytes, avg: int):
    scalar = RabinChunker(avg_size=avg, min_size=48, backend="scalar")
    vectorized = RabinChunker(avg_size=avg, min_size=48, backend="vectorized")
    assert _boundaries(vectorized, data) == _boundaries(scalar, data)


class TestKernels:
    def test_gear_window_hashes_match_definition(self):
        buf = np.frombuffer(_random_bytes(2000, seed=11), dtype=np.uint8)
        for window in (1, 2, 5, 13, 32):
            hashes = gear_window_hashes(buf, np.array(_GEAR_TABLE, dtype=np.uint64), window)
            mask = (1 << 64) - 1 if hashes.dtype == np.uint64 else (1 << 32) - 1
            for i in (window - 1, window, 517, len(buf) - 1):
                h = 0
                for b in buf[i - window + 1 : i + 1]:
                    h = ((h << 1) + _GEAR_TABLE[b]) & mask
                assert int(hashes[i]) == h

    def test_rabin_window_hashes_match_definition(self):
        buf = np.frombuffer(_random_bytes(2000, seed=12), dtype=np.uint8)
        for window in (1, 3, 16, 48, 60):
            hashes = rabin_window_hashes(buf, window, _BASE)
            for i in (window - 1, window, 711, len(buf) - 1):
                h = 0
                for b in buf[i - window + 1 : i + 1]:
                    h = (h * _BASE + int(b)) % _MOD
                assert int(hashes[i]) == h

    @pytest.mark.parametrize("dtype, windows", [
        pytest.param(np.uint8, [4], id="uint8-s4-lane"),
        pytest.param(np.uint32, range(1, 33), id="uint32"),
        pytest.param(np.uint64, range(33, 65), id="uint64"),
    ])
    def test_doubling_matches_direct_shifted_sums(self, dtype, windows):
        """The multiply-for-shift doubling equals ``sum_j g[i-j] << j``
        summed term by term, in every dtype the kernels run it in, and
        leaves its input untouched."""
        g = np.random.default_rng(17).integers(
            0, np.iinfo(dtype).max, size=500, dtype=dtype, endpoint=True
        )
        before = g.copy()
        for window in windows:
            direct = np.zeros_like(g)
            for j in range(window):
                direct[j:] += g[: len(g) - j] << dtype(j)
            got = _gear_doubling_into(g, window, np.empty_like(g), np.empty_like(g))
            assert np.array_equal(got[window - 1 :], direct[window - 1 :]), window
        assert np.array_equal(g, before)

    def test_first_candidate_in(self):
        cands = np.array([5, 9, 40, 41, 100], dtype=np.int64)
        assert first_candidate_in(cands, 0, 6) == 5
        assert first_candidate_in(cands, 6, 45) == 9
        assert first_candidate_in(cands, 42, 99) is None
        assert first_candidate_in(cands, 101, 200) is None


class TestGearTableEntropy:
    """Regression for the table-construction bug: values must be drawn
    full-width uint64, not truncated — otherwise high mask bits are
    systematically zero and large avg_size masks never fire."""

    def test_values_span_full_width(self):
        table = np.array(_GEAR_TABLE, dtype=np.uint64)
        assert len(table) == 256
        assert len(set(_GEAR_TABLE)) == 256
        # Top bit must be set for roughly half the entries.
        top_set = int(np.count_nonzero(table >> np.uint64(63)))
        assert 64 <= top_set <= 192
        # Every bit position should be set somewhere in the table.
        assert int(np.bitwise_or.reduce(table)) == (1 << 64) - 1

    def test_table_is_deterministic(self):
        from repro.chunking.gear import _build_gear_table

        assert _build_gear_table() == _GEAR_TABLE
