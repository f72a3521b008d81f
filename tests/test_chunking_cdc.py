"""Tests for content-defined chunking (Gear, FastCDC, Rabin, AE, RAM)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking import vectorized
from repro.chunking.base import validate_chunking
from repro.chunking.extremum import AEChunker, RAMChunker
from repro.chunking.fastcdc import FastCDCChunker
from repro.chunking.gear import _GEAR_TABLE_U64, GearChunker
from repro.chunking.rabin import _BASE, RabinChunker


def _random_bytes(n: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


# -- buffers spanning many scan blocks ------------------------------------ #
#
# The vectorized kernels scan in blocks of ``vectorized._BLOCK`` positions,
# each reading the last ``window - 1`` bytes of the block before it. The
# production block is larger than any other test buffer, so these tests
# shrink it to cross many seams.

SEAM_BLOCK = 4096


def seam_payloads() -> list:
    """A dense all-zero block between sparse random ones, and a low-entropy
    run straddling a seam (pytest params)."""
    b = SEAM_BLOCK
    low = np.random.default_rng(31).integers(0, 2, size=b, dtype=np.uint8).tobytes()
    return [
        pytest.param(
            _random_bytes(b, 1) + bytes(b) + _random_bytes(4 * b + 123, 2),
            id="zero-block",
        ),
        pytest.param(
            _random_bytes(2 * b + b // 2, 3) + low + _random_bytes(3 * b, 4),
            id="low-entropy-across-seam",
        ),
    ]


def seam_blocks(chunker, data: bytes, count: int = 6) -> list[int]:
    """Block sizes that put content-defined cuts exactly on a seam: each
    cut's hit position ``cut - 1`` first in block 1 (its window reads the
    previous block's bytes), then last in block 0."""
    cuts = chunker.cut_points(data)
    found = [
        c for s, c in zip([0, *cuts], cuts)
        if c - s < chunker.max_size and c < len(data)
    ]
    return [block for c in found[:count] for block in (c - 1, c)]


SEAM_CHUNKERS = [
    pytest.param(lambda b: GearChunker(avg_size=256, backend=b), id="gear"),
    pytest.param(
        lambda b: RabinChunker(avg_size=64, min_size=16, window_size=16, backend=b),
        id="rabin",
    ),
]


@pytest.mark.parametrize("make", SEAM_CHUNKERS)
class TestMultiBlockKernels:
    @pytest.mark.parametrize("data", seam_payloads())
    def test_cut_points_across_seams(self, make, data, monkeypatch):
        monkeypatch.setattr(vectorized, "_BLOCK", SEAM_BLOCK)
        assert make("vectorized").cut_points(data) == make("scalar").cut_points(data)

    def test_cut_exactly_at_a_seam(self, make, monkeypatch):
        data = _random_bytes(6 * SEAM_BLOCK, seed=5)
        scalar = make("scalar").cut_points(data)
        for block in seam_blocks(make("scalar"), data):
            monkeypatch.setattr(vectorized, "_BLOCK", block)
            assert make("vectorized").cut_points(data) == scalar


@pytest.mark.parametrize("data", seam_payloads())
def test_blocked_candidates_match_unblocked_hashes(data, monkeypatch):
    """Gear and Rabin candidates scanned block by block equal the ones read
    off the window hashes of the whole buffer at once."""
    buf = np.frombuffer(data, dtype=np.uint8)
    monkeypatch.setattr(vectorized, "_BLOCK", SEAM_BLOCK)
    window, mask = 8, (1 << 8) - 1
    hashes = vectorized.gear_window_hashes(buf, _GEAR_TABLE_U64, window)
    expected = np.flatnonzero((hashes & hashes.dtype.type(mask)) == 0)
    expected = expected[expected >= window - 1] + 1
    got = vectorized.gear_boundary_candidates(buf, _GEAR_TABLE_U64, mask, window)
    assert np.array_equal(got, expected)

    window, divisor = 16, 64
    hashes = vectorized.rabin_window_hashes(buf, window, _BASE)
    expected = np.flatnonzero(hashes % np.uint64(divisor) == divisor - 1)
    expected = expected[expected >= window - 1] + 1
    got = vectorized.rabin_boundary_candidates(buf, window, _BASE, divisor)
    assert np.array_equal(got, expected)


CDC_CLASSES = [
    pytest.param(lambda: GearChunker(avg_size=256), id="gear"),
    pytest.param(lambda: RabinChunker(avg_size=256), id="rabin"),
    pytest.param(lambda: FastCDCChunker(avg_size=256), id="fastcdc"),
    pytest.param(lambda: AEChunker(avg_size=256), id="ae"),
    pytest.param(lambda: RAMChunker(avg_size=256), id="ram"),
]


@pytest.mark.parametrize("make_chunker", CDC_CLASSES)
class TestCDCCommon:
    def test_reconstruction(self, make_chunker):
        data = _random_bytes(8192)
        chunks = list(make_chunker().chunk(data))
        validate_chunking(data, chunks)

    def test_deterministic(self, make_chunker):
        data = _random_bytes(8192, seed=1)
        a = [c.data for c in make_chunker().chunk(data)]
        b = [c.data for c in make_chunker().chunk(data)]
        assert a == b

    def test_empty_input(self, make_chunker):
        assert list(make_chunker().chunk(b"")) == []

    def test_min_max_bounds(self, make_chunker):
        chunker = make_chunker()
        data = _random_bytes(20000, seed=2)
        chunks = list(chunker.chunk(data))
        # All but the final chunk respect the min; all respect the max.
        for c in chunks[:-1]:
            assert chunker.min_size <= c.length <= chunker.max_size
        assert chunks[-1].length <= chunker.max_size

    def test_average_size_roughly_respected(self, make_chunker):
        chunker = make_chunker()
        data = _random_bytes(200_000, seed=3)
        lengths = [c.length for c in chunker.chunk(data)]
        mean = sum(lengths) / len(lengths)
        # CDC averages land within a factor ~2 of the target on random data.
        assert chunker.avg_size / 2 <= mean <= chunker.avg_size * 2.5

    def test_boundary_shift_resistance(self, make_chunker):
        """Inserting a byte near the front must not re-chunk the whole file —
        the CDC property that fixed-size chunking lacks."""
        chunker = make_chunker()
        data = _random_bytes(50_000, seed=4)
        shifted = data[:10] + b"X" + data[10:]
        original = {c.data for c in chunker.chunk(data)}
        after = [c.data for c in chunker.chunk(shifted)]
        shared = sum(1 for c in after if c in original)
        assert shared / len(after) > 0.5


class TestGearSpecific:
    def test_avg_size_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            GearChunker(avg_size=1000)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            GearChunker(avg_size=256, min_size=512)
        with pytest.raises(ValueError):
            GearChunker(avg_size=256, max_size=128)

    def test_defaults_derived_from_avg(self):
        chunker = GearChunker(avg_size=1024)
        assert chunker.min_size == 256
        assert chunker.max_size == 4096

    @given(data=st.binary(max_size=5000))
    @settings(max_examples=30, deadline=None)
    def test_invariants_property(self, data: bytes):
        validate_chunking(data, list(GearChunker(avg_size=128).chunk(data)))


class TestRabinSpecific:
    def test_min_size_must_cover_window(self):
        with pytest.raises(ValueError, match="window"):
            RabinChunker(avg_size=256, min_size=16, window_size=48)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            RabinChunker(avg_size=256, window_size=0)

    def test_window_locality(self):
        """The same window_size bytes before a cut produce the same cut:
        chunks found mid-file reappear when the file is re-chunked from a
        different prefix."""
        chunker = RabinChunker(avg_size=128, window_size=16, min_size=32)
        tail = _random_bytes(30_000, seed=5)
        a = {c.data for c in chunker.chunk(_random_bytes(1000, seed=6) + tail)}
        b = {c.data for c in chunker.chunk(_random_bytes(1000, seed=7) + tail)}
        assert len(a & b) >= 3

    @given(data=st.binary(max_size=5000))
    @settings(max_examples=30, deadline=None)
    def test_invariants_property(self, data: bytes):
        chunker = RabinChunker(avg_size=128, window_size=16, min_size=32)
        validate_chunking(data, list(chunker.chunk(data)))


class TestValidateChunking:
    def test_detects_gap(self):
        from repro.chunking.base import Chunk

        with pytest.raises(ValueError, match="offset"):
            validate_chunking(b"abcd", [Chunk(b"ab", 0), Chunk(b"d", 3)])

    def test_detects_wrong_content(self):
        from repro.chunking.base import Chunk

        with pytest.raises(ValueError):
            validate_chunking(b"abcd", [Chunk(b"ab", 0), Chunk(b"xy", 2)])

    def test_detects_missing_tail(self):
        from repro.chunking.base import Chunk

        with pytest.raises(ValueError, match="cover"):
            validate_chunking(b"abcd", [Chunk(b"ab", 0)])
