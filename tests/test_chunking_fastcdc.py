"""Equivalence and behavior tests for FastCDC and the extremum chunkers.

Mirrors ``test_chunking_vectorized.py``: the scalar per-byte loops are the
reference oracles and the numpy backends must produce byte-identical
boundaries on every input — random buffers, dataset streams, low-entropy and
constant data (which drives the split-gear kernel's dense-block fallback),
and buffers shorter than min-chunk. The split-lane kernel value is also
checked against a straight Python evaluation of its definition.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chunking import vectorized
from repro.chunking.base import validate_chunking
from repro.chunking.extremum import AEChunker, RAMChunker
from repro.chunking.fastcdc import _T32, _T32_U32, FastCDCChunker
from repro.chunking.gear import GearChunker
from repro.chunking.vectorized import split_gear_candidates, split_gear_values
from repro.datasets.accelerometer import AccelerometerSource
from repro.datasets.trafficvideo import TrafficVideoSource
from tests.test_chunking_cdc import SEAM_BLOCK, seam_blocks, seam_payloads


def _random_bytes(n: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


def _low_entropy_bytes(n: int, seed: int = 0, alphabet: int = 4) -> bytes:
    return (
        np.random.default_rng(seed)
        .integers(0, alphabet, size=n, dtype=np.uint8)
        .tobytes()
    )


def _assert_backends_agree(make, data: bytes) -> None:
    scalar = make("scalar").cut_points(data)
    vectorized = make("vectorized").cut_points(data)
    assert vectorized == scalar
    assert make("auto").cut_points(data) == scalar


FASTCDC_CONFIGS = [
    # (avg, min, max, normalization) — id strings name the regime.
    pytest.param((8192, None, None, 2), id="fastcdc-defaults"),
    pytest.param((256, None, None, 2), id="fastcdc-small-avg"),
    pytest.param((256, 256, 256, 2), id="fastcdc-fixed-size"),
    pytest.param((1024, 1, 4096, 2), id="fastcdc-gap-zone"),  # min < window
    pytest.param((2, 1, 64, 2), id="fastcdc-tiny-avg"),
    pytest.param((1, 1, 16, 0), id="fastcdc-all-boundary"),
    pytest.param((64 * 1024, 512, 64 * 1024, 2), id="fastcdc-sparse"),
    pytest.param((4096, 4, 8192, 3), id="fastcdc-deep-normalization"),
    pytest.param((512, 128, 2048, 0), id="fastcdc-no-normalization"),
]

EXTREMUM_CONFIGS = [
    pytest.param((AEChunker, 256), id="ae-256"),
    pytest.param((AEChunker, 100), id="ae-non-pow2"),
    pytest.param((AEChunker, 8192), id="ae-large"),
    pytest.param((RAMChunker, 256), id="ram-256"),
    pytest.param((RAMChunker, 100), id="ram-non-pow2"),
    pytest.param((RAMChunker, 8192), id="ram-large"),
]


def _fastcdc_maker(cfg):
    avg, mn, mx, nc = cfg
    return lambda backend: FastCDCChunker(
        avg_size=avg, min_size=mn, max_size=mx, normalization=nc, backend=backend
    )


@pytest.mark.parametrize("cfg", FASTCDC_CONFIGS)
class TestFastCDCEquivalence:
    def test_random_buffers(self, cfg):
        make = _fastcdc_maker(cfg)
        for seed, n in [(0, 10_000), (1, 65_536), (2, 3 * 4096 + 17)]:
            _assert_backends_agree(make, _random_bytes(n, seed))

    def test_low_entropy_and_zeros(self, cfg):
        make = _fastcdc_maker(cfg)
        _assert_backends_agree(make, _low_entropy_bytes(20_000, seed=3))
        # All-zeros drives the S4 filter degenerate — every position passes
        # — which must flip the kernel into its exact dense-block path, not
        # blow up the survivor list. Boundaries must still match exactly.
        _assert_backends_agree(make, bytes(20_000))

    def test_edge_sizes(self, cfg):
        make = _fastcdc_maker(cfg)
        chunker = make("scalar")
        for n in [0, 1, 7, chunker.min_size - 1, chunker.min_size, chunker.max_size + 1]:
            if n >= 0:
                _assert_backends_agree(make, _random_bytes(n, seed=n))


@pytest.mark.parametrize("cfg", EXTREMUM_CONFIGS)
class TestExtremumEquivalence:
    def test_random_buffers(self, cfg):
        cls, avg = cfg
        make = lambda backend: cls(avg_size=avg, backend=backend)
        for seed, n in [(0, 10_000), (1, 65_536), (2, 3 * 4096 + 17)]:
            _assert_backends_agree(make, _random_bytes(n, seed))

    def test_low_entropy_and_zeros(self, cfg):
        cls, avg = cfg
        make = lambda backend: cls(avg_size=avg, backend=backend)
        _assert_backends_agree(make, _low_entropy_bytes(20_000, seed=3))
        # Constant data never produces a new extremum (strict comparisons
        # for AE records; RAM's >= threshold hits immediately) — the two
        # algorithms take opposite degenerate paths and both backends must
        # agree on each.
        _assert_backends_agree(make, bytes(20_000))
        _assert_backends_agree(make, b"\xff" * 20_000)

    def test_edge_sizes(self, cfg):
        cls, avg = cfg
        make = lambda backend: cls(avg_size=avg, backend=backend)
        chunker = make("scalar")
        for n in [0, 1, chunker.window - 1, chunker.window + 1, chunker.max_size + 1]:
            if n >= 0:
                _assert_backends_agree(make, _random_bytes(n, seed=n))


class TestDatasetStreams:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda b: FastCDCChunker(avg_size=4096, backend=b), id="fastcdc"),
        pytest.param(lambda b: AEChunker(avg_size=4096, backend=b), id="ae"),
        pytest.param(lambda b: RAMChunker(avg_size=4096, backend=b), id="ram"),
    ])
    def test_trafficvideo(self, make):
        source = TrafficVideoSource(camera=0, blocks_per_frame=16)
        for i in range(3):
            data = source.generate_file(i).data
            assert make("vectorized").cut_points(data) == make("scalar").cut_points(data)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda b: FastCDCChunker(avg_size=4096, backend=b), id="fastcdc"),
        pytest.param(lambda b: AEChunker(avg_size=4096, backend=b), id="ae"),
        pytest.param(lambda b: RAMChunker(avg_size=4096, backend=b), id="ram"),
    ])
    def test_accelerometer(self, make):
        source = AccelerometerSource(participant=1, size_jitter=0.3)
        for i in range(3):
            data = source.generate_file(i).data
            assert make("vectorized").cut_points(data) == make("scalar").cut_points(data)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: FastCDCChunker(avg_size=4096), id="fastcdc"),
        pytest.param(lambda: AEChunker(avg_size=4096), id="ae"),
        pytest.param(lambda: RAMChunker(avg_size=4096), id="ram"),
    ])
    def test_chunk_stream_matches_bytes(self, make):
        source = AccelerometerSource(participant=0)
        blocks = [source.generate_file(i).data for i in range(3)]
        joined = b"".join(blocks)
        chunker = make()
        streamed = [(c.offset, c.length) for c in chunker.chunk_stream(iter(blocks))]
        direct = [(c.offset, c.length) for c in chunker.chunk(joined)]
        assert streamed == direct


@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=0, max_size=8192), avg_exp=st.integers(5, 10))
def test_fastcdc_property_equivalence(data: bytes, avg_exp: int):
    avg = 1 << avg_exp
    scalar = FastCDCChunker(avg_size=avg, backend="scalar")
    vectorized = FastCDCChunker(avg_size=avg, backend="vectorized")
    assert vectorized.cut_points(data) == scalar.cut_points(data)


@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=0, max_size=8192), avg=st.integers(32, 700))
def test_extremum_property_equivalence(data: bytes, avg: int):
    for cls in (AEChunker, RAMChunker):
        scalar = cls(avg_size=avg, backend="scalar")
        vectorized = cls(avg_size=avg, backend="vectorized")
        assert vectorized.cut_points(data) == scalar.cut_points(data)


def _assert_candidates_match_values(data: bytes, masks: tuple[int, ...]) -> None:
    buf = np.frombuffer(data, dtype=np.uint8)
    values = split_gear_values(buf, _T32_U32)
    for mask, cands in zip(masks, split_gear_candidates(buf, _T32_U32, masks)):
        expected = np.flatnonzero((values & np.uint32(mask)) == 0)
        expected = expected[expected >= 7] + 1
        assert np.array_equal(cands, expected)


class TestSplitGearKernel:
    """The vectorized kernel against a straight evaluation of the spec."""

    @staticmethod
    def _value(data: bytes, e: int) -> int:
        s4 = 0
        for j in range(min(4, e)):
            s4 += data[e - 1 - j] << j
        w8 = 0
        for j in range(min(8, e)):
            w8 += _T32[data[e - 1 - j]] << j
        return (w8 & 0xFFFFFF00 & 0xFFFFFFFF) | (s4 & 0xFF)

    def test_split_gear_values_match_definition(self):
        data = _random_bytes(2000, seed=11)
        buf = np.frombuffer(data, dtype=np.uint8)
        values = split_gear_values(buf, _T32_U32)
        for i in (*range(40), 517, len(buf) - 1):
            assert int(values[i]) == self._value(data, i + 1)
        for n in range(8):  # shorter than either window
            values = split_gear_values(buf[:n], _T32_U32)
            assert [int(v) for v in values] == [self._value(data, e) for e in range(1, n + 1)]

    @pytest.mark.parametrize("payload", [
        pytest.param(lambda: _random_bytes(300_000, seed=13), id="random"),
        pytest.param(lambda: bytes(300_000), id="zeros-dense-fallback"),
        pytest.param(lambda: _low_entropy_bytes(300_000, seed=14, alphabet=2), id="binary-alphabet"),
    ])
    def test_candidates_match_values(self, payload):
        _assert_candidates_match_values(payload(), ((1 << 15) - 1, (1 << 11) - 1))

    def test_mask_groups_with_distinct_low_bytes(self):
        # maskL below 8 bits exercises the per-group filter path.
        _assert_candidates_match_values(
            _random_bytes(100_000, seed=15), ((1 << 11) - 1, (1 << 6) - 1)
        )


class TestMultiBlockKernel:
    """The split-gear scan over many blocks: the seams must be invisible,
    including a dense block that takes the exact fallback between sparse
    ones and a cut whose window straddles a seam."""

    MASKS = [
        pytest.param(((1 << 15) - 1, (1 << 11) - 1), id="shared-filter"),
        pytest.param(((1 << 11) - 1, (1 << 6) - 1), id="per-group-filter"),
    ]

    @pytest.mark.parametrize("masks", MASKS)
    @pytest.mark.parametrize("data", seam_payloads())
    def test_candidates_match_values(self, data, masks, monkeypatch):
        monkeypatch.setattr(vectorized, "_BLOCK", SEAM_BLOCK)
        _assert_candidates_match_values(data, masks)

    @pytest.mark.parametrize("avg", [256, 8192])
    @pytest.mark.parametrize("data", seam_payloads())
    def test_cut_points_across_seams(self, data, avg, monkeypatch):
        monkeypatch.setattr(vectorized, "_BLOCK", SEAM_BLOCK)
        make = lambda b: FastCDCChunker(avg_size=avg, backend=b)
        _assert_backends_agree(make, data)

    def test_cut_exactly_at_a_seam(self, monkeypatch):
        data = _random_bytes(6 * SEAM_BLOCK, seed=5)
        scalar = FastCDCChunker(avg_size=256, backend="scalar")
        cuts = scalar.cut_points(data)
        for block in seam_blocks(scalar, data):
            monkeypatch.setattr(vectorized, "_BLOCK", block)
            assert FastCDCChunker(avg_size=256, backend="vectorized").cut_points(data) == cuts


class TestNormalizedChunking:
    def test_size_spread_tighter_than_gear(self):
        """Normalized chunking's raison d'être: the chunk-size distribution
        concentrates around the target vs plain gear CDC."""
        data = _random_bytes(1_500_000, seed=20)
        fc = FastCDCChunker(avg_size=8192).chunk_lengths(data)
        gear = GearChunker(avg_size=8192).chunk_lengths(data)
        cv = lambda xs: float(np.std(xs) / np.mean(xs))
        assert cv(fc) < cv(gear) * 0.7
        assert abs(np.mean(fc) - 8192) < abs(np.mean(gear) - 8192)

    def test_masks_nested(self):
        c = FastCDCChunker(avg_size=8192, normalization=2)
        assert c._mask_l & c._mask_s == c._mask_l  # maskL ⊂ maskS
        assert c._mask_s == (1 << 15) - 1
        assert c._mask_l == (1 << 11) - 1

    def test_normalization_clamped(self):
        assert FastCDCChunker(avg_size=2, min_size=1, normalization=5).normalization == 1
        assert FastCDCChunker(avg_size=1, min_size=1, normalization=5).normalization == 0

    def test_avg_size_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            FastCDCChunker(avg_size=1000)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            FastCDCChunker(avg_size=256, min_size=512)
        with pytest.raises(ValueError):
            FastCDCChunker(avg_size=256, max_size=128)

    @given(data=st.binary(max_size=5000))
    @settings(max_examples=30, deadline=None)
    def test_invariants_property(self, data: bytes):
        validate_chunking(data, list(FastCDCChunker(avg_size=128).chunk(data)))


class TestExtremumBehavior:
    def test_window_derived_from_avg(self):
        assert AEChunker(avg_size=256).window == 162  # 256 / (e/(e-1))
        assert RAMChunker(avg_size=256).window == 102  # 256 / 2.5

    def test_mean_near_target(self):
        data = _random_bytes(600_000, seed=21)
        for cls in (AEChunker, RAMChunker):
            lengths = cls(avg_size=1024).chunk_lengths(data)
            mean = float(np.mean(lengths))
            assert 512 < mean < 2560, (cls.__name__, mean)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            AEChunker(avg_size=0)
        with pytest.raises(ValueError):
            RAMChunker(avg_size=256, max_size=10)
        with pytest.raises(ValueError):
            AEChunker(avg_size=256, backend="gpu")

    @given(data=st.binary(max_size=5000))
    @settings(max_examples=30, deadline=None)
    def test_invariants_property(self, data: bytes):
        for cls in (AEChunker, RAMChunker):
            validate_chunking(data, list(cls(avg_size=128).chunk(data)))
