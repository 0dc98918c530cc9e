"""The reconstruct stage of the SZ decoder: int32 residuals, chunked passes.

A lattice batch's Huffman symbols become its residuals in place (int32);
only a batch that carries outliers, or a Lorenzo batch, widens to int64.
Each interpolation pass runs over chunks of streams of at most
``interp.PASS_VALUES`` values, in the encoder as in the decoder.  These
tests hold that route to the int64, whole-batch reconstruct it replaced
(``tests/helpers.py::oracle_lattice_decode``) and the encoder's to the
whole-batch encode it replaced (``oracle_interp_compress``) bit for bit,
bound the decode's working set, and reach the stage's two integrity
errors.
"""

import tracemalloc

import numpy as np
import pytest

from repro.sim import make_dataset
from repro.sim.nyx import generate_field
from repro.sz import compressor as sz_compressor
from repro.sz import interp, stream
from repro.sz.compressor import SZCompressor
from tests.helpers import (
    interp_code_dtype,
    oracle_interp_compress,
    oracle_lattice_decode,
    reserialize_stream,
)

BRICK = 16


def bricks(count: int, dtype, n: int = 64, seed: int = 42) -> list[np.ndarray]:
    """The first ``count`` 16³ bricks of a Nyx-like field, as views."""
    field = generate_field("baryon_density", n, seed=seed).astype(dtype)
    cut = [
        field[x : x + BRICK, y : y + BRICK, z : z + BRICK]
        for x in range(0, n, BRICK)
        for y in range(0, n, BRICK)
        for z in range(0, n, BRICK)
    ]
    return cut[:count]


#: An absolute bound of 1e-3 of the field's value range: the smooth
#: bricks' residuals stay inside the default radius under it.
ABS_EB = 3.5e8


def rough_brick(seed: int = 7) -> np.ndarray:
    """White noise: under :data:`ABS_EB` its residuals pass the radius."""
    return np.random.default_rng(seed).standard_normal((BRICK,) * 3) * 1e15


def assert_bit_identical(got: list, want: list) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def n_outliers(blob: bytes) -> int:
    meta = stream.parse(blob).section(stream.SEC_META)[1]
    return stream.unpack_meta(meta)["n_outliers"]


@pytest.fixture
def code_dtypes(monkeypatch):
    """The dtype of every code array the decoder hands the interpolation
    reconstruct, in call order."""
    seen = []
    real = sz_compressor.interp_decompress

    def spy(codes, abs_eb, shape):
        seen.append(codes.dtype)
        return real(codes, abs_eb, shape)

    monkeypatch.setattr(sz_compressor, "interp_decompress", spy)
    return seen


class TestOracle:
    @pytest.mark.parametrize("radius", [4096, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("predictor", ["interp", "lorenzo"])
    @pytest.mark.parametrize("count", [1, 27, 64])
    def test_brick_batches(self, monkeypatch, code_dtypes, radius, dtype, predictor, count):
        monkeypatch.setattr(sz_compressor, "RADIUS", radius)
        codec = SZCompressor(predictor=predictor)
        blobs = codec.compress_many(bricks(count, dtype), 1e-3, "rel")
        outliers = sum(n_outliers(blob) for blob in blobs)
        # Radius 8 makes every batch outlier-heavy; 4096 leaves these none.
        assert (outliers > 0) == (radius == 8)
        assert_bit_identical(codec.decompress_many(blobs), oracle_lattice_decode(blobs))
        if predictor == "interp":
            assert code_dtypes == [np.dtype(np.int64 if outliers else np.int32)]
        else:
            assert code_dtypes == []

    @pytest.mark.parametrize("radius", [4096, 8])
    @pytest.mark.parametrize("predictor", ["interp", "lorenzo"])
    def test_one_large_stream(self, monkeypatch, radius, predictor):
        monkeypatch.setattr(sz_compressor, "RADIUS", radius)
        codec = SZCompressor(predictor=predictor)
        field = generate_field("baryon_density", 64, seed=3)
        blobs = [codec.compress(field, 1e-4, "rel")]
        assert_bit_identical(codec.decompress_many(blobs), oracle_lattice_decode(blobs))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("predictor", ["interp", "lorenzo"])
    def test_pw_rel(self, predictor, dtype):
        codec = SZCompressor(predictor=predictor)
        members = bricks(27, dtype)
        members[4] = members[4] * -1.0  # signs travel in their own mask
        blobs = codec.compress_many(members, 1e-2, "pw_rel")
        assert_bit_identical(codec.decompress_many(blobs), oracle_lattice_decode(blobs))

    def test_outliers_in_one_member_widen_the_whole_batch(self, code_dtypes):
        members = bricks(27, np.float64)
        members[13] = rough_brick()
        blobs = SZCompressor().compress_many(members, ABS_EB, "abs")
        assert [n_outliers(blob) > 0 for blob in blobs].count(True) == 1
        assert_bit_identical(SZCompressor().decompress_many(blobs), oracle_lattice_decode(blobs))
        assert code_dtypes == [np.dtype(np.int64)]

    @pytest.mark.parametrize("pass_values", [1, 4096, 1 << 40])
    def test_every_chunking_of_a_pass_gives_the_same_bits(self, monkeypatch, pass_values):
        monkeypatch.setattr(interp, "PASS_VALUES", pass_values)
        blobs = SZCompressor().compress_many(bricks(64, np.float32), 1e-3, "rel")
        assert_bit_identical(SZCompressor().decompress_many(blobs), oracle_lattice_decode(blobs))


class TestInterpCodes:
    @pytest.mark.parametrize("direction", ["encode", "decode"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("count", [1, 27, 64])
    @pytest.mark.parametrize("shape", [(300,), (24, 20), (9, 16, 12), (3, 8, 8, 8)])
    @pytest.mark.parametrize("pass_values", [1 << 6, 1 << 14, 1 << 30])
    def test_chunked_sweep_matches_the_whole_batch_oracle(
        self, monkeypatch, direction, dtype, count, shape, pass_values
    ):
        """Either direction of the chunked sweep, codes and reconstruction,
        bit for bit against the encode whose passes spanned the batch."""
        rng = np.random.default_rng(count * len(shape))
        data = (np.cumsum(rng.standard_normal((count,) + shape), axis=-1) * 10).astype(dtype)
        ebs = rng.uniform(1e-3, 1e-1, size=count).tolist()
        want_codes, want_recon = oracle_interp_compress(data, ebs)
        monkeypatch.setattr(interp, "PASS_VALUES", pass_values)
        if direction == "encode":
            codes, recon = interp.interp_compress(data, ebs)
            assert codes.dtype == interp_code_dtype(data, ebs)
            assert np.array_equal(codes, want_codes)
        else:
            recon = interp.interp_decompress(want_codes, ebs, shape)
        assert recon.dtype == np.float64 and recon.tobytes() == want_recon.tobytes()

    @pytest.mark.parametrize("shape", [(300,), (24, 20), (9, 16, 12), (3, 8, 8, 8)])
    @pytest.mark.parametrize("pass_values", [1, 64, 1 << 40])
    def test_int32_and_int64_codes_decode_alike(self, monkeypatch, shape, pass_values):
        rng = np.random.default_rng(1)
        data = np.cumsum(rng.standard_normal((6,) + shape), axis=-1)
        ebs = [1e-3 * (1 + k) for k in range(6)]
        codes, _ = interp.interp_compress(data, ebs)
        want = interp.interp_decompress(codes, ebs, shape)
        monkeypatch.setattr(interp, "PASS_VALUES", pass_values)
        for dtype in (np.int32, np.int64, np.float64):
            got = interp.interp_decompress(codes.astype(dtype), ebs, shape)
            assert got.tobytes() == want.tobytes()

    def test_anchors_sum_in_int64(self):
        """A 4D stream has one anchor per block, delta-coded: two deltas of
        2**31 - 1 sum past int32, never past the int64 they are summed in."""
        shape = (2, 4, 4, 4)
        codes = np.zeros((1, 128), dtype=np.int32)
        codes[0, :2] = 2**31 - 1
        out = interp.interp_decompress(codes, [0.5], shape)
        assert out[0, 1, 0, 0, 0] == 2.0 * (2**31 - 1)


#: Bytes of tracemalloc peak per decoded value that a 27-brick batched
#: decode may reach.  On this input (small decode tables, so the
#: reconstruct holds the peak) an int64 residual copy with whole-batch pass
#: arrays peaked at 26.9 B/value; int32 residuals with chunked passes peak
#: at 15.5.
PEAK_BYTES_PER_VALUE = 20


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_27_brick_decode_working_set():
    codec = SZCompressor()
    blobs = codec.compress_many(bricks(27, np.float32), ABS_EB, "abs")
    codec.decompress_many(blobs)  # lazy imports and caches are not counted
    peak = _traced_peak(lambda: codec.decompress_many(blobs))
    n_values = 27 * BRICK**3
    assert peak < PEAK_BYTES_PER_VALUE * n_values, f"{peak / n_values:.1f} B/value"


#: Bytes of tracemalloc peak per decoded value of one cold ROI read's
#: decode at tacbench's ``roi_cold`` operating point, where 12-bit codes
#: make the decode tables weigh: the Huffman pass (tables, rounds, stitch)
#: and the whole ``decompress_many``.  Tables of an int32 symbol plus an
#: int64 length an entry peaked at 20.0 B/value in both; packed int32
#: ``sym << 5 | len`` entries peak at 13.6 and 15.8.
HUFFMAN_PASS_BYTES_PER_VALUE = 15
ROI_DECODE_BYTES_PER_VALUE = 18


def roi_cold_bricks() -> tuple[list[np.ndarray], float]:
    """The 27 16³ bricks an unaligned 32³ ROI touches (bricks 1-3 on each
    axis) of Run1_Z3's finest level at scale 4, and the bound of 1e-4 of
    the dataset's value range: tacbench's ``roi_cold`` operating point."""
    dataset = make_dataset("Run1_Z3", scale=4)
    stored = [lvl.data[lvl.mask] for lvl in dataset.levels if lvl.mask.any()]
    value_range = max(float(v.max()) for v in stored) - min(float(v.min()) for v in stored)
    grid = dataset.levels[0].data
    corners = range(BRICK, 4 * BRICK, BRICK)
    cut = [
        grid[x : x + BRICK, y : y + BRICK, z : z + BRICK]
        for x in corners
        for y in corners
        for z in corners
    ]
    return cut, 1e-4 * value_range


def test_cold_roi_decode_working_set(monkeypatch):
    codec = SZCompressor()
    blobs = codec.compress_many(*roi_cold_bricks(), "abs")
    n_values = 27 * BRICK**3
    codec.decompress_many(blobs)  # lazy imports and caches are not counted
    whole = _traced_peak(lambda: codec.decompress_many(blobs))
    assert whole < ROI_DECODE_BYTES_PER_VALUE * n_values, f"{whole / n_values:.1f} B/value"

    real, pass_peaks = sz_compressor._decode_symbols, []

    def spy(members):
        tracemalloc.reset_peak()
        symbols = real(members)
        pass_peaks.append(tracemalloc.get_traced_memory()[1])
        return symbols

    monkeypatch.setattr(sz_compressor, "_decode_symbols", spy)
    _traced_peak(lambda: codec.decompress_many(blobs))
    (peak,) = pass_peaks  # one batch: 27 streams of one key
    assert peak < HUFFMAN_PASS_BYTES_PER_VALUE * n_values, f"{peak / n_values:.1f} B/value"


def _bad_batch(route: str) -> list[bytes]:
    """A 27-stream batch whose stream 5 holds escapes but no outliers (its
    count is 0, its outlier section dropped), so the reconstruct's outlier
    check fails it.  ``route`` picks whether the batch's residuals stay
    int32 or widen to int64 (for the outliers of stream 20)."""
    members = bricks(27, np.float64)
    members[5] = rough_brick(seed=5)
    if route == "int64":
        members[20] = rough_brick(seed=20)
    blobs = SZCompressor().compress_many(members, ABS_EB, "abs")
    blobs[5] = _with_outliers(blobs[5], 0, None)
    return blobs


def _with_outliers(blob: bytes, count: int, values: bytes | None) -> bytes:
    """``blob`` with its outlier count and section replaced (``None`` drops it)."""
    meta = stream.unpack_meta(stream.parse(blob).section(stream.SEC_META)[1])
    meta["n_outliers"] = count
    return reserialize_stream(
        blob, {stream.SEC_META: stream.pack_meta(**meta), stream.SEC_OUTLIERS: values}
    )


class TestIntegrityErrors:
    @pytest.mark.parametrize("route", ["int32", "int64"])
    def test_escapes_that_disagree_with_the_outlier_count(self, code_dtypes, route):
        blobs = _bad_batch(route)
        assert (sum(n_outliers(blob) for blob in blobs) > 0) == (route == "int64")
        with pytest.raises(ValueError, match="outlier count mismatch"):
            SZCompressor().decompress_many(blobs)
        errors = {}
        out = SZCompressor().decompress_many(blobs, errors=errors)
        assert list(errors) == [5] and "outlier count mismatch" in str(errors[5])
        assert out[5] is None
        good = [i for i in range(27) if i != 5]
        want = oracle_lattice_decode([blobs[i] for i in good])
        assert_bit_identical([out[i] for i in good], want)

    def test_more_outliers_than_escapes(self):
        """The other direction: an outlier section one value longer than
        the stream's escapes."""
        members = bricks(27, np.float64)
        members[20] = rough_brick(seed=20)
        blobs = SZCompressor().compress_many(members, ABS_EB, "abs")
        count = n_outliers(blobs[20]) + 1
        blobs[20] = _with_outliers(blobs[20], count, np.zeros(count, dtype=np.int64).tobytes())
        errors = {}
        out = SZCompressor().decompress_many(blobs, errors=errors)
        assert list(errors) == [20] and "outlier count mismatch" in str(errors[20])
        assert all(out[i] is not None for i in range(27) if i != 20)

    def test_lorenzo_escapes_without_outliers(self):
        members = bricks(27, np.float64)
        members[5] = rough_brick(seed=5)
        codec = SZCompressor(predictor="lorenzo")
        blobs = codec.compress_many(members, ABS_EB, "abs")
        blobs[5] = _with_outliers(blobs[5], 0, None)
        errors = {}
        codec.decompress_many(blobs, errors=errors)
        assert list(errors) == [5] and "outlier count mismatch" in str(errors[5])

    @pytest.mark.parametrize("route", ["int32", "int64"])
    def test_code_stream_length_mismatch(self, monkeypatch, code_dtypes, route):
        """The pass loop's final count guards the traversal, not the wire:
        a parsed stream always holds one code per value, and the traversal
        visits each value once.  A traversal that skips a pass for 8³
        streams must fail exactly the 8³ stream of a mixed call."""
        codec = SZCompressor()
        small = (rough_brick(seed=3) if route == "int64" else bricks(1, np.float64)[0])[:8, :8, :8]
        blobs = codec.compress_many(bricks(27, np.float64), ABS_EB, "abs") + [
            codec.compress(small, ABS_EB, "abs")
        ]
        real = interp._traversal

        def short(full, ndim):
            anchor_ix, passes = real(full, ndim)
            return anchor_ix, passes[:-1] if full[1:] == (8, 8, 8) else passes

        monkeypatch.setattr(interp, "_traversal", short)
        assert (n_outliers(blobs[-1]) > 0) == (route == "int64")
        with pytest.raises(ValueError, match="code stream length mismatch"):
            codec.decompress_many(blobs)
        code_dtypes.clear()
        errors = {}
        out = codec.decompress_many(blobs, errors=errors)
        assert list(errors) == [27] and "code stream length mismatch" in str(errors[27])
        assert_bit_identical(out[:27], oracle_lattice_decode(blobs[:27]))
        assert code_dtypes[-1] == np.dtype(np.int64 if route == "int64" else np.int32)
