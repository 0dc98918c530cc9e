"""``recon=``: the encoder hands out the reconstruction it already computed.

An error-bounded predictor is closed-loop — it predicts from its own
reconstruction — so ``compress_many(..., recon=dests)`` can fill each
destination with exactly what ``decompress`` of the written blob returns,
without decoding anything.  These tests pin that contract bit for bit over
every stream kind, that asking for it never changes a byte of the blob, and
that it costs no memory at the point where the encode peaks.
"""

import tracemalloc

import numpy as np
import pytest

from repro.sz import compressor as sz_compressor
from repro.sz.compressor import SZCompressor
from tests.test_sz_batch_decode import fields

SHAPES = [(300,), (24, 20), (9, 7, 5), (5, 8, 8, 8)]


def bits(arr: np.ndarray) -> np.ndarray:
    return arr.view(np.uint32 if arr.dtype == np.float32 else np.uint64)


def assert_recon_is_the_decode(codec, arrays, error_bound, mode):
    """``recon[i]`` ≡ ``decompress(blob[i])`` in dtype, shape and bits, and
    the blobs are the bytes a call without ``recon=`` writes."""
    dests = [
        np.full(np.shape(arr), 7, dtype=arr.dtype if arr.dtype.kind == "f" else np.float64)
        for arr in arrays
    ]
    blobs = codec.compress_many(arrays, error_bound, mode, recon=dests)
    assert blobs == codec.compress_many(arrays, error_bound, mode)
    for blob, dest in zip(blobs, dests):
        decoded = codec.decompress(blob)
        assert dest.dtype == decoded.dtype and dest.shape == decoded.shape
        assert np.array_equal(bits(dest), bits(decoded))
    return blobs, dests


class TestReconIsTheDecode:
    @pytest.mark.parametrize("count", [1, 5], ids=["batch-of-one", "batch"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{len(s)}d")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("predictor", ["interp", "lorenzo"])
    @pytest.mark.parametrize("mode", ["abs", "rel", "pw_rel"])
    def test_every_mode_predictor_dtype_rank(self, mode, predictor, dtype, shape, count):
        arrays = fields(shape, count, dtype)
        arrays[0].flat[::7] *= -1  # pw_rel: signs ...
        arrays[0].flat[3] = 0.0  # ... and exact zeros travel as masks
        assert_recon_is_the_decode(SZCompressor(predictor=predictor), arrays, 1e-3, mode)

    @pytest.mark.parametrize("predictor", ["interp", "lorenzo"])
    def test_every_value_an_outlier(self, predictor, monkeypatch):
        monkeypatch.setattr(sz_compressor, "RADIUS", 2)
        monkeypatch.setattr(sz_compressor, "MAX_CODE_LEN", 4)
        codec = SZCompressor(predictor=predictor)
        rng = np.random.default_rng(1)
        arrays = [rng.normal(scale=50.0, size=(8, 8, 8)).astype(np.float32) for _ in range(3)]
        assert_recon_is_the_decode(codec, arrays, 1e-3, "abs")

    @pytest.mark.parametrize("count", [1, 3])
    def test_lossless_fallbacks_hand_out_the_input(self, count):
        arrays = fields((6, 6, 6), count, np.float32)
        _blobs, dests = assert_recon_is_the_decode(SZCompressor(), arrays, 0.0, "abs")
        for arr, dest in zip(arrays, dests):
            assert np.array_equal(bits(arr), bits(dest))
        constant = [np.full((4, 4, 4), 2.5, dtype=np.float64) for _ in range(count)]
        assert_recon_is_the_decode(SZCompressor(), constant, 1e-3, "rel")
        assert_recon_is_the_decode(SZCompressor(), arrays, 0.0, "pw_rel")

    def test_empty_array_gets_nothing(self):
        arrays = [np.zeros((0, 4), dtype=np.float32), np.zeros((0, 4), dtype=np.float32)]
        assert_recon_is_the_decode(SZCompressor(), arrays, 1e-3, "abs")
        assert_recon_is_the_decode(SZCompressor(), arrays[:1], 1e-3, "abs")

    def test_mixed_shapes_dtypes_and_stream_kinds_in_one_call(self):
        arrays = (
            fields((16, 16, 16), 3, np.float32)
            + fields((9, 7, 5), 2, np.float64)
            + [np.full((16, 16, 16), 1.0, dtype=np.float32)]  # lossless under rel
            + fields((300,), 1, np.float32)
            + [np.arange(24).reshape(4, 6)]  # integers are stored as float64
        )
        order = np.random.default_rng(2).permutation(len(arrays))
        assert_recon_is_the_decode(SZCompressor(), [arrays[i] for i in order], 1e-3, "rel")

    @pytest.mark.parametrize("mode", ["abs", "rel", "pw_rel"])
    @pytest.mark.parametrize("predictor", ["interp", "lorenzo"])
    def test_nothing_is_decoded(self, predictor, mode, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("recon= must not decode")

        monkeypatch.setattr(SZCompressor, "decompress_many", refuse)
        codec = SZCompressor(predictor=predictor)
        for arrays in (fields((8, 8, 8), 4, np.float32), fields((300,), 1, np.float64)):
            codec.compress_many(arrays, 1e-3, mode, recon=[np.empty_like(a) for a in arrays])

    def test_single_stream_entry_point(self):
        codec = SZCompressor()
        (arr,) = fields((12, 10, 8), 1, np.float32)
        dest = np.empty_like(arr)
        blob, stats = codec.compress_with_stats(arr, 1e-3, "rel", recon=dest)
        assert blob == codec.compress(arr, 1e-3, "rel") and stats.n_values == arr.size
        assert np.array_equal(bits(dest), bits(codec.decompress(blob)))


class TestDestinationMayBeTheSource:
    @pytest.mark.parametrize("count", [1, 6])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("predictor", ["interp", "lorenzo"])
    @pytest.mark.parametrize("mode", ["abs", "pw_rel"])
    def test_contiguous_sources(self, mode, predictor, dtype, count):
        codec = SZCompressor(predictor=predictor)
        arrays = fields((5, 8, 8, 8), count, dtype)
        blobs, dests = assert_recon_is_the_decode(codec, arrays, 1e-3, mode)
        own = [arr.copy() for arr in arrays]
        assert codec.compress_many(own, 1e-3, mode, recon=own) == blobs
        for arr, dest in zip(own, dests):
            assert np.array_equal(bits(arr), bits(dest))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_brick_views_of_one_grid(self, dtype):
        """What TAC passes: non-contiguous views of the padded grid, each
        its own destination, across more than one batch."""
        codec = SZCompressor()
        (grid,) = fields((32, 32, 48), 1, dtype)
        cut = lambda g: [  # noqa: E731
            g[x : x + 8, y : y + 8, z : z + 8]
            for x in range(0, 32, 8) for y in range(0, 32, 8) for z in range(0, 48, 8)
        ]
        blobs = codec.compress_many(cut(grid), 1e-3, "abs")
        own = grid.copy()
        assert codec.compress_many(cut(own), 1e-3, "abs", recon=cut(own)) == blobs
        for brick, blob in zip(cut(own), blobs):
            assert np.array_equal(bits(np.ascontiguousarray(brick)), bits(codec.decompress(blob)))


class TestBadDestinations:
    @pytest.fixture()
    def nothing_encoded(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a destination was checked after encoding began")

        monkeypatch.setattr(SZCompressor, "_encode_batch", refuse)

    @pytest.mark.parametrize(
        "bad",
        [
            np.empty((8, 8, 4), dtype=np.float32),  # wrong shape
            np.empty((8, 8, 8), dtype=np.float64),  # wrong dtype
            [[0.0] * 8] * 8,  # not an array
        ],
        ids=["shape", "dtype", "not-an-array"],
    )
    def test_rejected_before_anything_is_encoded(self, bad, nothing_encoded):
        arrays = fields((8, 8, 8), 4, np.float32)
        good = [np.empty_like(arr) for arr in arrays]
        with pytest.raises(ValueError, match="recon destination"):
            SZCompressor().compress_many(arrays, 1e-3, "abs", recon=good[:3] + [bad])
        with pytest.raises(ValueError, match="recon destination"):
            SZCompressor().compress_with_stats(arrays[0], 1e-3, "abs", recon=bad)

    def test_one_destination_per_array(self, nothing_encoded):
        arrays = fields((8, 8, 8), 3, np.float32)
        with pytest.raises(ValueError, match="one recon destination per array"):
            SZCompressor().compress_many(arrays, 1e-3, "abs", recon=arrays[:2])


def test_recon_adds_nothing_to_the_encode_peak(monkeypatch):
    """The float64 reconstruction of a batch is the sweep's own buffer:
    handing it out allocates nothing, and it is released before the
    entropy stage, where ``compress_many`` peaks on these noisy fields (the
    code-table build: their symbols span the whole alphabet) — pinned on
    one thread, where the batch's stages are the only allocations.  On
    two, two half-size batches in flight, at whatever stages, stay within
    that one-thread peak, ``recon=`` or not."""
    codec = SZCompressor()
    sources = fields((16, 16, 16), 64, np.float32)
    codec.compress_many(sources, 1e-3, "abs")  # caches and lazy imports filled

    def peak(threads: int, **kwargs) -> int:
        monkeypatch.setattr(sz_compressor, "ENCODE_THREADS", threads)
        tracemalloc.start()
        try:
            codec.compress_many(sources, 1e-3, "abs", **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    plain = peak(1)
    assert peak(1, recon=sources) <= 1.02 * plain
    assert max(peak(2), peak(2, recon=sources)) <= 1.02 * plain
