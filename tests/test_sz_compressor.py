"""Unit + property tests for the end-to-end SZ compressor."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sz import SZCompressor, SZConfig, compress, decompress, lossless, stream
from repro.sz import compressor as sz_compressor
from tests.helpers import assert_error_bounded, pin_block_size, smooth_cube
from tests.test_sz_batch_decode import fields


@pytest.fixture(scope="module")
def codec() -> SZCompressor:
    return SZCompressor()


class TestConfig:
    def test_rejects_conflicting_init(self):
        with pytest.raises(TypeError):
            SZCompressor(SZConfig(), predictor="lorenzo")

    def test_rejects_bad_predictor(self):
        with pytest.raises(ValueError, match="predictor"):
            SZConfig(predictor="magic")

    @pytest.mark.parametrize("block", [None, 1, 100, np.int64(64)])
    def test_any_block_size_roundtrips(self, block, monkeypatch):
        pin_block_size(monkeypatch, block)
        codec = SZCompressor()
        data = smooth_cube(8)
        blob = codec.compress(data, 1e-3)
        if block is not None:
            meta = stream.unpack_meta(stream.parse(blob).section(stream.SEC_META)[1])
            assert meta["block_size"] == block
        assert_error_bounded(data, codec.decompress(blob), 1e-3)

    def test_kwargs_init(self):
        codec = SZCompressor(predictor="lorenzo")
        assert codec.config.predictor == "lorenzo"


class TestStreamCarriesItsParameters:
    """A stream records its radius, code-length cap and Huffman block size;
    the decoder reads them back from the stream, never from the encoder's
    module constants."""

    @pytest.mark.parametrize(
        "radius, max_code_len, block",
        [(2, 4, None), (64, 8, 16), (512, 12, 1), (1 << 16, 24, 100)],
        ids=["r2-len4", "r64-len8-b16", "r512-len12-b1", "r65536-len24-b100"],
    )
    def test_decodes_after_the_constants_change(self, radius, max_code_len, block, monkeypatch):
        monkeypatch.setattr(sz_compressor, "RADIUS", radius)
        monkeypatch.setattr(sz_compressor, "MAX_CODE_LEN", max_code_len)
        pin_block_size(monkeypatch, block)
        rng = np.random.default_rng(radius)
        data = smooth_cube(8) + rng.normal(scale=0.05, size=(8, 8, 8)).astype(np.float32)
        codec = SZCompressor()
        blob = codec.compress(data, 1e-3)
        meta = stream.unpack_meta(stream.parse(blob).section(stream.SEC_META)[1])
        assert (meta["radius"], meta["max_len"]) == (radius, max_code_len)
        if block is not None:
            assert meta["block_size"] == block
        monkeypatch.undo()
        assert (sz_compressor.RADIUS, sz_compressor.MAX_CODE_LEN) != (radius, max_code_len)
        assert_error_bounded(data, SZCompressor().decompress(blob), 1e-3)


class TestRoundTripAbs:
    @pytest.mark.parametrize("predictor", ["interp", "lorenzo"])
    @pytest.mark.parametrize("shape", [(100,), (16, 16), (12, 12, 12), (4, 6, 6, 6)])
    def test_bound_held(self, predictor, shape, rng):
        codec = SZCompressor(predictor=predictor)
        data = (rng.standard_normal(shape) * 50).astype(np.float32)
        eb = 0.01
        blob = codec.compress(data, eb, mode="abs")
        out = codec.decompress(blob)
        assert out.shape == shape and out.dtype == np.float32
        assert_error_bounded(data, out, eb)

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("predictor", ["interp", "lorenzo"])
    @pytest.mark.parametrize("shape", [(64,), (16, 16, 16)])
    def test_bound_holds_at_the_rounding_edge(self, predictor, dtype, shape, batched):
        """Zeros with every odd cell of the last axis at ``eb * (1 + 5e-7)``:
        each such cell is predicted as 0 (Lorenzo: each is quantized on its
        own) and its residual sits just past half the pitch, so it rounds up
        to ``2 * eb`` and errs by ``0.9999995 * eb``.  A pitch loosened by
        one part in a million rounds it down instead, to an error of
        ``1.0000005 * eb``: this test, not only the goldens, holds the pitch
        at exactly ``2 * eb``."""
        eb = 2.0**-10  # 2 * eb is exact in float32
        data = np.zeros(shape, dtype=dtype)
        data[..., 1::2] = eb * (1 + 5e-7)
        assert eb < data.max() < eb * (1 + 1e-6)
        codec = SZCompressor(predictor=predictor)
        if batched:
            blobs = codec.compress_many([data] * 3, eb, "abs")
        else:
            blobs = [codec.compress(data, eb, "abs")]
        for out in codec.decompress_many(blobs):
            error = np.abs(out.astype(np.float64) - data.astype(np.float64)).max()
            assert eb * (1 - 1e-6) < error <= eb * (1 + 1e-9)

    def test_float64_preserved(self, codec, rng):
        data = rng.standard_normal((10, 10, 10))
        out = codec.decompress(codec.compress(data, 1e-6, mode="abs"))
        assert out.dtype == np.float64
        assert_error_bounded(data, out, 1e-6)

    def test_integer_input_upcast(self, codec):
        data = np.arange(64, dtype=np.int32).reshape(4, 4, 4)
        out = codec.decompress(codec.compress(data, 0.5, mode="abs"))
        assert out.dtype == np.float64
        assert_error_bounded(data.astype(np.float64), out, 0.5)

    def test_non_contiguous_input(self, codec, rng):
        base = rng.standard_normal((20, 20)).astype(np.float32)
        view = base[::2, ::2]
        out = codec.decompress(codec.compress(view, 1e-3, mode="abs"))
        assert_error_bounded(np.ascontiguousarray(view), out, 1e-3)

    def test_fortran_order_input(self, codec, rng):
        data = np.asfortranarray(rng.standard_normal((8, 9, 10)).astype(np.float32))
        out = codec.decompress(codec.compress(data, 1e-3, mode="abs"))
        assert_error_bounded(data, out, 1e-3)

    def test_outlier_heavy_data(self, codec, rng):
        # Spiky data: residuals far past RADIUS force heavy use of the
        # escape channel.
        data = rng.standard_normal(2000).astype(np.float32) * 1e6
        blob, stats = codec.compress_with_stats(data, 1.0, mode="abs")
        assert stats.n_outliers > data.size // 2
        assert_error_bounded(data, codec.decompress(blob), 1.0)

    def test_smooth_data_compresses_well(self, codec):
        data = smooth_cube(32)
        blob, stats = codec.compress_with_stats(data, 1e-3, mode="rel")
        assert stats.ratio > 5
        assert stats.bit_rate < 8

    def test_nan_rejected(self, codec):
        data = np.array([1.0, np.nan, 2.0])
        with pytest.raises(ValueError, match="non-finite"):
            codec.compress(data, 1e-3)

    def test_inf_rejected(self, codec):
        with pytest.raises(ValueError, match="non-finite"):
            codec.compress(np.array([np.inf]), 1e-3)

    def test_unsupported_ndim_rejected(self, codec):
        with pytest.raises(ValueError, match="dimensionalities"):
            codec.compress(np.zeros((2,) * 5), 1e-3)


class TestSpecialPaths:
    def test_empty_array(self, codec):
        out = codec.decompress(codec.compress(np.zeros((0,), dtype=np.float32), 1e-3))
        assert out.shape == (0,) and out.dtype == np.float32

    def test_lossless_when_eb_zero(self, codec, rng):
        data = rng.standard_normal(100).astype(np.float32)
        out = codec.decompress(codec.compress(data, 0.0, mode="abs"))
        assert np.array_equal(out, data)

    def test_constant_rel_mode_is_lossless(self, codec):
        data = np.full((6, 6, 6), np.float32(2.5))
        out = codec.decompress(codec.compress(data, 1e-3, mode="rel"))
        assert np.array_equal(out, data)

    def test_rel_mode_bound_scales_with_range(self, codec, rng):
        data = (rng.standard_normal((10, 10, 10)) * 1e9).astype(np.float32)
        eb_rel = 1e-4
        blob, stats = codec.compress_with_stats(data, eb_rel, mode="rel")
        expected_abs = eb_rel * (float(data.max()) - float(data.min()))
        assert stats.eb_abs == pytest.approx(expected_abs)
        assert_error_bounded(data, codec.decompress(blob), expected_abs)

    def test_incompressible_payload_is_stored_raw(self, codec, rng):
        # Huffman output of white noise does not shrink under DEFLATE.
        data = rng.standard_normal((9, 9, 9)).astype(np.float32)
        blob = codec.compress(data, 1e-3, mode="abs")
        assert stream.parse(blob).section(stream.SEC_PAYLOAD)[0] == lossless.CODEC_RAW
        assert_error_bounded(data, codec.decompress(blob), 1e-3)


class TestPwRel:
    def test_pointwise_relative_bound(self, codec, rng):
        data = rng.lognormal(0, 3, size=3000)
        data[::7] = 0.0
        data[1::11] *= -1
        eb = 0.02
        out = codec.decompress(codec.compress(data, eb, mode="pw_rel"))
        nz = data != 0
        rel = np.abs((out[nz] - data[nz]) / data[nz])
        assert rel.max() <= eb * (1 + 1e-9)
        assert np.all(out[~nz] == 0.0)

    def test_signs_preserved(self, codec, rng):
        data = np.concatenate([rng.lognormal(0, 1, 100), -rng.lognormal(0, 1, 100)])
        out = codec.decompress(codec.compress(data, 0.1, mode="pw_rel"))
        assert np.array_equal(np.sign(out), np.sign(data))

    @pytest.mark.parametrize("data", [np.array([1.0]), np.zeros((0, 4))], ids=["value", "empty"])
    def test_pw_rel_bound_ge_one_rejected(self, codec, data):
        with pytest.raises(ValueError, match="pw_rel"):
            codec.compress(data, 1.5, mode="pw_rel")

    def test_pw_rel_zero_bound_is_lossless(self, codec, rng):
        data = rng.standard_normal(50)
        out = codec.decompress(codec.compress(data, 0.0, mode="pw_rel"))
        assert np.array_equal(out, data)


class TestStats:
    def test_stats_account_for_blob(self, codec, rng):
        data = rng.standard_normal((16, 16, 16)).astype(np.float32)
        blob, stats = codec.compress_with_stats(data, 1e-3, mode="abs")
        assert stats.compressed_bytes == len(blob)
        assert stats.original_bytes == data.nbytes
        assert stats.n_values == data.size
        assert stats.ratio == pytest.approx(data.nbytes / len(blob))
        assert stats.bit_rate == pytest.approx(8 * len(blob) / data.size)
        assert sum(stats.section_bytes.values()) == len(blob)

    LATTICE = ["huffman_table", "block_offsets", "payload"]

    @pytest.mark.parametrize(
        "kind, eb, mode, sections, eb_abs, n_outliers, spans",
        [
            ("empty", 1e-3, "abs", ["framing"], 0.0, 0, set()),
            ("spiky", 0.0, "abs", ["raw", "framing"], 0.0, 0, {"lossless"}),
            ("spiky", 1e-3, "abs", LATTICE + ["outliers", "meta", "framing"], 1e-3, 5,
             {"predict", "encode", "lossless"}),
            ("spiky", 1e-2, "pw_rel", LATTICE + ["meta", "signs", "zero_mask", "framing"],
             float(np.log1p(1e-2)), 0, {"transform", "predict", "encode", "lossless"}),
            ("spiky", 0.0, "pw_rel", ["raw", "framing"], 0.0, 0, {"lossless"}),
        ],
        ids=["empty", "lossless", "lattice-outliers", "pw_rel", "pw_rel-lossless"],
    )
    def test_stats_sections_labelled(
        self, codec, kind, eb, mode, sections, eb_abs, n_outliers, spans
    ):
        """Every stream kind's stats: section labels in blob order, then
        the framing, summing to the blob; the resolved bound, the outlier
        count and the spans that ran."""
        if kind == "empty":
            data = np.zeros((0, 4), np.float32)
        else:
            (data,) = fields((16, 16, 16), 1, np.float32)
            data[3, 4, 5] += 1e4  # residuals far outside the radius
            data[::5, 2, 7] -= 3e3
        blob, stats = codec.compress_with_stats(data, eb, mode=mode)
        assert list(stats.section_bytes) == sections
        assert stats.eb_abs == eb_abs and stats.mode == mode
        assert stats.n_outliers == n_outliers
        assert set(stats.timings.spans) == spans
        assert (stats.compressed_bytes, stats.original_bytes, stats.n_values) == (
            len(blob), data.nbytes, data.size,
        )
        assert sum(stats.section_bytes.values()) == len(blob)

    def test_section_bytes_sum_to_the_blob_in_either_framing(self, codec):
        """The byte breakdown sums to the blob for a version-2 stream and
        for the version-1 streams of a frozen fixture, the table labelled
        ``huffman_table`` in both."""
        from repro.core.container import CompressedDataset
        from repro.sz.compressor import section_bytes

        (data,) = fields((16, 16, 16), 1, np.float32)
        fixture = CompressedDataset.from_bytes(
            (Path(__file__).parent / "data" / "golden_gsp_bricks.rpbt").read_bytes()
        )
        v1 = [blob for blob in fixture.parts.values() if blob.startswith(stream.MAGIC)]
        blobs = [codec.compress(data, 1e-3, "abs"), *v1]
        assert {blob[4] for blob in blobs} == {1, 2}
        for blob in blobs:
            sizes = section_bytes(stream.parse(blob))
            assert sum(sizes.values()) == len(blob)
            assert {"huffman_table", "payload", "framing"} <= set(sizes)

    def test_module_level_api(self, rng):
        data = rng.standard_normal(100).astype(np.float32)
        out = decompress(compress(data, 1e-3))
        assert_error_bounded(data, out, 1e-3)


class TestCorruption:
    def test_garbage_blob_rejected(self, codec):
        with pytest.raises(ValueError):
            codec.decompress(b"not a stream at all")

    def test_truncated_blob_rejected(self, codec, rng):
        data = rng.standard_normal(100).astype(np.float32)
        blob = codec.compress(data, 1e-3)
        with pytest.raises(ValueError):
            codec.decompress(blob[: len(blob) // 2])


class TestProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.float32,
            shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12),
            elements=st.floats(
                min_value=-1e6, max_value=1e6, allow_nan=False, width=32
            ),
        ),
        st.sampled_from([1e-1, 1e-3, 1e-5]),
        st.sampled_from(["interp", "lorenzo"]),
    )
    def test_roundtrip_bound_property(self, data, eb, predictor):
        codec = SZCompressor(predictor=predictor)
        out = codec.decompress(codec.compress(data, eb, mode="abs"))
        assert out.shape == data.shape
        assert_error_bounded(data, out, eb, rtol=1e-3)
