"""Unit tests for the multilevel interpolation predictor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sz.interp import interp_compress, interp_decompress
from tests.helpers import interp_code_dtype, oracle_interp_compress, smooth_cube


def roundtrip(data: np.ndarray, eb: float) -> np.ndarray:
    codes, recon = interp_compress(data, eb)
    out = interp_decompress(codes, eb, data.shape)
    assert out.tobytes() == recon.tobytes()
    return out


class TestInterpRoundTrip:
    def test_code_count_equals_size(self, rng):
        data = rng.standard_normal((9, 7, 5))
        assert interp_compress(data, 1e-3)[0].size == data.size

    @pytest.mark.parametrize(
        "shape",
        [(1,), (2,), (17,), (64,), (5, 9), (8, 8, 8), (13, 6, 21), (3, 4, 4, 4), (1, 1, 1)],
    )
    def test_error_bound_all_shapes(self, shape, rng):
        data = rng.standard_normal(shape) * 10
        eb = 1e-3
        recon = roundtrip(data, eb)
        assert np.max(np.abs(recon - data)) <= eb * (1 + 1e-9)

    def test_smooth_data_codes_concentrate_near_zero(self):
        data = smooth_cube(32, dtype=np.float64)
        # Bound above the cube's noise floor (0.01): residuals then reflect
        # interpolation error, which is tiny for a smooth field.
        codes, _ = interp_compress(data, 2e-2)
        assert np.mean(np.abs(codes) <= 2) > 0.5

    def test_constant_field_codes_nearly_all_zero(self):
        data = np.full((16, 16, 16), 5.0)
        codes, _ = interp_compress(data, 1e-3)
        # One anchor carries the value; everything else is zero residual.
        assert np.count_nonzero(codes) <= 1

    def test_4d_batch_blocks_are_independent(self, rng):
        # Reconstructing a batch must equal reconstructing each block alone.
        blocks = rng.standard_normal((5, 8, 8, 8))
        eb = 1e-2
        batch = roundtrip(blocks, eb)
        for b in range(blocks.shape[0]):
            single = roundtrip(blocks[b][None], eb)[0]
            assert np.allclose(batch[b], single)

    def test_empty_array(self):
        codes, recon = interp_compress(np.zeros((0,)), 1e-3)
        assert codes.size == 0 and recon.shape == (0,)
        out = interp_decompress(codes, 1e-3, (0,))
        assert out.shape == (0,)

    def test_rejects_bad_ndim(self):
        with pytest.raises(ValueError, match="1-4D"):
            interp_compress(np.zeros((2,) * 5), 1e-3)

    def test_rejects_wrong_code_count(self):
        with pytest.raises(ValueError, match="expected"):
            interp_decompress(np.zeros(3, dtype=np.int64), 1e-3, (2, 2))

    def test_rejects_overflow_bound(self):
        with pytest.raises(ValueError, match="overflow"):
            interp_compress(np.array([1e30]), 1e-30)

    def test_deterministic(self, rng):
        data = rng.standard_normal((12, 12, 12))
        (a, a_recon), (b, b_recon) = interp_compress(data, 1e-3), interp_compress(data, 1e-3)
        assert np.array_equal(a, b) and a_recon.tobytes() == b_recon.tobytes()

    def test_tighter_bound_larger_codes(self):
        data = smooth_cube(16, dtype=np.float64)
        loose = np.abs(interp_compress(data, 1e-2)[0]).sum()
        tight = np.abs(interp_compress(data, 1e-4)[0]).sum()
        assert tight > loose

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 4),
        st.floats(min_value=1e-5, max_value=1.0),
        st.integers(0, 2**31),
    )
    def test_property_error_bound(self, ndim, eb, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(s) for s in rng.integers(1, 9, size=ndim))
        data = rng.standard_normal(shape) * rng.uniform(0.1, 100)
        recon = roundtrip(data, eb)
        assert np.max(np.abs(recon - data)) <= eb * (1 + 1e-9)


class TestBatchedCompress:
    """A leading stream axis: row ``i`` ≡ the codes of ``data[i]`` alone."""

    @pytest.mark.parametrize(
        "shape", [(1,), (17,), (5, 9), (8, 8, 8), (13, 6, 21), (7, 7, 7), (3, 4, 4, 4), (5, 9, 3, 6)]
    )
    def test_rows_are_identical_to_single_compresses(self, shape, rng):
        ebs = [1e-3, 2.5e-2, 7e-5, 1e-3]
        data = rng.standard_normal((len(ebs),) + shape) * 10
        batch, recon = interp_compress(data, ebs)
        assert batch.shape == (len(ebs), int(np.prod(shape)))
        assert batch.dtype == interp_code_dtype(data, ebs) and recon.shape == data.shape
        assert np.array_equal(batch, oracle_interp_compress(data, ebs)[0])
        for row, eb, got, got_recon in zip(data, ebs, batch, recon):
            want, want_recon = interp_compress(row, eb)
            assert np.array_equal(got, want)
            assert got_recon.tobytes() == want_recon.tobytes()

    def test_float32_rows(self, rng):
        data = (rng.standard_normal((3, 9, 10, 11)) * 100).astype(np.float32)
        batch, _ = interp_compress(data, [1e-2] * 3)
        for row, got in zip(data, batch):
            assert np.array_equal(got, interp_compress(row, 1e-2)[0])

    @given(
        shape=st.sampled_from([(1,), (19,), (6, 7), (9, 8, 5), (2, 3, 4, 5)]),
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([1e-3, 1.0, 1e4]),
        eb=st.sampled_from([1e-4, 3e-2, 0.7]),
        strided=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_float32_equals_its_float64_cast(self, shape, seed, scale, eb, strided):
        """float32 is read as it is, bit for bit what its float64 cast gives:
        codes and reconstruction, batched or single, a view or not."""
        rng = np.random.default_rng(seed)
        full = rng.standard_normal((3,) + tuple(2 * d for d in shape)) * scale
        data = full.astype(np.float32)
        if strided:
            data = data[(slice(None),) + (slice(None, None, 2),) * len(shape)]
        else:
            data = data[(slice(None),) + tuple(slice(0, d) for d in shape)]
        wide = data.astype(np.float64)
        codes, recon = interp_compress(data, [eb] * 3)
        want_codes, want_recon = interp_compress(wide, [eb] * 3)
        assert recon.dtype == np.float64
        assert np.array_equal(codes, want_codes)
        assert np.array_equal(recon.view(np.int64), want_recon.view(np.int64))
        assert np.array_equal(interp_compress(data[1], eb)[0], want_codes[1])

    def test_one_row_batch_keeps_its_axis(self, rng):
        data = rng.standard_normal((6, 6))
        batch, recon = interp_compress(data[None], [1e-2])
        assert batch.shape == (1, 36) and recon.shape == (1, 6, 6)
        assert np.array_equal(batch[0], interp_compress(data, 1e-2)[0])

    def test_empty_streams(self):
        codes, recon = interp_compress(np.zeros((3, 0, 4)), [1e-3] * 3)
        assert codes.shape == (3, 0) and recon.shape == (3, 0, 4)

    def test_rejects_mismatched_bounds_and_rank(self):
        with pytest.raises(ValueError, match="error bounds"):
            interp_compress(np.zeros((3, 2, 2)), [1e-3, 1e-3])
        with pytest.raises(ValueError, match="1-4D"):
            interp_compress(np.zeros((2,) * 6), [1e-3, 1e-3])
        with pytest.raises(ValueError, match="error bound"):
            interp_compress(np.zeros((2, 4)), [1e-3, 0.0])

    def test_overflow_check_stays_per_stream(self):
        data = np.array([[1.0, 2.0], [1e30, 1.0], [3.0, 4.0]])
        with pytest.raises(ValueError) as batch:
            interp_compress(data, [1e-3, 1e-3, 1e-3])
        with pytest.raises(ValueError) as single:
            interp_compress(data[1], 1e-3)
        assert str(batch.value) == str(single.value)
        # The same magnitudes under a bound that fits them are fine.
        assert interp_compress(data, [1e-3, 1e20, 1e-3])[0].shape == (3, 2)


class TestBatchedDecompress:
    """A leading stream axis: row ``i`` ≡ decoding ``codes[i]`` alone."""

    @pytest.mark.parametrize(
        "shape", [(1,), (17,), (5, 9), (8, 8, 8), (13, 6, 21), (3, 4, 4, 4)]
    )
    def test_rows_are_bit_identical_to_single_decodes(self, shape, rng):
        ebs = [1e-3, 2.5e-2, 7e-5, 1e-3]
        codes = np.stack(
            [interp_compress(rng.standard_normal(shape) * 10, eb)[0] for eb in ebs]
        )
        batch = interp_decompress(codes, ebs, shape)
        assert batch.shape == (len(ebs),) + shape
        for row, eb, got in zip(codes, ebs, batch):
            assert np.array_equal(got, interp_decompress(row, eb, shape))

    @given(
        shape=st.sampled_from([(1,), (19,), (6, 7), (9, 8, 5), (2, 3, 4, 5)]),
        seed=st.integers(0, 2**16),
        scale=st.sampled_from([1e-3, 1.0, 1e4]),
        eb=st.sampled_from([1e-4, 3e-2, 0.7]),
        strided=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_float32_equals_its_float64_cast(self, shape, seed, scale, eb, strided):
        """float32 is read as it is, bit for bit what its float64 cast gives:
        codes and reconstruction, batched or single, a view or not."""
        rng = np.random.default_rng(seed)
        full = rng.standard_normal((3,) + tuple(2 * d for d in shape)) * scale
        data = full.astype(np.float32)
        if strided:
            data = data[(slice(None),) + (slice(None, None, 2),) * len(shape)]
        else:
            data = data[(slice(None),) + tuple(slice(0, d) for d in shape)]
        wide = data.astype(np.float64)
        codes, recon = interp_compress(data, [eb] * 3)
        want_codes, want_recon = interp_compress(wide, [eb] * 3)
        assert recon.dtype == np.float64
        assert np.array_equal(codes, want_codes)
        assert np.array_equal(recon.view(np.int64), want_recon.view(np.int64))
        assert np.array_equal(interp_compress(data[1], eb)[0], want_codes[1])

    def test_one_row_batch_keeps_its_axis(self, rng):
        codes, _ = interp_compress(rng.standard_normal((6, 6)), 1e-2)
        batch = interp_decompress(codes[None], [1e-2], (6, 6))
        assert batch.shape == (1, 6, 6)
        assert np.array_equal(batch[0], interp_decompress(codes, 1e-2, (6, 6)))

    def test_rejects_mismatched_bounds_and_bad_rows(self):
        codes = np.zeros((3, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="error bounds"):
            interp_decompress(codes, [1e-3, 1e-3], (2, 2))
        with pytest.raises(ValueError, match="expected 9 codes"):
            interp_decompress(codes, [1e-3] * 3, (3, 3))
        with pytest.raises(ValueError):
            interp_decompress(codes, [1e-3, 0.0, 1e-3], (2, 2))
