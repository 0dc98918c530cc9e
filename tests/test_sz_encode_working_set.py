"""The encode half of an SZ batch: an in-place float64 sweep, int32 codes
where they fit, a chunked histogram and a chunked Huffman encode.

The batch is stacked straight into the float64 buffer the interpolation
sweeps in place, its codes are int32 whenever every stream's
``max |x| / (2 eb)`` is at most ``interp.CODE32_PEAK``, and the histogram
and the Huffman encode run over chunks of rows.  These tests bound the
working set of a 64-brick batch and hold the codes on either side of the
int32 threshold to the int64 whole-batch encode
(``tests/helpers.py::oracle_interp_compress``) and the blobs to one
``compress`` per array.
"""

import tracemalloc

import numpy as np
import pytest

from repro.sim import make_dataset
from repro.sz import compressor as sz_compressor
from repro.sz import huffman, interp
from repro.sz.compressor import SZCompressor
from tests.helpers import interp_code_dtype, oracle_interp_compress

BRICK = 16

#: Bytes of tracemalloc peak per value that a 64-brick float32 16³
#: ``compress_many`` on one encode thread may reach.  A float32 stack,
#: int64 codes, a separate float64 reconstruction and a whole-batch
#: Huffman encode peaked at 26.4 B/value (1e-4 of the range) and 21.4
#: (1e-2); the in-place float64 sweep with int32 codes peaks at 13.4 at
#: both, in the sweep.
ENCODE_BYTES_PER_VALUE = 16


def level_bricks() -> tuple[list[np.ndarray], float]:
    """The first 64 16³ bricks (x-major) of Run1_Z3's finest level at
    scale 4, as views, and that dataset's value range: tacbench's
    ``ingest_series`` level, whose ``rel`` bound TAC hands the SZ codec as
    an absolute one."""
    dataset = make_dataset("Run1_Z3", scale=4)
    stored = [lvl.data[lvl.mask] for lvl in dataset.levels if lvl.mask.any()]
    value_range = max(float(v.max()) for v in stored) - min(float(v.min()) for v in stored)
    grid = dataset.levels[0].data
    n = grid.shape[0]
    cut = [
        grid[x : x + BRICK, y : y + BRICK, z : z + BRICK]
        for x in range(0, n, BRICK)
        for y in range(0, n, BRICK)
        for z in range(0, n, BRICK)
    ]
    return cut[:64], value_range


@pytest.fixture(scope="module")
def level():
    return level_bricks()


@pytest.mark.parametrize("fraction", [1e-4, 1e-2])
def test_64_brick_encode_working_set(monkeypatch, level, fraction):
    bricks, value_range = level
    assert all(brick.dtype == np.float32 for brick in bricks)
    monkeypatch.setattr(sz_compressor, "ENCODE_THREADS", 1)
    codec = SZCompressor()
    eb = fraction * value_range
    codec.compress_many(bricks, eb, "abs")  # lazy imports and caches are not counted
    tracemalloc.start()
    try:
        codec.compress_many(bricks, eb, "abs")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n_values = 64 * BRICK**3
    assert peak <= ENCODE_BYTES_PER_VALUE * n_values, f"{peak / n_values:.1f} B/value"


def smooth_rows(count: int, dtype, seed: int = 0) -> np.ndarray:
    """``count`` smooth 12³ streams whose ``max |x|`` is exactly 1 (a
    corner value), of ``dtype``."""
    rng = np.random.default_rng(seed)
    data = np.cumsum(np.cumsum(rng.standard_normal((count, 12, 12, 12)), axis=1), axis=3)
    data /= np.abs(data).reshape(count, -1).max(axis=1)[:, None, None, None]
    data[:, -1, -1, -1] = 1.0
    return data.astype(dtype)


def assert_codes_and_blobs(data: np.ndarray, ebs: list, want_dtype) -> None:
    """Codes of the batch equal the whole-batch int64 oracle in value, in
    the documented dtype; the batched blobs equal one ``compress`` each."""
    codes, recon = interp.interp_compress(data, ebs)
    want_codes, want_recon = oracle_interp_compress(data, ebs)
    assert codes.dtype == interp_code_dtype(data, ebs) == np.dtype(want_dtype)
    assert np.array_equal(codes, want_codes)
    assert recon.tobytes() == want_recon.tobytes()
    codec = SZCompressor()
    arrays = list(data)
    if len(set(ebs)) == 1:
        blobs = codec.compress_many(arrays, ebs[0], "abs")
        assert blobs == [codec.compress(arr, ebs[0], "abs") for arr in arrays]


class TestCodeWidth:
    """The code dtype follows each batch's peak; the codes and bytes do not."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "side, want", [("below", np.int32), ("at", np.int32), ("above", np.int64)]
    )
    def test_either_side_of_the_int32_threshold(self, dtype, side, want):
        data = smooth_rows(4, dtype)
        peak = dtype(interp.CODE32_PEAK)
        if side == "below":
            peak = np.nextafter(peak, dtype(0))
        elif side == "above":
            peak = np.nextafter(peak, dtype(np.inf))
        data *= peak  # max |x| is the peak exactly: 1 * peak rounds to itself
        assert np.abs(data).max() == peak
        # eb 0.5: max |x| / (2 eb) is the peak itself.
        assert_codes_and_blobs(data, [0.5] * 4, want)

    def test_one_row_far_over_widens_the_batch(self):
        data = smooth_rows(5, np.float64, seed=1) * 100.0
        data[3] *= 2.0**40
        assert_codes_and_blobs(data, [1e-3] * 5, np.int64)
        # Rows alone keep their own widths; the values agree.
        for row in (0, 3):
            alone, _ = interp.interp_compress(data[row], 1e-3)
            assert alone.dtype == (np.int64 if row == 3 else np.int32)
            assert np.array_equal(alone, oracle_interp_compress(data[row : row + 1], [1e-3])[0][0])

    def test_mixed_bounds_fit_per_stream(self):
        """A peak over the threshold under one row's bound fits under a
        looser bound of the same row: the rule reads each row's own ratio."""
        data = smooth_rows(3, np.float64, seed=2) * 2.0**29
        assert_codes_and_blobs(data, [0.5, 0.5, 0.5], np.int32)
        assert_codes_and_blobs(data, [0.5, 0.4, 0.5], np.int64)
        assert_codes_and_blobs(data, [0.5, 1e3, 0.5], np.int32)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_outlier_heavy_batch(self, dtype):
        rng = np.random.default_rng(3)
        data = (rng.standard_normal((6, 16, 16, 16)) * 1e4).astype(dtype)
        codes, _ = interp.interp_compress(data, [1e-2] * 6)
        assert np.mean(np.abs(codes) >= sz_compressor.RADIUS) > 0.5
        assert_codes_and_blobs(data, [1e-2] * 6, np.int32)


@pytest.mark.parametrize("chunk_values", [1, 4096, 3 * 4096, 1 << 40])
def test_every_chunking_of_the_entropy_stage_gives_the_same_bytes(monkeypatch, chunk_values):
    """A batch's histogram and its Huffman encode read
    ``ENCODE_CHUNK_VALUES`` at call time: one row a chunk, three, or the
    whole batch give the same blobs, and a lone stream the same blob."""
    rng = np.random.default_rng(4)
    arrays = list(np.cumsum(rng.standard_normal((9, 16, 16, 16)), axis=1).astype(np.float32))
    arrays[4] = arrays[4] * 1e3  # a wide window and outliers in one row
    codec = SZCompressor()
    want = codec.compress_many(arrays, 1e-2, "abs")
    monkeypatch.setattr(huffman, "ENCODE_CHUNK_VALUES", chunk_values)
    assert codec.compress_many(arrays, 1e-2, "abs") == want
    assert codec.compress(arrays[4], 1e-2, "abs") == want[4]
