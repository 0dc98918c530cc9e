"""Batched encode: ``compress_many`` ≡ one ``compress`` per array.

The batch kernels are the only encode path (``compress`` is the batch of
one), so these tests pin that a stream's bytes do not depend on what it was
batched with — over every stream kind — and that a bad member raises what
``compress`` raises for it.
"""

import numpy as np
import pytest

from repro.core.density import Strategy
from repro.core.gsp import gsp_pad
from repro.core.tac import TACCompressor
from repro.sz import compressor as sz_compressor
from repro.sz.compressor import SZCompressor
from repro.utils.timer import TimingRecord
from tests.helpers import smooth_cube, two_level_dataset
from tests.test_sz_batch_decode import fields

CODEC = SZCompressor()


def assert_same_blobs(codec, arrays, error_bound, mode):
    blobs = codec.compress_many(arrays, error_bound, mode)
    assert len(blobs) == len(arrays)
    for blob, arr in zip(blobs, arrays):
        assert blob == codec.compress(arr, error_bound, mode)
    return blobs


@pytest.fixture()
def passes(monkeypatch):
    """Member counts of every predict/histogram pass the test runs."""
    seen = []
    real = SZCompressor._prepare_symbols

    def spy(self, arrs, *args):
        seen.append(len(arrs))
        return real(self, arrs, *args)

    monkeypatch.setattr(SZCompressor, "_prepare_symbols", spy)
    return seen


class TestEquivalence:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["abs", "rel"])
    @pytest.mark.parametrize("predictor", ["interp", "lorenzo"])
    @pytest.mark.parametrize("shape", [(300,), (24, 20), (16, 16, 16), (9, 7, 5), (5, 8, 8, 8)])
    def test_same_shape_batch(self, dtype, mode, predictor, shape, passes):
        codec = SZCompressor(predictor=predictor)
        arrays = fields(shape, 5, dtype)
        blobs = codec.compress_many(arrays, 1e-3, mode)
        assert passes == [5]  # they really share a pass
        assert blobs == [codec.compress(arr, 1e-3, mode) for arr in arrays]

    def test_mixed_shapes_dtypes_and_order(self, passes):
        arrays = (
            fields((16, 16, 16), 3, np.float32)
            + fields((9, 7, 5), 2, np.float64, seed=1)
            + fields((16, 16, 16), 2, np.float64, seed=2)
            + fields((4100,), 2, np.float32, seed=3)
            + fields((16, 16, 16), 2, np.float32, seed=4)
            + fields((6, 6), 1, np.float32, seed=5)
        )
        order = np.random.default_rng(0).permutation(len(arrays))
        arrays = [arrays[i] for i in order]
        CODEC.compress_many(arrays, 1e-3, "abs")
        assert sorted(passes) == [1, 2, 2, 2, 5]  # the lone member went alone
        assert_same_blobs(CODEC, arrays, 1e-3, "abs")

    def test_brick_views_of_one_padded_grid(self, passes):
        grid = np.pad(smooth_cube(40), ((0, 8),) * 3, mode="edge")  # 48³
        bricks = [
            grid[x : x + 16, y : y + 16, z : z + 16]
            for x in range(0, 48, 16)
            for y in range(0, 48, 16)
            for z in range(0, 48, 16)
        ]
        assert not bricks[1].flags.c_contiguous
        assert_same_blobs(CODEC, bricks, 1e-3, "abs")
        assert passes[0] == 27

    def test_ragged_edge_bricks(self):
        grid = smooth_cube(40)  # 16-bricks leave 8-wide edges on every axis
        bricks = [
            grid[x : x + 16, y : y + 16, z : z + 16]
            for x in range(0, 40, 16)
            for y in range(0, 40, 16)
            for z in range(0, 40, 16)
        ]
        assert len({b.shape for b in bricks}) == 8
        assert_same_blobs(CODEC, bricks, 1e-4, "abs")

    def test_members_with_and_without_outliers(self):
        calm = [arr - 2.5 for arr in fields((16, 16, 16), 4, np.float32)]
        rough = [arr.copy() for arr in calm[:2]]
        rough[0][3, 4, 5] += 1e4  # residuals far outside the radius
        rough[1][::5, 2, 7] -= 3e3
        arrays = [calm[0], rough[0], calm[1], calm[2], rough[1], calm[3]]
        blobs = assert_same_blobs(CODEC, arrays, 1e-3, "abs")
        n_outliers = [CODEC.compress_with_stats(a, 1e-3, "abs")[1].n_outliers for a in arrays]
        assert [n > 0 for n in n_outliers] == [False, True, False, False, True, False]
        for blob, arr in zip(blobs, arrays):
            assert np.max(np.abs(CODEC.decompress(blob) - arr)) <= 1e-3 * 1.001

    def test_constant_members_get_single_symbol_tables(self):
        arrays = fields((8, 8, 8), 3, np.float64)
        arrays.insert(1, np.full((8, 8, 8), 2.5))
        arrays.append(np.zeros((8, 8, 8)))
        assert_same_blobs(CODEC, arrays, 1e-3, "abs")

    def test_empty_lossless_and_pw_rel_members(self, passes):
        arrays = fields((8, 8, 8), 3, np.float32)
        empties = [np.zeros((0, 4), np.float32)] * 2
        assert_same_blobs(CODEC, arrays[:2] + empties + arrays[2:], 1e-3, "abs")
        # eb = 0 stores every member verbatim; a constant member of a rel
        # call resolves to eb_abs = 0 on its own.
        assert_same_blobs(CODEC, arrays, 0.0, "abs")
        assert_same_blobs(CODEC, [arrays[0], np.ones((8, 8, 8), np.float32), arrays[1]], 1e-3, "rel")
        del passes[:]
        assert_same_blobs(CODEC, arrays, 1e-2, "pw_rel")
        assert set(passes) == {1}  # pw_rel streams never share a pass

    def test_shapes_dtypes_empty_and_constant_members_in_one_rel_call(self):
        arrays = fields((16, 16, 16), 6, np.float32) + fields((9, 7, 5), 3, np.float64, seed=1)
        arrays.insert(2, np.zeros((0, 3), np.float32))
        arrays.insert(4, np.full((16, 16, 16), 7.0, np.float32))
        assert_same_blobs(CODEC, arrays, 1e-3, "rel")

    def test_value_budget_splits_batches(self, monkeypatch, passes):
        arrays = fields((16, 16, 16), 70, np.float32)
        blobs = CODEC.compress_many(arrays, 1e-3, "abs")
        assert passes == [64, 6]  # 64 × 4096 values fill the budget
        assert blobs[::23] == [CODEC.compress(arr, 1e-3, "abs") for arr in arrays[::23]]
        monkeypatch.setattr(sz_compressor, "BATCH_VALUES", 3 * 4096)
        del passes[:]
        CODEC.compress_many(arrays[:8], 1e-3, "abs")
        assert passes == [3, 3, 2]
        assert_same_blobs(CODEC, arrays[:8], 1e-3, "abs")

    def test_array_larger_than_budget_is_its_own_batch(self, monkeypatch, passes):
        monkeypatch.setattr(sz_compressor, "BATCH_VALUES", 100)
        arrays = fields((8, 8, 8), 3, np.float32)
        CODEC.compress_many(arrays, 1e-3, "abs")
        assert passes == [1, 1, 1]
        assert_same_blobs(CODEC, arrays, 1e-3, "abs")

    def test_batch_of_one_and_empty_call(self):
        assert_same_blobs(CODEC, [smooth_cube(12)], 1e-3, "abs")
        assert CODEC.compress_many([], 1e-3, "abs") == []

    def test_array_likes_are_coerced_like_compress(self):
        arrays = [[[1, 2], [3, 4]], np.arange(4).reshape(2, 2), [[0.5, 1.5], [2.5, 3.5]]]
        assert_same_blobs(CODEC, arrays, 1e-2, "abs")

    def test_custom_block_size_and_raw_payloads(self):
        codec = SZCompressor(block_size=100, zlib_level=0)
        assert_same_blobs(codec, fields((16, 16, 16), 4, np.float32), 1e-3, "abs")

    def test_timings_keys_match_single_compress(self):
        arrays = fields((8, 8, 8), 3, np.float32)
        many = TimingRecord()
        CODEC.compress_many(arrays, 1e-3, "abs", timings=many)
        one = CODEC.compress_with_stats(arrays[0], 1e-3, "abs")[1].timings
        assert set(one.spans) == set(many.spans) == {"predict", "encode", "lossless"}
        lone = TimingRecord()
        CODEC.compress_many(arrays[:1], 1e-3, "abs", timings=lone)
        assert set(lone.spans) == set(one.spans)


class TestBadMembers:
    @pytest.mark.parametrize(
        "spoil",
        [
            lambda arr: arr.__setitem__((1, 2, 3), np.nan),
            lambda arr: arr.__setitem__((0, 0, 0), -np.inf),
        ],
    )
    def test_non_finite_member_raises_what_compress_raises(self, spoil):
        arrays = fields((8, 8, 8), 4, np.float32)
        spoil(arrays[2])
        with pytest.raises(ValueError) as single:
            CODEC.compress(arrays[2], 1e-3, "abs")
        with pytest.raises(ValueError) as batch:
            CODEC.compress_many(arrays, 1e-3, "abs")
        assert str(batch.value) == str(single.value)

    def test_unsupported_ndim_member(self):
        good = [np.ones((2,) * 5) * k for k in range(2)]  # 5-D, batched together
        with pytest.raises(ValueError) as single:
            CODEC.compress(good[0], 1e-3, "abs")
        with pytest.raises(ValueError) as batch:
            CODEC.compress_many(fields((8, 8, 8), 2, np.float64) + good, 1e-3, "abs")
        assert str(batch.value) == str(single.value)
        assert "dimensionalities" in str(single.value)

    def test_lattice_overflow_names_the_member_that_overflows(self):
        arrays = [np.full(8, 1.0), np.full(8, 1e30), np.full(8, 2.0)]
        with pytest.raises(ValueError) as single:
            CODEC.compress(arrays[1], 1e-3, "abs")
        with pytest.raises(ValueError) as batch:
            CODEC.compress_many(arrays, 1e-3, "abs")
        assert str(batch.value) == str(single.value)
        assert "1e+30" in str(single.value)

    def test_bad_error_bound(self):
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError) as single:
                CODEC.compress(np.ones(4), bad, "abs")
            with pytest.raises(ValueError) as batch:
                CODEC.compress_many([np.ones(4), np.zeros(4)], bad, "abs")
            assert str(batch.value) == str(single.value)


class TestTAC:
    def test_level_workers_bytes_equal_serial(self):
        dataset = two_level_dataset(n=32, fine_fraction=0.8)
        codec = TACCompressor(brick_size=16)
        serial = codec.compress(dataset, 1e-3).to_bytes()
        assert codec.compress(dataset, 1e-3, level_workers=2).to_bytes() == serial

    def test_bricked_level_is_batched_and_equals_per_brick_calls(self, passes):
        dataset = two_level_dataset(n=32, fine_fraction=0.8)
        comp = TACCompressor(brick_size=16, force_strategy=Strategy.GSP).compress(dataset, 1e-3)
        assert 8 in passes  # the fine level's 2×2×2 bricks shared one pass
        meta = comp.meta["levels"][0]
        lvl = dataset.levels[0]
        padded = gsp_pad(lvl.masked_data(), lvl.mask, meta["unit_block"]).padded
        brick = padded[:16, :16, 16:32]
        assert comp.parts["L0/b1"] == CODEC.compress(brick, meta["eb_abs"], "abs")
