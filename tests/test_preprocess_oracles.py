"""The block-resolution pre-processes against their cell-resolution oracles.

``gsp_pad`` and ``opst_plan`` work on the unit-block grid; the
implementations they replaced live on in ``tests/preprocess_oracles.py``.
Equality here is *bit* equality — padded grids, pad masks, cube lists and
their order — because every blob, golden fixture and compression ratio is
a function of exactly those.
"""

import itertools

import numpy as np
import pytest

from repro.core.akdtree import akdtree_extract
from repro.core.blocks import block_counts, block_occupancy, collect_blocks
from repro.core.gsp import gsp_pad
from repro.core.nast import nast_extract
from repro.core.opst import opst_extract, opst_plan
from tests.helpers import random_mask
from tests.preprocess_oracles import gsp_pad_cells, opst_plan_full

#: Shapes that are / are not a multiple of the block, and grids with a
#: single block along one or two axes (NumPy walks those slabs in longer
#: contiguous rows, which the gathered slab sums must reproduce).
SHAPES = [(16, 16, 16), (13, 10, 7), (24, 8, 16), (24, 8, 8), (8, 24, 8), (9, 9, 20)]


def wild_values(shape, dtype, seed):
    """Values spread over twelve decades, so any change in summation order
    shows in the last bits of a float64 mean."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape)).astype(dtype)


def level(shape, block, dtype, seed, density=0.6, ragged=False):
    """A block-granular mask (AMR-like), optionally with cell-level holes
    so boundary slabs are only partly valid; data zero outside it."""
    mask = random_mask(shape, density, seed=seed, block=block)
    if ragged:
        mask &= np.random.default_rng(seed + 100).random(shape) < 0.7
    return np.where(mask, wild_values(shape, dtype, seed), dtype(0)), mask


def assert_same_padding(fast, oracle):
    assert fast.padded.dtype == oracle.padded.dtype
    assert fast.padded.tobytes() == oracle.padded.tobytes()
    assert fast.pad_mask.dtype == bool
    assert np.array_equal(fast.pad_mask, oracle.pad_mask)
    assert fast.n_padded_blocks == oracle.n_padded_blocks
    assert fast.orig_shape == oracle.orig_shape and fast.block_size == oracle.block_size


class TestGSPAgainstCellResolution:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", [3, 4, 8])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_seeded_random_masks(self, shape, block, dtype):
        for seed, pad, avg, ragged in itertools.product(
            range(2), (None, 1, block), (1, 2, block), (False, True)
        ):
            data, mask = level(shape, block, dtype, seed, ragged=ragged)
            kwargs = {"pad_layers": pad, "avg_layers": avg}
            assert_same_padding(
                gsp_pad(data, mask, block, **kwargs), gsp_pad_cells(data, mask, block, **kwargs)
            )

    @pytest.mark.parametrize("pad", [None, 1])
    @pytest.mark.parametrize(
        "fill", [0.0, 1.0], ids=["all-empty", "all-full"]
    )
    def test_uniform_levels(self, fill, pad):
        shape = (12, 12, 12)
        mask = np.full(shape, bool(fill))
        data = np.where(mask, wild_values(shape, np.float32, 3), np.float32(0))
        fast = gsp_pad(data, mask, 4, pad_layers=pad)
        assert_same_padding(fast, gsp_pad_cells(data, mask, 4, pad_layers=pad))
        assert fast.n_padded_blocks == 0 and not fast.pad_mask.any()

    def test_single_block_level(self):
        data, mask = level((5, 6, 7), 8, np.float64, 1, density=1.0, ragged=True)
        assert_same_padding(gsp_pad(data, mask, 8), gsp_pad_cells(data, mask, 8))

    @pytest.mark.parametrize("pad", [None, 2])
    def test_boundary_slab_without_valid_cells(self, pad):
        # The occupied block's only valid cells sit away from the face it
        # shares with the empty block: a NaN-free slab with zero valid
        # cells, which must contribute nothing (not a NaN, not a zero).
        mask = np.zeros((8, 8, 8), dtype=bool)
        mask[0, :4, :4] = True
        data = np.where(mask, np.float64(7.0), 0.0)
        fast = gsp_pad(data, mask, 4, pad_layers=pad, avg_layers=2)
        assert_same_padding(fast, gsp_pad_cells(data, mask, 4, pad_layers=pad, avg_layers=2))
        assert not fast.pad_mask[4:, :4, :4].any()  # the x-neighbour got nothing
        assert fast.pad_mask[:4, 4:, :4].any()  # the y-neighbour did
        assert np.isfinite(fast.padded).all()

    def test_memory_layout_of_the_input_does_not_matter(self):
        data, mask = level((16, 16, 16), 4, np.float64, 0, ragged=True)
        expected = gsp_pad(data, mask, 4)
        for view in (np.asfortranarray(data), np.repeat(data, 2, axis=2)[:, :, ::2]):
            assert not view.flags.c_contiguous
            assert_same_padding(gsp_pad(view, mask, 4), expected)

    def test_result_does_not_alias_the_input(self):
        data, mask = level((16, 16, 16), 4, np.float32, 0)
        before = data.copy()
        result = gsp_pad(data, mask, 4)
        assert result.n_padded_blocks and not np.shares_memory(result.padded, data)
        assert np.array_equal(data, before)


class TestOpSTAgainstFullRecompute:
    @pytest.mark.parametrize("shape", [(6, 6, 6), (9, 5, 7), (16, 16, 16), (1, 1, 1), (3, 1, 8)])
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.3, 0.6, 0.9, 1.0])
    def test_same_cubes_same_order(self, shape, density):
        for seed in range(6):
            occ = np.random.default_rng(seed).random(shape) < density
            assert opst_plan(occ) == opst_plan_full(occ)

    def test_overlapping_boxes(self):
        # Unions of boxes with pinholes: many cubes of size > 1 whose
        # extraction shrinks the cubes of anchors still to be visited.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            occ = np.zeros((14, 12, 13), dtype=bool)
            for _ in range(5):
                lo = [int(rng.integers(0, dim)) for dim in occ.shape]
                edge = int(rng.integers(1, 7))
                occ[lo[0] : lo[0] + edge, lo[1] : lo[1] + edge, lo[2] : lo[2] + edge] = True
            occ &= rng.random(occ.shape) < 0.97
            assert opst_plan(occ) == opst_plan_full(occ)

    def test_plan_leaves_its_argument_alone(self):
        occ = np.random.default_rng(0).random((8, 8, 8)) < 0.5
        before = occ.copy()
        opst_plan(occ)
        assert np.array_equal(occ, before)


class TestPreCollection:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("block", [3, 4, 8])
    def test_counts_and_occupancy(self, shape, block):
        mask = np.random.default_rng(5).random(shape) < 0.1
        padded = np.pad(mask, [(0, (-dim) % block) for dim in shape])
        nb = [dim // block for dim in padded.shape]
        blocks6 = padded.reshape(nb[0], block, nb[1], block, nb[2], block)
        counts = block_counts(mask, block)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, blocks6.sum(axis=(1, 3, 5)))
        assert np.array_equal(block_occupancy(mask, block), blocks6.any(axis=(1, 3, 5)))

    def test_one_collection_feeds_every_strategy(self):
        data, mask = level((13, 10, 7), 4, np.float32, 2, density=0.4)
        blocks = collect_blocks(data, mask, 4)
        assert blocks.data.shape == blocks.mask.shape == (16, 12, 8)
        assert blocks.orig_shape == (13, 10, 7)
        assert np.array_equal(blocks.occ, block_occupancy(mask, 4))
        for extract in (nast_extract, opst_extract, akdtree_extract):
            extraction = extract(data, mask, 4)
            assert extraction.orig_shape == (13, 10, 7) and extraction.block_size == 4
            assert np.array_equal(extraction.crop(extraction.reassemble()), data)

    def test_aligned_level_is_viewed_not_copied(self):
        data, mask = level((16, 16, 16), 4, np.float32, 0)
        blocks = collect_blocks(data, mask, 4)
        assert blocks.data is data and blocks.mask is mask

    @pytest.mark.parametrize("collector", [collect_blocks, gsp_pad, opst_extract, nast_extract])
    def test_bad_arguments(self, collector):
        data, mask = level((8, 8, 8), 4, np.float32, 0)
        with pytest.raises(ValueError):
            collector(data, mask[:, :, :4], 4)
        with pytest.raises((ValueError, TypeError)):
            collector(data, mask, 0)
