"""Unit tests for ghost-shell padding and zero filling.

``gsp_pad`` / ``zero_fill`` return the padding on the unit-block grid; the
cells are what their slabs hold (``tests.helpers.padded_grid``).  The
``pad_mask`` / ``n_padded_blocks`` bookkeeping is the grid-building oracle's
(``tests.preprocess_oracles.gsp_pad_grid``), which each grid must equal.
"""

import numpy as np
import pytest

import zlib

from repro.core.gsp import brick_boxes, bricks_touching, gsp_pad, zero_fill
from tests.helpers import (
    BrickTable,
    deserialize_brick_table,
    padded_grid,
    random_mask,
    serialize_brick_table,
    smooth_cube,
)
from tests.preprocess_oracles import gsp_pad_grid, zero_fill_grid


def crop(result, arr=None) -> np.ndarray:
    """The padded grid of ``result`` (or an array shaped like it) at the
    level's extents."""
    ox, oy, oz = result.orig_shape
    return (padded_grid(result) if arr is None else arr)[:ox, :oy, :oz]


def padded(data, mask, block, **kwargs):
    """``gsp_pad``'s result, its slab-materialized grid (one block thick
    slabs) and the grid-building oracle, which must agree bit for bit."""
    result = gsp_pad(data, mask, block, **kwargs)
    grid = padded_grid(result, block)
    oracle = gsp_pad_grid(data, mask, block, **kwargs)
    assert grid.tobytes() == oracle.padded.tobytes() and grid.dtype == oracle.padded.dtype
    return result, grid, oracle


def level_with_hole(n=12, block=4, value=5.0):
    """Full grid except one empty unit block in the middle."""
    mask = np.ones((n, n, n), dtype=bool)
    mask[4:8, 4:8, 4:8] = False
    data = np.full((n, n, n), np.float32(value))
    data[~mask] = 0
    return data, mask


class TestGSP:
    def test_valid_cells_untouched(self):
        data, mask = level_with_hole()
        result, grid, _oracle = padded(data, mask, 4)
        assert np.array_equal(crop(result, grid)[mask], data[mask])

    def test_hole_filled_with_neighbour_average(self):
        data, mask = level_with_hole(value=5.0)
        result, grid, _oracle = padded(data, mask, 4)
        hole = crop(result, grid)[4:8, 4:8, 4:8]
        # All six neighbours carry 5.0, so every pad contribution is 5.0.
        assert np.allclose(hole, 5.0)

    def test_pad_mask_marks_hole_only(self):
        data, mask = level_with_hole()
        result, _grid, oracle = padded(data, mask, 4)
        pad = crop(result, oracle.pad_mask)
        assert pad[4:8, 4:8, 4:8].all()
        assert not pad[mask].any()
        assert result.ghost_blocks.tolist() == [[1, 1, 1]]

    def test_n_padded_blocks(self):
        data, mask = level_with_hole()
        result, _grid, oracle = padded(data, mask, 4)
        assert oracle.n_padded_blocks == 1 == len(result.ghost_blocks)

    def test_isolated_empty_block_stays_zero(self):
        # An empty block with no non-empty neighbours must remain zero.
        n, block = 12, 4
        mask = np.zeros((n, n, n), dtype=bool)
        mask[:4, :4, :4] = True  # single occupied corner block
        data = np.where(mask, np.float32(3.0), np.float32(0))
        _result, grid, _oracle = padded(data, mask, block)
        # The far corner block touches no occupied block.
        far = grid[8:12, 8:12, 8:12]
        assert np.all(far == 0)

    def test_face_neighbour_gets_ghost(self):
        n, block = 8, 4
        mask = np.zeros((n, n, n), dtype=bool)
        mask[:4, :4, :4] = True
        data = np.where(mask, np.float32(2.0), np.float32(0))
        _result, grid, _oracle = padded(data, mask, block)
        # The x-face neighbour of the occupied block is padded with ~2.0.
        ghost = grid[4:8, :4, :4]
        assert np.allclose(ghost[ghost != 0], 2.0)
        assert (ghost != 0).any()

    def test_averaging_of_two_contributions(self):
        # Empty block flanked by value-2 and value-4 blocks along x.
        n, block = 12, 4
        mask = np.ones((n, n, n), dtype=bool)
        mask[4:8, :, :] = False
        data = np.zeros((n, n, n), dtype=np.float32)
        data[:4] = 2.0
        data[8:] = 4.0
        _result, grid, _oracle = padded(data, mask, block, pad_layers=None, avg_layers=1)
        middle = grid[4:8]
        # Full-depth padding from both faces overlaps everywhere: avg = 3.
        assert np.allclose(middle, 3.0)

    def test_thin_pad_layers(self):
        data, mask = level_with_hole()
        result, grid, _oracle = padded(data, mask, 4, pad_layers=1)
        hole = crop(result, grid)[4:8, 4:8, 4:8]
        # Only the outermost shell of the hole is padded.
        assert np.allclose(hole[0], 5.0)
        assert np.all(hole[1:3, 1:3, 1:3] == 0)

    def test_partial_blocks_use_valid_cells_only(self, rng):
        # A neighbour block that is only partially valid: the ghost value
        # must average only its valid cells.
        n, block = 8, 4
        mask = np.zeros((n, n, n), dtype=bool)
        mask[:4, :4, :4] = True
        mask[0, 0, 0] = True
        data = np.zeros((n, n, n), dtype=np.float32)
        data[mask] = 7.0
        mask_partial = mask.copy()
        mask_partial[1:4, :, :] = False  # boundary slab partially valid
        data_partial = np.where(mask_partial, data, np.float32(0))
        _result, grid, oracle = padded(data_partial, mask_partial, block)
        ghosts = grid[oracle.pad_mask]
        if ghosts.size:
            assert np.allclose(ghosts[ghosts != 0], 7.0)

    def test_rejects_bad_args(self):
        data, mask = level_with_hole()
        with pytest.raises(ValueError):
            gsp_pad(data, mask, 4, pad_layers=0)
        with pytest.raises(ValueError):
            gsp_pad(data, mask.reshape(12, 12, 12)[:, :, :6], 4)

    def test_fully_masked_level_is_noop(self):
        data = smooth_cube(8)
        mask = np.ones((8, 8, 8), dtype=bool)
        result, grid, oracle = padded(data, mask, 4)
        assert np.array_equal(crop(result, grid), data)
        assert oracle.n_padded_blocks == 0 == len(result.ghost_blocks)

    def test_random_masks_never_touch_valid_cells(self, rng):
        for seed in range(3):
            mask = random_mask((16, 16, 16), 0.7, seed=seed, block=4)
            data = np.where(mask, smooth_cube(16), np.float32(0))
            result, grid, oracle = padded(data, mask, 4)
            assert np.array_equal(crop(result, grid)[mask], data[mask])
            # Ghost values are bounded by the data range (means of values).
            ghosts = grid[oracle.pad_mask]
            assert ghosts.size == result.ghosts.size * 4**3
            if ghosts.size:
                assert ghosts.max() <= data.max() + 1e-5
                assert ghosts.min() >= data.min() - 1e-5


class TestZeroFill:
    def test_identity_on_masked_data(self):
        data, mask = level_with_hole()
        result = zero_fill(data, mask, 4)
        oracle = zero_fill_grid(data, mask, 4)
        assert np.array_equal(crop(result), data)
        assert padded_grid(result, 4).tobytes() == oracle.padded.tobytes()
        assert oracle.n_padded_blocks == 0 == len(result.ghost_blocks)
        assert not oracle.pad_mask.any()

    def test_pads_grid_to_block_multiple(self):
        mask = np.ones((5, 5, 5), dtype=bool)
        data = np.ones((5, 5, 5), dtype=np.float32)
        result = zero_fill(data, mask, 4)
        assert result.padded_shape == (8, 8, 8) == padded_grid(result).shape
        assert crop(result).shape == (5, 5, 5)


class TestGSPCompressibility:
    def test_gsp_reduces_boundary_cliffs(self):
        # The variance of the first difference across the hole boundary
        # should drop when ghosts replace zeros.
        n, block = 16, 4
        mask = random_mask((n, n, n), 0.8, seed=2, block=4)
        base = smooth_cube(n) + np.float32(10.0)  # offset so zeros are cliffs
        data = np.where(mask, base, np.float32(0))
        zf = padded_grid(zero_fill(data, mask, block))
        gsp = padded(data, mask, block)[1]
        def roughness(f):
            return sum(float(np.abs(np.diff(f, axis=a)).sum()) for a in range(3))
        assert roughness(gsp) < roughness(zf)


class TestBrickGeometry:
    """The regular brick tiling behind the GSP/ZF region index."""

    def test_boxes_tile_exactly(self):
        boxes = brick_boxes((10, 8, 4), 4)
        # 3 x 2 x 1 bricks, ragged on the first axis.
        assert len(boxes) == 6
        cover = np.zeros((10, 8, 4), dtype=np.int32)
        for box in boxes:
            cover[tuple(slice(lo, hi) for lo, hi in box)] += 1
        assert (cover == 1).all()

    def test_boxes_flat_c_order(self):
        boxes = brick_boxes((8, 8, 8), 4)
        assert boxes[0] == ((0, 4), (0, 4), (0, 4))
        assert boxes[1] == ((0, 4), (0, 4), (4, 8))  # z fastest
        assert boxes[2] == ((0, 4), (4, 8), (0, 4))

    def test_bricks_touching_matches_geometry(self):
        shape = (12, 12, 12)
        boxes = brick_boxes(shape, 4)
        roi = ((2, 6), (0, 4), (5, 12))
        hit = dict(bricks_touching(shape, 4, roi))
        expected = {
            i: box for i, box in enumerate(boxes)
            if all(lo < r_hi and r_lo < hi for (lo, hi), (r_lo, r_hi) in zip(box, roi))
        }
        assert hit == expected  # the same bricks, each with its own box
        assert hit  # the ROI really intersects something

    def test_bricks_touching_empty_intersection(self):
        # A box entirely outside the grid (clipped away) hits nothing.
        assert bricks_touching((8, 8, 8), 4, ((8, 9), (0, 8), (0, 8))) == []

    def test_eighth_domain_roi_touches_eighth_of_bricks(self):
        shape = (16, 16, 16)
        hit = bricks_touching(shape, 4, ((0, 8), (0, 8), (0, 8)))
        assert len(hit) == 8  # 2^3 of the 4^3 bricks

    def test_table_roundtrip(self):
        table = BrickTable(padded_shape=(20, 16, 12), orig_shape=(18, 15, 12), brick_size=8)
        back = deserialize_brick_table(serialize_brick_table(table))
        assert back == table
        assert back.grid() == (3, 2, 2)
        assert back.n_bricks() == 12
        assert back.boxes() == brick_boxes((20, 16, 12), 8)

    def test_table_rejects_corrupt_payloads(self):
        table = BrickTable(padded_shape=(8, 8, 8), orig_shape=(8, 8, 8), brick_size=4)
        payload = serialize_brick_table(table)
        with pytest.raises(ValueError, match="length"):
            deserialize_brick_table(zlib.compress(zlib.decompress(payload) + b"x"))
        with pytest.raises(ValueError, match="version"):
            deserialize_brick_table(
                zlib.compress(b"\xff\xff" + zlib.decompress(payload)[2:])
            )

    def test_rejects_bad_brick_size(self):
        with pytest.raises(ValueError, match="positive"):
            brick_boxes((8, 8, 8), 0)
        with pytest.raises(ValueError, match="positive"):
            bricks_touching((8, 8, 8), -2, ((0, 4), (0, 4), (0, 4)))
