"""Unit tests for unit-block utilities (occupancy, integral image, gather)."""

import numpy as np

from repro.core.blocks import (
    AXIS_PERMS,
    BlockExtraction,
    block_counts,
    block_occupancy,
    box_count,
    canonical_orientation,
    gather_blocks,
    integral_image,
    invert_perm,
    pad_to_blocks,
)
from tests.helpers import restore_extraction


class TestPadding:
    def test_no_padding_when_divisible(self):
        data = np.zeros((8, 8, 8))
        assert pad_to_blocks(data, 4) is data

    def test_pads_up_to_multiple(self):
        data = np.ones((5, 6, 7))
        padded = pad_to_blocks(data, 4)
        assert padded.shape == (8, 8, 8)
        assert padded[:5, :6, :7].sum() == data.sum()
        assert padded.sum() == data.sum()  # zero padding


class TestOccupancy:
    def test_empty_and_full_blocks(self):
        mask = np.zeros((8, 8, 8), dtype=bool)
        mask[:4, :4, :4] = True
        occ = block_occupancy(mask, 4)
        assert occ.shape == (2, 2, 2)
        assert occ[0, 0, 0] and occ.sum() == 1

    def test_partial_block_counts_as_occupied(self):
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[0, 0, 0] = True
        assert block_occupancy(mask, 4).all()

    def test_block_counts(self):
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[:2, :2, :2] = True
        counts = block_counts(mask, 2)
        assert counts[0, 0, 0] == 8
        assert counts.sum() == 8


class TestIntegralImage:
    def test_matches_brute_force(self, rng):
        occ = rng.random((5, 6, 7)) < 0.5
        table = integral_image(occ)
        for _ in range(20):
            lo = [rng.integers(0, d) for d in occ.shape]
            hi = [rng.integers(l, d) + 1 for l, d in zip(lo, occ.shape)]
            want = occ[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]].sum()
            got = box_count(table, tuple(lo), tuple(hi))
            assert got == want

    def test_vectorized_queries(self, rng):
        occ = rng.random((4, 4, 4)) < 0.5
        table = integral_image(occ)
        x1 = np.array([1, 2, 3])
        total = box_count(table, (0, 0, 0), (x1, 4, 4))
        for i, x in enumerate(x1):
            assert total[i] == occ[:x].sum()


class TestOrientation:
    def test_identity_for_sorted_shapes(self):
        canonical, perm_id = canonical_orientation((8, 4, 2))
        assert canonical == (8, 4, 2)
        assert AXIS_PERMS[perm_id] == (0, 1, 2)

    def test_sorts_descending(self):
        canonical, perm_id = canonical_orientation((2, 8, 4))
        assert canonical == (8, 4, 2)

    def test_invert_perm_roundtrip(self):
        for perm in AXIS_PERMS:
            inv = invert_perm(perm)
            assert tuple(perm[inv[i]] for i in range(3)) == (0, 1, 2)

    def test_transpose_consistency(self, rng):
        block = rng.standard_normal((2, 8, 4))
        canonical, perm_id = canonical_orientation(block.shape)
        perm = AXIS_PERMS[perm_id]
        rotated = block.transpose(perm)
        assert rotated.shape == canonical
        assert np.array_equal(rotated.transpose(invert_perm(perm)), block)


class TestGatherScatter:
    def test_gather_then_reassemble_is_identity(self, rng):
        data = rng.standard_normal((8, 8, 8)).astype(np.float32)
        origins = np.array([[0, 0, 0], [4, 4, 4]], dtype=np.int32)
        shape = (4, 4, 4)
        stacked = gather_blocks(data, origins, shape)
        ext = BlockExtraction(padded_shape=(8, 8, 8), orig_shape=(8, 8, 8), block_size=4)
        ext.groups[shape] = stacked
        ext.coords[shape] = origins
        ext.perms[shape] = np.zeros(2, dtype=np.uint8)
        out = restore_extraction(ext, dtype=np.float32)
        assert np.array_equal(out[:4, :4, :4], data[:4, :4, :4])
        assert np.array_equal(out[4:, 4:, 4:], data[4:, 4:, 4:])

    def test_gather_with_orientation(self, rng):
        data = rng.standard_normal((8, 8, 8)).astype(np.float32)
        in_shape = (2, 4, 8)
        canonical, perm_id = canonical_orientation(in_shape)
        stacked = gather_blocks(
            data, np.array([[0, 0, 0]], dtype=np.int32), canonical,
            np.array([perm_id], dtype=np.uint8),
        )
        assert stacked.shape == (1, *canonical)
        ext = BlockExtraction(padded_shape=(8, 8, 8), orig_shape=(8, 8, 8), block_size=2)
        ext.groups[canonical] = stacked
        ext.coords[canonical] = np.array([[0, 0, 0]], dtype=np.int32)
        ext.perms[canonical] = np.array([perm_id], dtype=np.uint8)
        out = restore_extraction(ext, dtype=np.float32)
        assert np.array_equal(out[:2, :4, :8], data[:2, :4, :8])

    def test_block_and_cell_counts(self):
        # ``n_blocks`` is TAC's level meta; ``total_cells`` what tacbench counts.
        ext = BlockExtraction(padded_shape=(4, 4, 4), orig_shape=(4, 4, 4), block_size=2)
        ext.groups[(2, 2, 2)] = np.zeros((3, 2, 2, 2), dtype=np.float32)
        ext.groups[(2, 2, 4)] = np.zeros((1, 2, 2, 4), dtype=np.float32)
        assert ext.n_blocks() == 4
        assert ext.total_cells() == 3 * 8 + 16
