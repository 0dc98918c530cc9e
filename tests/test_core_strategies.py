"""Unit + property tests for NaST, OpST, AKDTree: the extraction strategies.

The load-bearing invariant for every strategy: extracted sub-blocks are
disjoint and cover every occupied unit block exactly once, so scatter-back
reproduces the level bit-exactly (the lossy step is only ever the codec).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.akdtree import akdtree_extract, akdtree_plan
from repro.core.blocks import block_occupancy
from repro.core.nast import nast_extract
from repro.core.opst import compute_bs, opst_extract, opst_plan
from tests.helpers import random_mask, restore_extraction, smooth_cube


def brute_force_bs(occ: np.ndarray) -> np.ndarray:
    out = np.zeros(occ.shape, dtype=np.int32)
    for x in range(occ.shape[0]):
        for y in range(occ.shape[1]):
            for z in range(occ.shape[2]):
                s = 0
                while (
                    x - s >= 0
                    and y - s >= 0
                    and z - s >= 0
                    and occ[x - s : x + 1, y - s : y + 1, z - s : z + 1].all()
                ):
                    s += 1
                out[x, y, z] = s
    return out


def cover_from_cubes(cubes, shape):
    cover = np.zeros(shape, dtype=np.int32)
    for (ox, oy, oz), s in cubes:
        cover[ox : ox + s, oy : oy + s, oz : oz + s] += 1
    return cover


def cover_from_leaves(leaves, shape):
    cover = np.zeros(shape, dtype=np.int32)
    for (ox, oy, oz), (sx, sy, sz) in leaves:
        cover[ox : ox + sx, oy : oy + sy, oz : oz + sz] += 1
    return cover


class TestComputeBS:
    def test_matches_brute_force_random(self, rng):
        for _ in range(5):
            occ = rng.random((6, 7, 5)) < 0.6
            assert np.array_equal(compute_bs(occ), brute_force_bs(occ))

    def test_full_grid(self):
        occ = np.ones((4, 4, 4), dtype=bool)
        bs = compute_bs(occ)
        assert bs[3, 3, 3] == 4
        assert bs[0, 0, 0] == 1

    def test_empty_grid(self):
        assert compute_bs(np.zeros((3, 3, 3), dtype=bool)).sum() == 0

    def test_max_side_cap(self):
        occ = np.ones((4, 4, 4), dtype=bool)
        assert compute_bs(occ, max_side=2).max() == 2


class TestOpSTPlan:
    def test_cover_exact_on_random(self, rng):
        for density in (0.1, 0.5, 0.9):
            occ = rng.random((6, 6, 6)) < density
            cover = cover_from_cubes(opst_plan(occ), occ.shape)
            assert np.array_equal(cover > 0, occ)
            assert cover.max(initial=0) <= 1

    def test_full_grid_single_cube(self):
        occ = np.ones((4, 4, 4), dtype=bool)
        cubes = opst_plan(occ)
        assert len(cubes) == 1
        assert cubes[0] == ((0, 0, 0), 4)

    def test_empty_grid_no_cubes(self):
        assert opst_plan(np.zeros((4, 4, 4), dtype=bool)) == []

    def test_prefers_large_cubes(self):
        occ = np.zeros((6, 6, 6), dtype=bool)
        occ[:4, :4, :4] = True
        cubes = opst_plan(occ)
        sizes = sorted(s for _, s in cubes)
        assert max(sizes) == 4

    def test_non_cubic_grid(self, rng):
        occ = rng.random((3, 8, 5)) < 0.5
        cover = cover_from_cubes(opst_plan(occ), occ.shape)
        assert np.array_equal(cover > 0, occ)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.floats(0.05, 0.95), st.integers(0, 2**31))
    def test_property_exact_cover(self, side, density, seed):
        rng = np.random.default_rng(seed)
        occ = rng.random((side, side, side)) < density
        cover = cover_from_cubes(opst_plan(occ), occ.shape)
        assert np.array_equal(cover > 0, occ)
        assert cover.max(initial=0) <= 1


class TestAKDTreePlan:
    def test_cover_exact_on_random(self, rng):
        for density in (0.1, 0.5, 0.9):
            occ = rng.random((8, 8, 8)) < density
            cover = cover_from_leaves(akdtree_plan(occ), (8, 8, 8))
            assert np.array_equal(cover > 0, occ)
            assert cover.max(initial=0) <= 1

    def test_full_grid_single_leaf(self):
        occ = np.ones((8, 8, 8), dtype=bool)
        leaves = akdtree_plan(occ)
        assert leaves == [((0, 0, 0), (8, 8, 8))]

    def test_empty_grid(self):
        assert akdtree_plan(np.zeros((4, 4, 4), dtype=bool)) == []

    def test_pads_non_pow2_grids(self, rng):
        occ = rng.random((5, 6, 7)) < 0.5
        leaves = akdtree_plan(occ)
        cover = cover_from_leaves(leaves, (8, 8, 8))
        padded = np.zeros((8, 8, 8), dtype=bool)
        padded[:5, :6, :7] = occ
        assert np.array_equal(cover > 0, padded)

    def test_adaptive_beats_fixed_on_planar_mask(self):
        # A full half-space along y: adaptive splitting finds it with one
        # big leaf; fixed round-robin fragments it.
        occ = np.zeros((8, 8, 8), dtype=bool)
        occ[:, :4, :] = True
        adaptive = akdtree_plan(occ, adaptive=True)
        fixed = akdtree_plan(occ, adaptive=False)
        assert len(adaptive) <= len(fixed)
        assert max(np.prod(s) for _, s in adaptive) >= max(np.prod(s) for _, s in fixed)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 9), st.floats(0.05, 0.95), st.integers(0, 2**31), st.booleans())
    def test_property_exact_cover(self, side, density, seed, adaptive):
        rng = np.random.default_rng(seed)
        occ = rng.random((side, side, side)) < density
        leaves = akdtree_plan(occ, adaptive=adaptive)
        pow2 = 1 << (side - 1).bit_length()
        cover = cover_from_leaves(leaves, (pow2,) * 3)
        padded = np.zeros((pow2,) * 3, dtype=bool)
        padded[:side, :side, :side] = occ
        assert np.array_equal(cover > 0, padded)
        assert cover.max(initial=0) <= 1


class TestExtractRestore:
    @pytest.mark.parametrize(
        "extract", [nast_extract, opst_extract, akdtree_extract],
        ids=["nast", "opst", "akdtree"],
    )
    @pytest.mark.parametrize("density", [0.05, 0.4, 0.95])
    def test_masked_data_roundtrip(self, extract, density, rng):
        n, block = 16, 4
        mask = random_mask((n, n, n), density, seed=int(density * 100), block=2)
        data = np.where(mask, smooth_cube(n), np.float32(0))
        ext = extract(data, mask, block)
        out = restore_extraction(ext, dtype=data.dtype)
        assert out.shape == data.shape
        assert np.array_equal(np.where(mask, out, 0), data)

    @pytest.mark.parametrize(
        "extract", [nast_extract, opst_extract, akdtree_extract],
        ids=["nast", "opst", "akdtree"],
    )
    def test_extraction_covers_occupied_cells_once(self, extract, rng):
        n, block = 12, 4
        mask = random_mask((n, n, n), 0.5, seed=3)
        data = np.where(mask, smooth_cube(n), np.float32(0))
        ext = extract(data, mask, block)
        occupied_blocks = int(block_occupancy(mask, block).sum())
        assert ext.total_cells() == occupied_blocks * block**3

    @pytest.mark.parametrize(
        "extract", [nast_extract, opst_extract, akdtree_extract],
        ids=["nast", "opst", "akdtree"],
    )
    def test_empty_level(self, extract):
        data = np.zeros((8, 8, 8), dtype=np.float32)
        mask = np.zeros((8, 8, 8), dtype=bool)
        ext = extract(data, mask, 4)
        assert ext.n_blocks() == 0

    def test_non_divisible_grid_padding(self, rng):
        n = 10  # not a multiple of block 4
        mask = random_mask((n, n, n), 0.5, seed=9)
        data = np.where(mask, smooth_cube(n), np.float32(0))
        for extract in (nast_extract, opst_extract, akdtree_extract):
            out = restore_extraction(extract(data, mask, 4), dtype=data.dtype)
            assert out.shape == (n, n, n)
            assert np.array_equal(np.where(mask, out, 0), data)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes differ"):
            nast_extract(np.zeros((4, 4, 4)), np.zeros((4, 4, 2), dtype=bool), 2)

    def test_opst_boundary_fraction_below_nast(self, rng):
        # OpST's whole point: larger blocks => fewer boundary cells.
        n = 24
        mask = random_mask((n, n, n), 0.4, seed=5, block=8)
        data = np.where(mask, smooth_cube(n), np.float32(0))
        def boundary_cells(ext):
            total = 0
            for shape, arr in ext.groups.items():
                m = arr.shape[0]
                interior = max(shape[0] - 2, 0) * max(shape[1] - 2, 0) * max(shape[2] - 2, 0)
                total += m * (np.prod(shape) - interior)
            return total
        nast_b = boundary_cells(nast_extract(data, mask, 4))
        opst_b = boundary_cells(opst_extract(data, mask, 4))
        assert opst_b <= nast_b
