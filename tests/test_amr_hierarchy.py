"""Unit tests for AMR levels, datasets, and their invariants."""

from dataclasses import replace

import numpy as np
import pytest

from repro.amr.hierarchy import AMRDataset, AMRLevel
from tests.helpers import two_level_dataset


def make_level(n=8, density=0.5, level=0, seed=0):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n, n)) < density
    data = np.where(mask, rng.standard_normal((n, n, n)).astype(np.float32), np.float32(0))
    return AMRLevel(data=data, mask=mask, level=level)


class TestAMRLevel:
    def test_density(self):
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[:2] = True
        lvl = AMRLevel(data=np.ones((4, 4, 4), dtype=np.float32), mask=mask, level=0)
        assert lvl.density() == pytest.approx(0.5)

    def test_n_points_matches_mask(self):
        lvl = make_level()
        assert lvl.n_points() == int(lvl.mask.sum())

    def test_values_scan_order(self):
        lvl = make_level()
        assert np.array_equal(lvl.values(), lvl.data[lvl.mask])

    def test_masked_data_zeroes_invalid(self):
        lvl = make_level()
        masked = lvl.masked_data()
        assert np.all(masked[~lvl.mask] == 0)
        assert np.array_equal(masked[lvl.mask], lvl.data[lvl.mask])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="3D"):
            AMRLevel(data=np.zeros((4, 4)), mask=np.zeros((4, 4), dtype=bool), level=0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            AMRLevel(
                data=np.zeros((4, 4, 4)), mask=np.zeros((4, 4, 2), dtype=bool), level=0
            )

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError, match="non-negative"):
            AMRLevel(data=np.zeros((2, 2, 2)), mask=np.ones((2, 2, 2), dtype=bool), level=-1)


class TestAMRDataset:
    def test_validate_passes_on_exact_tiling(self):
        two_level_dataset().validate()

    def test_validate_catches_overlap(self):
        ds = two_level_dataset()
        bad_coarse = ds.levels[1].mask.copy()
        bad_coarse[~bad_coarse][:0] = True  # no-op; flip one refined cell instead
        bad_coarse = np.ones_like(bad_coarse)
        levels = [
            ds.levels[0],
            AMRLevel(data=ds.levels[1].data, mask=bad_coarse, level=1),
        ]
        with pytest.raises(ValueError, match="multiply covered"):
            replace(ds, levels=levels).validate()

    def test_validate_catches_hole(self):
        ds = two_level_dataset()
        bad_fine = ds.levels[0].mask.copy()
        bad_fine[tuple(np.argwhere(bad_fine)[0])] = False
        levels = [
            AMRLevel(data=ds.levels[0].data, mask=bad_fine, level=0),
            ds.levels[1],
        ]
        with pytest.raises(ValueError, match="uncovered"):
            replace(ds, levels=levels).validate()

    def test_rejects_wrong_level_order(self):
        lvl0 = make_level(8, level=0)
        lvl1 = make_level(4, level=0)  # wrong index
        with pytest.raises(ValueError, match="ordered finest-first"):
            AMRDataset(levels=[lvl0, lvl1])

    def test_rejects_wrong_grid_ratio(self):
        lvl0 = make_level(8, level=0)
        lvl1 = make_level(3, level=1)
        with pytest.raises(ValueError, match="ratio"):
            AMRDataset(levels=[lvl0, lvl1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one level"):
            AMRDataset(levels=[])

    def test_densities_sum_to_one_when_tiled(self):
        ds = two_level_dataset()
        assert sum(ds.densities()) == pytest.approx(1.0)

    def test_total_points(self):
        ds = two_level_dataset()
        assert ds.total_points() == sum(l.n_points() for l in ds.levels)

    def test_original_bytes_float32(self):
        ds = two_level_dataset()
        assert ds.original_bytes() == 4 * ds.total_points()

    def test_upsample_factor(self):
        ds = two_level_dataset()
        assert ds.upsample_factor(0) == 1
        assert ds.upsample_factor(1) == 2

    def test_to_uniform_respects_ownership(self):
        ds = two_level_dataset(n=8)
        uniform = ds.to_uniform()
        fine = ds.levels[0]
        assert np.array_equal(uniform[fine.mask], fine.data[fine.mask])
        # A coarse-owned cell holds its coarse value replicated.
        coarse = ds.levels[1]
        coords = np.argwhere(coarse.mask)
        ci, cj, ck = coords[0]
        block = uniform[2 * ci : 2 * ci + 2, 2 * cj : 2 * cj + 2, 2 * ck : 2 * ck + 2]
        assert np.all(block == coarse.data[ci, cj, ck])

    def test_summary_mentions_name_and_levels(self):
        ds = two_level_dataset()
        text = ds.summary()
        assert "toy2" in text and "2 level" in text
