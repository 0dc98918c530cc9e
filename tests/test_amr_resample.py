"""Unit tests for up/down-sampling, reconstruction helpers, and AMR IO."""

from dataclasses import replace

import numpy as np
import pytest

from repro.amr.hierarchy import AMRLevel
from repro.amr.io import load_dataset, save_dataset
from repro.amr.reconstruct import (
    check_same_structure,
    max_level_errors,
    uniform_pair,
)
from repro.amr.upsample import coarsen_mask_all, downsample_mean, upsample
from tests.helpers import two_level_dataset


def downsample_take(data: np.ndarray, factor: int) -> np.ndarray:
    """Reference nearest down-sampling: the corner cell of each block."""
    return data[::factor, ::factor, ::factor]


def coarsen_mask_any(mask: np.ndarray, factor: int) -> np.ndarray:
    """Reference coarsening: a coarse cell is set if *any* child is set."""
    n = mask.shape[0] // factor
    return mask.reshape(n, factor, n, factor, n, factor).any(axis=(1, 3, 5))


def pointwise_errors(original, decompressed) -> list:
    """Reference per-level absolute errors of every stored value."""
    return [
        np.abs(lo.values().astype(np.float64) - ld.values().astype(np.float64))
        for lo, ld in zip(original.levels, decompressed.levels)
    ]


class TestUpsample:
    def test_factor_one_is_identity(self, rng):
        data = rng.standard_normal((4, 4, 4))
        assert upsample(data, 1) is np.asarray(data) or np.array_equal(upsample(data, 1), data)

    def test_replicates_values(self):
        data = np.arange(8, dtype=np.float64).reshape(2, 2, 2)
        up = upsample(data, 2)
        assert up.shape == (4, 4, 4)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert np.all(up[2 * i : 2 * i + 2, 2 * j : 2 * j + 2, 2 * k : 2 * k + 2] == data[i, j, k])

    def test_downsample_mean_inverts_upsample(self, rng):
        data = rng.standard_normal((4, 4, 4))
        assert np.allclose(downsample_mean(upsample(data, 2), 2), data)

    def test_downsample_mean_rejects_indivisible(self):
        with pytest.raises(ValueError, match="divisible"):
            downsample_mean(np.zeros((5, 5, 5)), 2)

    @pytest.mark.parametrize("factor", [2, 3])
    def test_upsample_corner_samples_are_the_input(self, rng, factor):
        data = rng.standard_normal((4, 4, 4))
        assert np.array_equal(downsample_take(upsample(data, factor), factor), data)

    def test_coarsen_all(self, rng):
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[0, 0, 0] = True  # one cell in the first 2x2x2 block
        assert not coarsen_mask_all(mask, 2)[0, 0, 0]
        mask[:2, :2, :2] = True
        assert coarsen_mask_all(mask, 2)[0, 0, 0]
        mask = rng.random((8, 8, 8)) < 0.8
        # De Morgan: all children set <=> no child unset.
        assert np.array_equal(coarsen_mask_all(mask, 2), ~coarsen_mask_any(~mask, 2))

    def test_upsample_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            upsample(np.zeros((2, 2, 2)), 0)


class TestReconstruct:
    def test_same_structure_accepts_clone(self):
        ds = two_level_dataset()
        check_same_structure(ds, replace(ds, levels=ds.levels))

    def test_same_structure_rejects_mask_change(self):
        ds = two_level_dataset()
        flipped = ds.levels[0].mask.copy()
        idx = tuple(np.argwhere(flipped)[0])
        flipped[idx] = False
        levels = [AMRLevel(data=ds.levels[0].data, mask=flipped, level=0), ds.levels[1]]
        with pytest.raises(ValueError, match="masks differ"):
            check_same_structure(ds, replace(ds, levels=levels))

    def test_same_structure_rejects_level_count(self):
        ds = two_level_dataset()
        single = replace(ds, levels=[ds.levels[0]])
        # Bypass dataset validation by comparing directly.
        with pytest.raises(ValueError, match="level count"):
            check_same_structure(ds, single)

    def test_max_level_errors_zero_for_identical(self):
        ds = two_level_dataset()
        assert max_level_errors(ds, replace(ds, levels=ds.levels)) == [0.0, 0.0]

    def test_max_level_errors_localized(self):
        ds = two_level_dataset()
        perturbed_data = ds.levels[0].data.copy()
        idx = tuple(np.argwhere(ds.levels[0].mask)[0])
        perturbed_data[idx] += 0.5
        levels = [
            AMRLevel(data=perturbed_data, mask=ds.levels[0].mask, level=0),
            ds.levels[1],
        ]
        perturbed = replace(ds, levels=levels)
        errs = max_level_errors(ds, perturbed)
        assert errs[0] == pytest.approx(0.5, rel=1e-5)
        assert errs[1] == 0.0
        assert errs == [float(e.max()) for e in pointwise_errors(ds, perturbed)]

    def test_uniform_pair_shapes(self):
        ds = two_level_dataset()
        a, b = uniform_pair(ds, replace(ds, levels=ds.levels))
        assert a.shape == b.shape == (ds.finest.n,) * 3


class TestIO:
    def test_roundtrip(self, tmp_path):
        ds = two_level_dataset(n=8)
        path = tmp_path / "toy.npz"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.name == ds.name
        assert loaded.field == ds.field
        assert loaded.n_levels == ds.n_levels
        for a, b in zip(ds.levels, loaded.levels):
            assert np.array_equal(a.data, b.data)
            assert np.array_equal(a.mask, b.mask)
        loaded.validate()

    def test_meta_preserved(self, tmp_path):
        ds = two_level_dataset()
        ds.meta["custom"] = [1, 2, 3]
        path = tmp_path / "meta.npz"
        save_dataset(ds, path)
        assert load_dataset(path).meta["custom"] == [1, 2, 3]

    def test_rejects_future_version(self, tmp_path, monkeypatch):
        import repro.amr.io as amr_io

        ds = two_level_dataset()
        path = tmp_path / "v.npz"
        monkeypatch.setattr(amr_io, "_FORMAT_VERSION", 999)
        save_dataset(ds, path)
        monkeypatch.setattr(amr_io, "_FORMAT_VERSION", 1)
        with pytest.raises(ValueError, match="version"):
            load_dataset(path)
