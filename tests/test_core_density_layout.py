"""Unit tests for the density filter, layout serialization, container, and
adaptive error-bound derivation."""

import numpy as np
import pytest

from repro.amr.hierarchy import AMRLevel
from repro.core import density as density_mod
from repro.core.adaptive_eb import suggest_scales, tempered_ratio, volume_upsample_rate
from repro.core.blocks import BlockExtraction
from repro.core.container import (
    CompressedDataset,
    pack_mask,
    resolve_global_eb,
    unpack_mask,
)
from repro.core.density import (
    DEFAULT_T1,
    DEFAULT_T2,
    Strategy,
    select_strategy,
    use_3d_baseline,
)
from repro.core.layout import deserialize_layout, serialize_layout
from repro.core.nast import nast_extract
from repro.engine import get_codec
from tests.helpers import random_mask, smooth_cube, two_level_dataset


class TestDensityFilter:
    def test_paper_thresholds(self):
        assert DEFAULT_T1 == 0.50 and DEFAULT_T2 == 0.60

    @pytest.mark.parametrize(
        "density,expected",
        [
            (0.0, Strategy.OPST),
            (0.23, Strategy.OPST),
            (0.499, Strategy.OPST),
            (0.50, Strategy.AKDTREE),
            (0.58, Strategy.AKDTREE),
            (0.599, Strategy.AKDTREE),
            (0.60, Strategy.GSP),
            (0.77, Strategy.GSP),
            (1.0, Strategy.GSP),
        ],
    )
    def test_selection_table(self, density, expected):
        assert select_strategy(density) is expected

    def test_thresholds_are_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(density_mod, "DEFAULT_T1", 0.2)
        monkeypatch.setattr(density_mod, "DEFAULT_T2", 0.4)
        assert select_strategy(0.1) is Strategy.OPST
        assert select_strategy(0.3) is Strategy.AKDTREE
        assert select_strategy(0.45) is Strategy.GSP
        assert use_3d_baseline(0.45) and not use_3d_baseline(0.35)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            select_strategy(1.5)

    def test_level_density(self):
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[0] = True
        level = AMRLevel(data=np.zeros((4, 4, 4), np.float32), mask=mask, level=0)
        assert level.density() == pytest.approx(0.25)
        empty = np.zeros((0, 0, 0), dtype=bool)
        assert AMRLevel(data=empty.astype(np.float32), mask=empty, level=0).density() == 0.0

    def test_baseline_rule(self):
        assert use_3d_baseline(0.64)
        assert use_3d_baseline(DEFAULT_T2)
        assert not use_3d_baseline(0.23)


class TestLayoutSerialization:
    def test_roundtrip(self, rng):
        mask = random_mask((12, 12, 12), 0.5, seed=1)
        data = np.where(mask, smooth_cube(12), np.float32(0))
        ext = nast_extract(data, mask, 4)
        blob = serialize_layout(ext)
        restored = deserialize_layout(blob)
        assert restored.padded_shape == ext.padded_shape
        assert restored.orig_shape == ext.orig_shape
        assert restored.block_size == ext.block_size
        for shape in ext.coords:
            assert np.array_equal(restored.coords[shape], ext.coords[shape])
            assert np.array_equal(restored.perms[shape], ext.perms[shape])

    def test_empty_extraction(self):
        ext = BlockExtraction(padded_shape=(4, 4, 4), orig_shape=(4, 4, 4), block_size=4)
        restored = deserialize_layout(serialize_layout(ext))
        assert restored.coords == {}

    def test_corrupt_layout_rejected(self, rng):
        import struct
        import zlib

        with pytest.raises(struct.error):
            deserialize_layout(zlib.compress(b"garbage"))

    def test_metadata_overhead_is_small(self, rng):
        # Paper: coordinates metadata ~0.1%; ours stays well below 5% even
        # on small grids.
        mask = random_mask((32, 32, 32), 0.3, seed=2, block=4)
        data = np.where(mask, smooth_cube(32), np.float32(0))
        ext = nast_extract(data, mask, 4)
        layout_bytes = len(serialize_layout(ext))
        payload_bytes = ext.total_cells() * 4
        assert layout_bytes < 0.05 * payload_bytes


class TestContainer:
    def test_mask_pack_roundtrip(self, rng):
        mask = random_mask((9, 9, 9), 0.4, seed=7)
        assert np.array_equal(unpack_mask(pack_mask(mask), mask.shape), mask)

    def test_mask_payload_too_short_rejected(self):
        blob = pack_mask(np.zeros((2, 2, 2), dtype=bool))
        with pytest.raises(ValueError, match="shorter"):
            unpack_mask(blob, (64, 64, 64))

    def test_accounting(self):
        comp = CompressedDataset(
            method="m", dataset_name="d", original_bytes=1000, n_values=250
        )
        comp.parts["payload"] = b"x" * 100
        comp.parts["mask/L0"] = b"y" * 50
        assert comp.compressed_bytes() == 150
        assert comp.compressed_bytes(include_masks=False) == 100
        assert comp.ratio() == pytest.approx(1000 / 150)
        assert comp.bit_rate(include_masks=False) == pytest.approx(8 * 100 / 250)

    def test_serialization_roundtrip(self):
        comp = CompressedDataset(
            method="tac", dataset_name="ds", original_bytes=10, n_values=2,
            meta={"k": [1, 2]},
        )
        comp.parts["a"] = b"alpha"
        comp.parts["b"] = b""
        restored = CompressedDataset.from_bytes(comp.to_bytes())
        assert restored.method == "tac"
        assert restored.parts == comp.parts
        assert restored.meta == {"k": [1, 2]}
        assert restored.original_bytes == 10

    def test_bad_blob_rejected(self):
        with pytest.raises(ValueError, match="not a CompressedDataset"):
            CompressedDataset.from_bytes(b"nope")

    def test_trailing_bytes_rejected(self):
        comp = CompressedDataset(method="m", dataset_name="d")
        with pytest.raises(ValueError, match="trailing"):
            CompressedDataset.from_bytes(comp.to_bytes() + b"!")

    def test_resolve_global_eb(self):
        ds = two_level_dataset()
        values = np.concatenate([lvl.values() for lvl in ds.levels])
        expected = 1e-3 * (values.max() - values.min())
        assert resolve_global_eb(ds, 1e-3, "rel") == pytest.approx(expected, rel=1e-6)
        assert resolve_global_eb(ds, 0.5, "abs") == 0.5
        with pytest.raises(ValueError, match="modes"):
            resolve_global_eb(ds, 1e-3, "pw_rel")


class TestAdaptiveEB:
    def test_volume_upsample_rate(self):
        assert volume_upsample_rate(0) == 1
        assert volume_upsample_rate(1) == 8
        assert volume_upsample_rate(2) == 64

    def test_tempered_ratio_is_sqrt(self):
        assert tempered_ratio(8.0) == pytest.approx(np.sqrt(8.0))
        with pytest.raises(ValueError):
            tempered_ratio(0.0)

    def test_paper_power_spectrum_ratio(self):
        # 2-level ratio-2 dataset: 1:1 ideal -> 8:1 upsample-aware -> 3:1.
        assert suggest_scales(2, "power_spectrum") == [3.0, 1.0]

    def test_paper_halo_finder_ratio(self):
        # 1:2 ideal -> 4:1 upsample-aware -> 2:1.
        assert suggest_scales(2, "halo_finder") == [2.0, 1.0]

    def test_unrounded_values(self):
        scales = suggest_scales(2, "power_spectrum", round_to_paper=False)
        assert scales[0] == pytest.approx(np.sqrt(8.0))

    def test_single_level_is_unit(self):
        assert suggest_scales(1, "power_spectrum") == [1.0]

    def test_multi_level_monotone(self):
        scales = suggest_scales(4, "power_spectrum")
        assert scales == sorted(scales, reverse=True)
        assert scales[-1] == 1.0

    def test_unknown_analysis_rejected(self):
        with pytest.raises(ValueError, match="unknown analysis"):
            suggest_scales(2, "weak_lensing")

    @pytest.mark.parametrize(
        "scales,message",
        [
            ([1.0], "per_level_scale needs 2 entries, got 1"),
            ([3.0, 0.0], "per_level_scale entries must be positive"),
            ([-1.0, 1.0], "per_level_scale entries must be positive"),
        ],
        ids=["wrong-length", "zero", "negative"],
    )
    @pytest.mark.parametrize("codec", ["tac", "1d"])
    def test_level_wise_compressors_reject_bad_scales(self, codec, scales, message):
        with pytest.raises(ValueError) as excinfo:
            get_codec(codec).compress(
                two_level_dataset(), 1e-3, mode="abs", per_level_scale=scales
            )
        assert str(excinfo.value) == message
