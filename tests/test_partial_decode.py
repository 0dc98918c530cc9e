"""Partial/parallel decompression: the plan/execute read-path contracts.

The acceptance bar for the random-access refactor:

* ``decompress_level`` / ``decompress_levels`` / ``decompress_region``
  are **bit-identical** to slicing a full ``decompress`` — for every TAC
  strategy (OpST/AKDTree/NaST/GSP/ZF), every registry baseline, and the
  delegated hybrid;
* ``decode_workers > 1`` is bit-identical to serial;
* partial reads provably do *less* decode work: the lazy reader's
  part-access log shows a single-level decode touching a strict subset
  of the payload parts, and an ROI decode skipping non-intersecting
  block-strategy groups entirely;
* the ``store_masks=False`` + ``structure=`` path round-trips for TAC
  and every registry baseline (previously only the mask-stored path was
  exercised end-to-end).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.core.container import MASK_PREFIX, LazyCompressedDataset
from repro.core.density import Strategy
from repro.core.gsp import brick_boxes, deserialize_brick_table
from repro.core.layout import blocks_in_region, deserialize_layout, layout_shapes
from repro.core.plan import DecompressionPlan, PlanExecutorMixin, normalize_region
from repro.core.tac import TACCompressor
from repro.engine import get_codec, supports_partial_decode
from tests.helpers import smooth_cube, two_level_dataset

EB = 1e-3

STRATEGIES = [
    Strategy.OPST,
    Strategy.AKDTREE,
    Strategy.NAST,
    Strategy.GSP,
    Strategy.ZF,
]

REGION = (slice(2, 10), slice(0, 7), slice(5, 16))


@pytest.fixture(scope="module")
def dataset() -> AMRDataset:
    return two_level_dataset(n=16, fine_fraction=0.3, seed=7)


def _assert_levels_equal(a: AMRLevel, b: AMRLevel):
    assert a.level == b.level
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.data, b.data)


# ----------------------------------------------------------------------
# TAC: every strategy
# ----------------------------------------------------------------------
class TestTACPartialDecode:
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
    def test_level_and_region_bit_identical(self, dataset, strategy):
        tac = TACCompressor(force_strategy=strategy)
        comp = tac.compress(dataset, EB, mode="abs")
        full = tac.decompress(comp)
        for idx in range(dataset.n_levels):
            lvl = tac.decompress_level(comp, idx)
            _assert_levels_equal(full.levels[idx], lvl)
            region = tac.decompress_region(comp, idx, REGION)
            expected = full.levels[idx].data[REGION]
            assert np.array_equal(region, expected)

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
    def test_parallel_decode_bit_identical(self, dataset, strategy):
        tac = TACCompressor(force_strategy=strategy)
        comp = tac.compress(dataset, EB, mode="abs")
        serial = tac.decompress(comp)
        parallel = tac.decompress(comp, decode_workers=4)
        for a, b in zip(serial.levels, parallel.levels):
            _assert_levels_equal(a, b)
        region_serial = tac.decompress_region(comp, 0, REGION)
        region_parallel = tac.decompress_region(comp, 0, REGION, decode_workers=4)
        assert np.array_equal(region_serial, region_parallel)

    def test_levels_subset_order_preserved(self, dataset):
        tac = TACCompressor()
        comp = tac.compress(dataset, EB, mode="abs")
        full = tac.decompress(comp)
        subset = tac.decompress_levels(comp, [1, 0])
        assert [lvl.level for lvl in subset] == [1, 0]
        _assert_levels_equal(full.levels[1], subset[0])
        _assert_levels_equal(full.levels[0], subset[1])

    def test_level_index_validation(self, dataset):
        tac = TACCompressor()
        comp = tac.compress(dataset, EB, mode="abs")
        with pytest.raises(ValueError, match="out of range"):
            tac.decompress_level(comp, 5)
        with pytest.raises(ValueError, match="at least one level"):
            tac.decompress_levels(comp, [])

    def test_empty_level_assembles_to_zeros(self):
        """A level with no stored points decodes (and partial-decodes)."""
        n = 8
        fine_mask = np.ones((n, n, n), dtype=bool)
        coarse_mask = np.zeros((n // 2,) * 3, dtype=bool)
        ds = AMRDataset(
            levels=[
                AMRLevel(data=smooth_cube(n, seed=1), mask=fine_mask, level=0),
                AMRLevel(data=np.zeros((n // 2,) * 3, dtype=np.float32),
                         mask=coarse_mask, level=1),
            ],
            name="empty-coarse",
        )
        tac = TACCompressor()
        comp = tac.compress(ds, EB, mode="abs")
        full = tac.decompress(comp)
        lvl = tac.decompress_level(comp, 1)
        _assert_levels_equal(full.levels[1], lvl)
        assert lvl.n_points() == 0
        region = tac.decompress_region(comp, 1, (slice(0, 2), slice(0, 2), slice(0, 2)))
        assert region.shape == (2, 2, 2)
        assert not region.any()

    def test_plan_enumerates_only_requested_levels(self, dataset):
        tac = TACCompressor()
        comp = tac.compress(dataset, EB, mode="abs")
        plan = tac.build_decode_plan(comp)
        assert set(plan.part_names()) <= set(comp.parts)
        assert plan.levels() == [0, 1]
        sub = tac.build_decode_plan(comp, levels=[0])
        assert sub.levels() == [0]
        assert all(name.startswith("L0/") for name in sub.part_names())
        assert isinstance(plan.for_levels([1]), DecompressionPlan)
        assert plan.for_levels([1]).levels() == [1]

    def test_for_levels_keeps_shared_units(self, dataset):
        """Monolithic codecs tag their single unit level=-1 (serves all
        levels); a concrete subset must keep it."""
        for name in ("3d", "zmesh"):
            codec = get_codec(name)
            comp = codec.compress(dataset, EB, mode="abs")
            plan = codec.build_decode_plan(comp)
            assert plan.levels() == [-1]
            sub = plan.for_levels([0])
            assert len(sub) == 1
            assert sub.part_names() == plan.part_names()


# ----------------------------------------------------------------------
# brick-chunked GSP/ZF levels (strategy format 2)
# ----------------------------------------------------------------------
class TestGSPBrickPartialDecode:
    """The GSP/ZF region index: one part + one decode unit per brick."""

    PADDED = ("gsp", "zf")

    def _compressed(self, dataset, strategy, brick_size=4):
        tac = TACCompressor(force_strategy=strategy, brick_size=brick_size)
        return tac, tac.compress(dataset, EB, mode="abs")

    @pytest.mark.parametrize("strategy", [Strategy.GSP, Strategy.ZF], ids=lambda s: s.value)
    def test_multi_brick_bit_identity(self, dataset, strategy):
        tac, comp = self._compressed(dataset, strategy)
        assert comp.meta["levels"][0]["bricks"]["n"] == 64  # 16^3 at 4^3 bricks
        assert comp.meta["levels"][0]["strategy_format"] == 2
        full = tac.decompress(comp)
        for idx in range(dataset.n_levels):
            lvl = tac.decompress_level(comp, idx)
            _assert_levels_equal(full.levels[idx], lvl)
            region = tac.decompress_region(comp, idx, REGION)
            assert np.array_equal(region, full.levels[idx].data[REGION])

    @pytest.mark.parametrize("strategy", [Strategy.GSP, Strategy.ZF], ids=lambda s: s.value)
    def test_parallel_brick_decode_bit_identical(self, dataset, strategy):
        tac, comp = self._compressed(dataset, strategy)
        serial = tac.decompress(comp)
        parallel = tac.decompress(comp, decode_workers=4)
        for a, b in zip(serial.levels, parallel.levels):
            _assert_levels_equal(a, b)
        assert np.array_equal(
            tac.decompress_region(comp, 0, REGION),
            tac.decompress_region(comp, 0, REGION, decode_workers=4),
        )

    def test_brick_plan_units_carry_boxes(self, dataset):
        tac, comp = self._compressed(dataset, Strategy.GSP)
        plan = tac.build_decode_plan(comp, levels=[0])
        brick_units = [u for u in plan.units if u.key.startswith("L0/b")]
        assert len(brick_units) == 64
        assert all(u.box is not None for u in brick_units)
        # Pruning by the ROI keeps exactly the intersecting bricks.
        box = normalize_region(REGION, (16, 16, 16))
        pruned = plan.for_region(box)
        assert 0 < len(pruned) < len(plan)

    def test_legacy_single_stream_layout_still_written_and_read(self, dataset):
        tac = TACCompressor(force_strategy=Strategy.GSP, brick_size=None)
        comp = tac.compress(dataset, EB, mode="abs")
        assert "L0/grid" in comp.parts
        assert not any(name.startswith("L0/b") for name in comp.parts)
        assert "bricks" not in comp.meta["levels"][0]
        full = tac.decompress(comp)
        region = tac.decompress_region(comp, 0, REGION)
        assert np.array_equal(region, full.levels[0].data[REGION])

    @pytest.mark.parametrize("container_version", [1, 2, 3, 4, 5])
    def test_bricked_blob_roundtrips_every_container_version(
        self, dataset, container_version
    ):
        from tests.helpers import legacy_container_bytes

        tac, comp = self._compressed(dataset, Strategy.GSP)
        blob = (
            comp.to_bytes()
            if container_version == 5
            else legacy_container_bytes(comp, container_version)
        )
        lazy = LazyCompressedDataset.open(blob)
        assert lazy.container_version == container_version
        full = tac.decompress(comp)
        restored = tac.decompress(lazy)
        for a, b in zip(full.levels, restored.levels):
            _assert_levels_equal(a, b)
        # Re-serialization lands on the one written format, byte-stably.
        from repro.core.container import CompressedDataset

        assert CompressedDataset.from_bytes(blob).to_bytes() == comp.to_bytes()

    def test_roi_decodes_strictly_fewer_parts_and_bytes(self, dataset):
        """The acceptance criterion: for a sub-domain ROI on a GSP level,
        strictly fewer container parts are fetched and strictly fewer
        payload bytes decoded than a full decode — previously the whole
        grid was decoded and cropped."""
        tac, comp = self._compressed(dataset, Strategy.GSP)
        blob = comp.to_bytes()

        lazy_full = LazyCompressedDataset.open(blob)
        full = tac.decompress(lazy_full)
        full_parts = {n for n in lazy_full.parts.accessed() if not n.startswith(MASK_PREFIX)}

        roi = (slice(0, 8), slice(0, 8), slice(0, 8))  # 1/8 of the domain
        lazy_roi = LazyCompressedDataset.open(blob)
        region = tac.decompress_region(lazy_roi, 0, roi)
        roi_parts = {n for n in lazy_roi.parts.accessed() if not n.startswith(MASK_PREFIX)}

        assert np.array_equal(region, full.levels[0].data[roi])
        assert roi_parts < full_parts
        assert lazy_roi.parts.bytes_read < lazy_full.parts.bytes_read
        # 1/8-domain ROI on a 4^3 brick grid: 2^3 of 64 bricks.
        assert sum(1 for n in roi_parts if n.startswith("L0/b") and n != "L0/bricks") == 8

    def test_decoded_cells_bounded_by_brick_aligned_roi(self, dataset):
        """Satellite regression: an ROI read must decode at most the
        brick-aligned ROI volume, never the level volume."""
        tac, comp = self._compressed(dataset, Strategy.GSP)
        lazy = LazyCompressedDataset.open(comp.to_bytes())
        roi = (slice(2, 7), slice(3, 9), slice(1, 5))
        tac.decompress_region(lazy, 0, roi)

        table = deserialize_brick_table(comp.parts["L0/bricks"])
        boxes = brick_boxes(table.padded_shape, table.brick_size)
        decoded_cells = 0
        for name in lazy.parts.accessed():
            if name.startswith("L0/b") and name != "L0/bricks":
                box = boxes[int(name[len("L0/b"):])]
                decoded_cells += int(np.prod([hi - lo for lo, hi in box]))
        size = table.brick_size
        aligned = [
            (spec.start // size * size, -(-spec.stop // size) * size) for spec in roi
        ]
        aligned_volume = int(np.prod([hi - lo for lo, hi in aligned]))
        assert 0 < decoded_cells <= aligned_volume
        assert decoded_cells < int(np.prod(table.padded_shape))

    def test_generic_mixin_region_path_prunes_brick_units(self, dataset):
        """`PlanExecutorMixin.decompress_region` (the default every codec
        inherits) must prune prunable units itself — not materialize the
        level — when unit geometry is available."""
        tac, comp = self._compressed(dataset, Strategy.GSP)
        lazy = LazyCompressedDataset.open(comp.to_bytes())
        roi = (slice(0, 4), slice(0, 4), slice(0, 4))  # exactly one brick
        out = PlanExecutorMixin.decompress_region(tac, lazy, 0, roi)
        full = tac.decompress(comp)
        assert np.array_equal(out, full.levels[0].data[roi])
        touched = {
            n for n in lazy.parts.accessed()
            if n.startswith("L0/b") and n != "L0/bricks"
        }
        assert len(touched) == 1

    def test_pad_only_bricks_prunable_by_any_roi(self):
        """A brick wholly inside the block padding covers no level cells;
        its plan unit's clipped box must never intersect an ROI."""
        n = 6  # pads to 12 with unit_block=12 -> brick layers beyond shape
        mask = np.ones((n, n, n), dtype=bool)
        ds = AMRDataset(
            levels=[AMRLevel(data=smooth_cube(n, seed=9), mask=mask, level=0)],
            name="pad-brick",
        )
        tac = TACCompressor(force_strategy=Strategy.ZF, unit_block=12, brick_size=4)
        comp = tac.compress(ds, EB, mode="abs")
        plan = tac.build_decode_plan(comp)
        full_box = ((0, n), (0, n), (0, n))
        kept = plan.for_region(full_box)
        assert len(kept) < len(plan)  # pad-only bricks dropped even for a full ROI
        region = tac.decompress_region(comp, 0, tuple(slice(0, n) for _ in range(3)))
        assert np.array_equal(region, tac.decompress(comp).levels[0].data)


# ----------------------------------------------------------------------
# normalize_region: negative / out-of-range specs resolve or fail loudly
# ----------------------------------------------------------------------
class TestNormalizeRegion:
    SHAPE = (16, 16, 16)

    def test_plain_int_pairs(self):
        assert normalize_region(((2, 10), (0, 7), (5, 16)), self.SHAPE) == (
            (2, 10), (0, 7), (5, 16),
        )

    def test_negative_pairs_follow_python_indexing(self):
        assert normalize_region(((-8, -2), (0, -1), (-16, 16)), self.SHAPE) == (
            (8, 14), (0, 15), (0, 16),
        )

    def test_none_bounds_mean_full_extent(self):
        assert normalize_region(((None, 8), (4, None), (None, None)), self.SHAPE) == (
            (0, 8), (4, 16), (0, 16),
        )

    def test_negative_slices_follow_python_indexing(self):
        assert normalize_region(
            (slice(-8, -2), slice(None, -1), slice(-16, None)), self.SHAPE
        ) == ((8, 14), (0, 15), (0, 16))

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            normalize_region(((0, 17), (0, 16), (0, 16)), self.SHAPE)
        with pytest.raises(ValueError, match="out of range"):
            normalize_region(((-17, 4), (0, 16), (0, 16)), self.SHAPE)

    def test_oversized_slice_clamps_like_python(self):
        assert normalize_region(
            (slice(0, 10**9), slice(-99, None), slice(None)), self.SHAPE
        ) == ((0, 16), (0, 16), (0, 16))

    def test_empty_region_message_names_axis_and_bounds(self):
        with pytest.raises(ValueError, match=r"axis 1.*resolved to \[4, 4\)"):
            normalize_region((slice(0, 4), (4, 4), slice(0, 4)), self.SHAPE)
        with pytest.raises(ValueError, match="empty region"):
            normalize_region(((8, -12), (0, 4), (0, 4)), self.SHAPE)

    def test_non_int_bound_rejected(self):
        with pytest.raises(TypeError, match="axis 0"):
            normalize_region(((0.5, 4), (0, 4), (0, 4)), self.SHAPE)
        with pytest.raises(TypeError, match="int or None"):
            normalize_region(((True, 4), (0, 4), (0, 4)), self.SHAPE)

    def test_wrong_arity_and_step(self):
        with pytest.raises(ValueError, match="3 axis"):
            normalize_region((slice(0, 4), slice(0, 4)), self.SHAPE)
        with pytest.raises(ValueError, match="step 1"):
            normalize_region((slice(0, 4, 2), slice(0, 4), slice(0, 4)), self.SHAPE)

    def test_numpy_int_bounds_accepted(self):
        region = ((np.int64(2), np.int32(10)), (0, 7), (5, 16))
        assert normalize_region(region, self.SHAPE)[0] == (2, 10)


# ----------------------------------------------------------------------
# lazy access accounting: partial decode does strictly less work
# ----------------------------------------------------------------------
class TestAccessAccounting:
    def _payload_parts(self, names):
        return {n for n in names if not n.startswith(MASK_PREFIX)}

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
    def test_single_level_reads_strict_subset(self, dataset, strategy):
        tac = TACCompressor(force_strategy=strategy)
        blob = tac.compress(dataset, EB, mode="abs").to_bytes()

        lazy_full = LazyCompressedDataset.open(blob)
        tac.decompress(lazy_full)
        full_payloads = self._payload_parts(lazy_full.parts.accessed())

        lazy_one = LazyCompressedDataset.open(blob)
        tac.decompress_level(lazy_one, 0)
        one_payloads = self._payload_parts(lazy_one.parts.accessed())

        assert one_payloads < full_payloads  # strictly fewer SZ decodes
        assert all(name.startswith("L0/") for name in one_payloads)
        assert lazy_one.parts.bytes_read < lazy_full.parts.bytes_read

    def test_region_skips_non_intersecting_groups(self):
        """Two distant clusters of different cube sizes → two OpST groups;
        an ROI over one cluster must not decode the other's stream."""
        n = 16
        mask = np.zeros((n, n, n), dtype=bool)
        mask[0:8, 0:8, 0:8] = True       # 8^3 cube group
        mask[12:16, 12:16, 12:16] = True  # 4^3 cube group
        ds = AMRDataset(
            levels=[AMRLevel(data=smooth_cube(n, seed=2), mask=mask, level=0)],
            name="two-clusters",
        )
        tac = TACCompressor(force_strategy=Strategy.OPST, unit_block=4)
        comp = tac.compress(ds, EB, mode="abs")
        level_meta = comp.meta["levels"][0]
        assert level_meta["n_groups"] == 2, "test premise: two shape groups"

        blob = comp.to_bytes()
        region = (slice(0, 8), slice(0, 8), slice(0, 8))

        # The layout-level region index agrees the far group is untouched.
        extraction = deserialize_layout(comp.parts["L0/layout"])
        box = normalize_region(region, (n, n, n))
        hits = {
            shape: blocks_in_region(extraction, shape, box).size
            for shape in layout_shapes(extraction)
        }
        assert sum(1 for count in hits.values() if count) == 1

        lazy = LazyCompressedDataset.open(blob)
        roi = tac.decompress_region(lazy, 0, region)
        payloads = {
            name for name in lazy.parts.accessed()
            if name.startswith("L0/g")
        }
        assert len(payloads) == 1  # one of two group streams decoded

        full = tac.decompress(comp)
        assert np.array_equal(roi, full.levels[0].data[region])

    def test_region_outside_all_blocks_keeps_dtype(self):
        """An ROI intersecting no stored block returns zeros *in the
        dataset's dtype* — same as slicing the full reconstruction."""
        n = 16
        mask = np.zeros((n, n, n), dtype=bool)
        mask[0:4, 0:4, 0:4] = True
        ds = AMRDataset(
            levels=[
                AMRLevel(
                    data=smooth_cube(n, seed=4, dtype=np.float64), mask=mask, level=0
                )
            ],
            name="corner-only",
        )
        tac = TACCompressor(force_strategy=Strategy.OPST, unit_block=4)
        comp = tac.compress(ds, EB, mode="abs")
        region = (slice(8, 16), slice(8, 16), slice(8, 16))
        roi = tac.decompress_region(comp, 0, region)
        full_slice = tac.decompress(comp).levels[0].data[region]
        assert roi.dtype == full_slice.dtype == np.float64
        assert np.array_equal(roi, full_slice)
        assert not roi.any()


# ----------------------------------------------------------------------
# baselines and the hybrid: same API, same identities
# ----------------------------------------------------------------------
class TestRegistryPartialDecode:
    CODECS = ("tac", "tac-hybrid", "1d", "zmesh", "3d")

    @pytest.mark.parametrize("name", CODECS)
    def test_supports_partial_decode(self, name):
        assert supports_partial_decode(get_codec(name))

    @pytest.mark.parametrize("name", CODECS)
    def test_partial_bit_identical_to_full(self, dataset, name):
        codec = get_codec(name)
        comp = codec.compress(dataset, EB, mode="abs")
        full = codec.decompress(comp)
        parallel = codec.decompress(comp, decode_workers=4)
        for a, b in zip(full.levels, parallel.levels):
            _assert_levels_equal(a, b)
        for idx in range(dataset.n_levels):
            lvl = codec.decompress_level(comp, idx)
            _assert_levels_equal(full.levels[idx], lvl)
            region = codec.decompress_region(comp, idx, REGION, decode_workers=2)
            assert np.array_equal(region, full.levels[idx].data[REGION])

    def test_hybrid_delegation_forwards_partial_reads(self):
        """A dense dataset delegates to the 3D baseline; the partial API
        must follow the delegation, not read TAC-shaped parts."""
        n = 8
        fine_mask = np.ones((n, n, n), dtype=bool)
        coarse_mask = np.zeros((n // 2,) * 3, dtype=bool)
        dense = AMRDataset(
            levels=[
                AMRLevel(data=smooth_cube(n, seed=3), mask=fine_mask, level=0),
                AMRLevel(data=np.zeros((n // 2,) * 3, dtype=np.float32),
                         mask=coarse_mask, level=1),
            ],
            name="dense",
        )
        hybrid = get_codec("tac-hybrid")
        comp = hybrid.compress(dense, EB, mode="abs")
        assert comp.meta.get("delegated") == "baseline_3d"
        full = hybrid.decompress(comp)
        lvl = hybrid.decompress_level(comp, 0)
        _assert_levels_equal(full.levels[0], lvl)
        region = hybrid.decompress_region(comp, 0, REGION)
        assert np.array_equal(region, full.levels[0].data[REGION])
        plan = hybrid.build_decode_plan(comp)
        assert plan.part_names() == ["uniform"]

    def test_lazy_single_level_reads_fewer_parts_1d(self, dataset):
        codec = get_codec("1d")
        blob = codec.compress(dataset, EB, mode="abs").to_bytes()
        lazy = LazyCompressedDataset.open(blob)
        codec.decompress_level(lazy, 1)
        assert lazy.parts.accessed() == {"L1/values", f"{MASK_PREFIX}L1"}


# ----------------------------------------------------------------------
# store_masks=False + structure= (all codecs)
# ----------------------------------------------------------------------
class TestStructureSuppliedMasks:
    CODECS = ("tac", "1d", "zmesh", "3d")

    @pytest.mark.parametrize("name", CODECS)
    def test_maskless_roundtrip_matches_masked(self, dataset, name):
        masked = get_codec(name).compress(dataset, EB, mode="abs")
        bare = get_codec(name, store_masks=False).compress(dataset, EB, mode="abs")
        assert not any(p.startswith(MASK_PREFIX) for p in bare.parts)
        assert bare.compressed_bytes() < masked.compressed_bytes()

        reference = get_codec(name).decompress(masked)
        restored = get_codec(name).decompress(bare, structure=dataset)
        for a, b in zip(reference.levels, restored.levels):
            _assert_levels_equal(a, b)

    @pytest.mark.parametrize("name", CODECS)
    def test_maskless_partial_decode_with_structure(self, dataset, name):
        codec = get_codec(name, store_masks=False)
        comp = codec.compress(dataset, EB, mode="abs")
        full = codec.decompress(comp, structure=dataset)
        lvl = codec.decompress_level(comp, 0, structure=dataset)
        _assert_levels_equal(full.levels[0], lvl)
        region = codec.decompress_region(comp, 0, REGION, structure=dataset)
        assert np.array_equal(region, full.levels[0].data[REGION])

    @pytest.mark.parametrize("name", CODECS)
    def test_maskless_without_structure_fails_loudly(self, dataset, name):
        codec = get_codec(name, store_masks=False)
        comp = codec.compress(dataset, EB, mode="abs")
        with pytest.raises(ValueError, match="masks were not stored"):
            codec.decompress(comp)

    def test_maskless_roundtrip_serialized(self, dataset):
        """The maskless path survives a full serialize/deserialize cycle."""
        codec = get_codec("tac", store_masks=False)
        blob = codec.compress(dataset, EB, mode="abs").to_bytes()
        lazy = LazyCompressedDataset.open(blob)
        restored = codec.decompress(lazy, structure=dataset)
        reference = codec.decompress(
            get_codec("tac").compress(dataset, EB, mode="abs")
        )
        for a, b in zip(reference.levels, restored.levels):
            _assert_levels_equal(a, b)
