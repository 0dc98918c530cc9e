"""Partial decompression: the plan/execute read-path contracts.

The acceptance bar for the random-access refactor:

* ``decompress_level`` / ``decompress_levels`` / ``decompress_region``
  are **bit-identical** to slicing a full ``decompress`` — for every TAC
  strategy (OpST/AKDTree/NaST/GSP/ZF), every registry baseline, and the
  delegated hybrid;
* the read service's concurrent decode (``ArchiveReader`` over its
  ``PrefetchPipeline``, two decode workers) is bit-identical to
  ``codec.decompress`` on every level and a region of each;
* partial reads provably do *less* decode work: the lazy reader's
  part-access log shows a single-level decode touching a strict subset
  of the payload parts, and an ROI decode skipping non-intersecting
  block-strategy groups entirely;
* the ``store_masks=False`` + ``structure=`` path round-trips for TAC
  and every registry baseline (previously only the mask-stored path was
  exercised end-to-end);
* there is one read path: every codec × strategy × box × reader (the
  codec over eager or lazy parts, ``ArchiveReader`` cold, warm, degraded)
  returns the same bits and fetches the same parts
  (:class:`TestOneReadPath`).
"""

from __future__ import annotations

import gc
import random
import time
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.core.container import (
    MASK_PREFIX,
    CompressedDataset,
    LazyCompressedDataset,
    inflate_mask,
    pack_mask,
    unpack_mask,
    unpack_mask_box,
)
from repro.core.density import Strategy
from repro.core.gsp import brick_boxes
from repro.core.layout import blocks_in_region, deserialize_layout, layout_shapes
from repro.core.plan import PlanExecutorMixin, level_mask, normalize_region
from repro.core.tac import TACCompressor
from repro.engine import (
    codec_names,
    default_shard_opener,
    get_codec,
    supports_partial_decode,
)
from repro.serve import ArchiveReader, prefetch
from tests.helpers import retired_tac_layout, smooth_cube, two_level_dataset, write_archive

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


def _assert_concurrent_reads_match(codec, comp, root):
    """Every level, and ``REGION`` of each, served by a reader whose
    pipeline fetches on its I/O pool equals ``codec.decompress``'s."""
    full = codec.decompress(comp)
    head = write_archive(root / "archive.rpbt", {ENTRY: comp})
    with ArchiveReader(head, cache_bytes=0) as reader:
        for idx, lvl in enumerate(full.levels):
            _assert_levels_equal(lvl, reader.read_level(ENTRY, idx)[0])
            region, _stats = reader.read_region(ENTRY, idx, REGION)
            assert np.array_equal(region, lvl.data[REGION])


# ----------------------------------------------------------------------
# TAC: every strategy
# ----------------------------------------------------------------------
class TestTACPartialDecode:
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.value)
    def test_concurrent_reader_decode_bit_identical(self, dataset, strategy, tmp_path):
        tac = TACCompressor(force_strategy=strategy)
        _assert_concurrent_reads_match(tac, tac.compress(dataset, EB, mode="abs"), tmp_path)

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
        assert all(
            name.startswith("L0/") or name == f"{MASK_PREFIX}L0"
            for name in sub.part_names()
        )

    def test_level_subset_keeps_shared_units(self, dataset):
        """Monolithic codecs tag their single unit level=-1 (serves all
        levels); the plan of a concrete subset must keep it."""
        for name, shared in (("3d", "uniform"), ("zmesh", "stream")):
            codec = get_codec(name)
            comp = codec.compress(dataset, EB, mode="abs")
            sub = codec.build_decode_plan(comp, levels=[0])
            assert [u.level for u in sub.units if u.key == shared] == [-1]


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
    def test_concurrent_reader_brick_decode_bit_identical(self, dataset, strategy, tmp_path):
        _assert_concurrent_reads_match(*self._compressed(dataset, strategy), tmp_path)

    def test_brick_units_are_built_once_per_blob_on_first_touch(self, dataset):
        tac, comp = self._compressed(dataset, Strategy.GSP)
        lazy = LazyCompressedDataset.open(comp.to_bytes())
        box = normalize_region(REGION, (16, 16, 16))

        def bricks(blob, box):
            plan = tac.build_decode_plan(blob, levels=[0], box=box)
            return [u for u in plan.units if u.key.startswith("L0/b")]

        first = bricks(lazy, box)
        assert 0 < len(first) < 64
        assert lazy.parts.accessed() == set()  # planning still reads no payload
        again = bricks(lazy, box)
        assert all(a is b for a, b in zip(first, again)) and len(again) == len(first)
        # A wider box reuses the touched units and builds only the rest.
        whole = bricks(lazy, None)
        assert len(whole) == 64 and {id(u) for u in first} <= {id(u) for u in whole}
        # Another blob of the same bytes has its own units, equal in all
        # but their fetch closures.
        other = bricks(LazyCompressedDataset.open(comp.to_bytes()), box)
        assert [(u.key, u.box, u.sz_shape) for u in other] == [
            (u.key, u.box, u.sz_shape) for u in first
        ]
        assert not {id(u) for u in other} & {id(u) for u in first}

    def test_brick_plan_units_carry_boxes(self, dataset):
        tac, comp = self._compressed(dataset, Strategy.GSP)
        assert comp.meta["levels"][0]["bricks"]["n"] == 64  # 16^3 at 4^3 bricks
        assert comp.meta["levels"][0]["strategy_format"] == 2
        plan = tac.build_decode_plan(comp, levels=[0])
        brick_units = [u for u in plan.units if u.key.startswith("L0/b")]
        assert len(brick_units) == 64
        assert all(u.box is not None for u in brick_units)
        # A plan for an ROI holds exactly the bricks the ROI touches.
        box = normalize_region(REGION, (16, 16, 16))
        pruned = tac.build_decode_plan(comp, levels=[0], box=box)
        touched = {
            u.key for u in brick_units
            if all(lo < b_hi and b_lo < hi for (lo, hi), (b_lo, b_hi) in zip(u.box, box))
        }
        assert {u.key for u in pruned.units if u.box is not None} == touched
        assert 0 < len(touched) < 64

    def test_legacy_single_stream_layout_still_read(self, dataset):
        tac = TACCompressor(force_strategy=Strategy.GSP, brick_size=16)
        comp = retired_tac_layout(tac.compress(dataset, EB, mode="abs"), format1=True)
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

        level = comp.meta["levels"][0]
        padded_shape, size = tuple(level["padded_shape"]), level["bricks"]["size"]
        boxes = brick_boxes(padded_shape, size)
        assert len(boxes) == level["bricks"]["n"] == int(np.prod(level["bricks"]["grid"]))
        decoded_cells = 0
        for name in lazy.parts.accessed():
            if name.startswith("L0/b") and name != "L0/bricks":
                box = boxes[int(name[len("L0/b"):])]
                decoded_cells += int(np.prod([hi - lo for lo, hi in box]))
        aligned = [
            (spec.start // size * size, -(-spec.stop // size) * size) for spec in roi
        ]
        aligned_volume = int(np.prod([hi - lo for lo, hi in aligned]))
        assert 0 < decoded_cells <= aligned_volume
        assert decoded_cells < int(np.prod(padded_shape))

    def test_mixin_region_read_is_the_codecs_region_read(self, dataset):
        """`PlanExecutorMixin.decompress_region` is the only region reader:
        no codec overrides it, and it decodes just the touched brick."""
        assert "decompress_region" not in vars(TACCompressor)
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
        bricks = [u for u in plan.units if u.box is not None]
        # pad-only bricks are not planned even for the whole level
        assert 0 < len(bricks) < comp.meta["levels"][0]["bricks"]["n"]
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
        # Planning reads no payload: the groups are the plan's second
        # stage, chosen by the decoded layout.
        plan = tac.build_decode_plan(lazy, levels=[0], box=box)
        assert lazy.parts.accessed() == set()
        assert {u.key for u in plan.units} == {"L0/layout", f"{MASK_PREFIX}L0"}
        assert len(plan.refine({"L0/layout": extraction})) == 1
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
    def test_partial_bit_identical_to_full(self, dataset, name, tmp_path):
        codec = get_codec(name)
        comp = codec.compress(dataset, EB, mode="abs")
        full = codec.decompress(comp)
        for idx, lvl in enumerate(codec.decompress_levels(comp, range(dataset.n_levels))):
            _assert_levels_equal(full.levels[idx], lvl)
            region = codec.decompress_region(comp, idx, REGION)
            assert np.array_equal(region, full.levels[idx].data[REGION])
        _assert_concurrent_reads_match(codec, comp, tmp_path)

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
        plan = hybrid.codec_for(comp).build_decode_plan(comp)
        assert plan.part_names() == ["uniform", f"{MASK_PREFIX}L0", f"{MASK_PREFIX}L1"]

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


# ----------------------------------------------------------------------
# one read path: codec × strategy × box × reader
# ----------------------------------------------------------------------
def clustered_dataset() -> AMRDataset:
    """16³ fine level storing an 6×8×8 slab at the origin and one 4³ cube
    in the far corner — with 4-cell unit blocks: blocks half inside the
    slab (cells 6-7 along x are padding), two block shapes, and empty
    space no block covers."""
    refined = np.zeros((8, 8, 8), dtype=bool)
    refined[0:3, 0:4, 0:4] = True
    refined[6:8, 6:8, 6:8] = True
    fine_mask = np.repeat(np.repeat(np.repeat(refined, 2, 0), 2, 1), 2, 2)
    return AMRDataset(
        levels=[
            AMRLevel(data=np.where(fine_mask, smooth_cube(16, seed=11), np.float32(0)),
                     mask=fine_mask, level=0),
            AMRLevel(data=np.where(~refined, smooth_cube(8, seed=12), np.float32(0)),
                     mask=~refined, level=1),
        ],
        name="clustered",
    )


def dense_dataset() -> AMRDataset:
    """Fully refined: a dense 16³ finest level over an *empty* coarse one
    (what the §4.4 rule hands to the 3D baseline)."""
    return AMRDataset(
        levels=[
            AMRLevel(data=smooth_cube(16, seed=13), mask=np.ones((16,) * 3, dtype=bool), level=0),
            AMRLevel(data=np.zeros((8,) * 3, dtype=np.float32),
                     mask=np.zeros((8,) * 3, dtype=bool), level=1),
        ],
        name="dense",
    )


def _tac(strategy: Strategy, **kwargs):
    return lambda: TACCompressor(force_strategy=strategy, unit_block=4, **kwargs)


#: name → (codec factory, dataset factory, registry name it exercises)
READ_CASES = {
    "gsp-bricks": (_tac(Strategy.GSP, brick_size=4), clustered_dataset, "tac"),
    "zf-bricks": (_tac(Strategy.ZF, brick_size=4), clustered_dataset, "tac"),
    "gsp-shared-bricks": (_tac(Strategy.GSP, brick_size=4), clustered_dataset, "tac"),
    "gsp-format1-grid": (_tac(Strategy.GSP, brick_size=16), clustered_dataset, "tac"),
    "opst": (_tac(Strategy.OPST), clustered_dataset, "tac"),
    "akdtree": (_tac(Strategy.AKDTREE), clustered_dataset, "tac"),
    "nast": (_tac(Strategy.NAST), clustered_dataset, "tac"),
    "empty-level": (TACCompressor, dense_dataset, "tac"),
    "delegate": (lambda: get_codec("tac-hybrid"), dense_dataset, "tac-hybrid"),
    "1d": (lambda: get_codec("1d"), clustered_dataset, "1d"),
    "zmesh": (lambda: get_codec("zmesh"), clustered_dataset, "zmesh"),
    "3d": (lambda: get_codec("3d"), clustered_dataset, "3d"),
}

#: Cases whose blob is rewritten into a layout only readers still know.
RETIRED_LAYOUTS = {"gsp-shared-bricks": {"shared": True}, "gsp-format1-grid": {"format1": True}}

#: Boxes on the 16³ level of :func:`clustered_dataset` (halved on the 8³ one).
READ_BOXES = {
    "whole-level": ((0, 16), (0, 16), (0, 16)),
    "brick-aligned": ((0, 8), (0, 4), (4, 8)),
    "unaligned": ((1, 7), (2, 9), (3, 6)),
    "only-block-padding": ((6, 8), (0, 8), (0, 8)),
    "no-block": ((8, 12), (0, 4), (12, 16)),
}
ENTRY = "run/rho"


def _payloads(names) -> set:
    return {name for name in names if not name.startswith(MASK_PREFIX)}


class TestOneReadPath:
    """Every reader is the same plan and the same assembly: same bits as
    the slice of the full decode, same parts fetched."""

    @staticmethod
    def _build(name: str, root) -> SimpleNamespace:
        make_codec, make_dataset, _name = READ_CASES[name]
        codec = make_codec()
        comp = codec.compress(make_dataset(), EB, mode="abs")
        if name in RETIRED_LAYOUTS:
            comp = retired_tac_layout(comp, **RETIRED_LAYOUTS[name])
        write_archive(root / "archive.rpbt", {ENTRY: comp})
        return SimpleNamespace(
            name=name, codec=codec, comp=comp, blob=comp.to_bytes(),
            head=root / "archive.rpbt", full=codec.decompress(comp),
        )

    @pytest.fixture(scope="class", params=sorted(READ_CASES))
    def case(self, request, tmp_path_factory):
        return self._build(request.param, tmp_path_factory.mktemp(request.param))

    def test_cases_cover_every_registered_codec(self):
        assert {name for _c, _d, name in READ_CASES.values()} == set(codec_names())

    def test_case_premises(self, case):
        levels = {lm["level"]: lm for lm in case.comp.meta.get("levels", [])}
        if case.name == "delegate":
            assert case.comp.meta["delegated"] == "baseline_3d"
        if case.name == "empty-level":
            assert levels[1]["strategy"] == "empty"
        if case.name == "gsp-format1-grid":
            assert "L0/grid" in case.comp.parts and "bricks" not in levels[0]
        if case.name == "gsp-shared-bricks":
            assert {"L0/table", "L1/table"} < set(case.comp.parts)
            assert levels[0]["bricks"]["n"] == 64 and "shared_table" in levels[1]
        if case.name in ("opst", "akdtree"):
            assert levels[0]["n_groups"] >= 2

    @pytest.mark.parametrize("box_name", READ_BOXES)
    def test_every_reader_returns_the_slice_of_the_full_decode(self, case, box_name):
        for level, full in enumerate(case.full.levels):
            scale = 16 // full.shape[0]
            box = tuple((lo // scale, hi // scale) for lo, hi in READ_BOXES[box_name])
            expected = full.data[tuple(slice(lo, hi) for lo, hi in box)]

            def check(data):
                assert data.dtype == expected.dtype
                assert np.array_equal(data, expected)

            check(case.codec.decompress_region(case.comp, level, box))
            lazy = LazyCompressedDataset.open(case.blob)
            check(case.codec.decompress_region(lazy, level, box))
            with ArchiveReader(case.head) as reader:
                cold, cold_stats = reader.read_region(ENTRY, level, box)
                served = reader._entry(ENTRY).comp.parts.accessed()
                warm, warm_stats = reader.read_region(ENTRY, level, box)
                degraded, degraded_stats = reader.read_region(ENTRY, level, box, degraded=True)
            check(cold)
            check(warm)
            check(degraded)
            # The reader ran the codec's plan: same parts, nothing more.
            assert served == lazy.parts.accessed()
            assert cold_stats.cache_hits == 0 and cold_stats.cache_misses > 0
            assert warm_stats.cache_misses <= cold_stats.cache_misses
            assert degraded_stats.degraded and degraded_stats.errors == []

    def test_whole_level_box_is_the_level_read(self, case):
        for level, full in enumerate(case.full.levels):
            _assert_levels_equal(full, case.codec.decompress_level(case.comp, level))
            with ArchiveReader(case.head) as reader:
                _assert_levels_equal(full, reader.read_level(ENTRY, level)[0])
                _assert_levels_equal(full, reader.read_level(ENTRY, level)[0])  # warm

    @pytest.mark.parametrize("name", ["opst", "akdtree", "nast"])
    def test_block_strategy_roi_through_the_reader_decodes_only_its_groups(
        self, name, tmp_path
    ):
        case = self._build(name, tmp_path)
        n_groups = case.comp.meta["levels"][0]["n_groups"]

        def groups_read(box_name):
            # A fresh reader per ROI: its part log holds this read alone.
            with ArchiveReader(case.head, cache_bytes=0) as reader:
                data, _stats = reader.read_region(ENTRY, 0, READ_BOXES[box_name])
                accessed = reader._entry(ENTRY).comp.parts.accessed()
            return data, {n for n in accessed if n.startswith("L0/g")}, accessed

        _data, groups, _ = groups_read("brick-aligned")
        assert 0 < len(groups) and (len(groups) < n_groups or n_groups == 1)
        # Cells 6-7 along x lie in stored blocks but outside the mask.
        data, groups, _ = groups_read("only-block-padding")
        assert groups and not data.any()
        # Nothing to decode: only the first stream's header is peeked.
        _data, groups, accessed = groups_read("no-block")
        assert _payloads(accessed) == {"L0/layout", "L0/g0"}

    @pytest.mark.parametrize("codec_name", ["tac", "zmesh"])
    def test_maskless_field_of_a_step_reads_like_any_other(self, codec_name, tmp_path):
        """A field that takes its masks from the step's first entry: every
        box is the slice of its full decode, through the reader, the lazy
        archive, and the codec handed the masks as ``structure=``."""
        from repro.engine import LazyBatchArchive
        from repro.engine.archive import with_structure
        from repro.ingest import IngestSession

        rho = clustered_dataset()
        temp = AMRDataset(
            levels=[
                AMRLevel(data=lvl.data * np.float32(1.5), mask=lvl.mask, level=lvl.level)
                for lvl in rho.levels
            ],
            name=rho.name, field="temp",
        )
        options = (
            {"force_strategy": Strategy.GSP, "unit_block": 4, "brick_size": 4}
            if codec_name == "tac" else {}
        )
        with IngestSession(
            tmp_path / "step.rpbt", codec=codec_name, codec_options=options,
            error_bound=EB, mode="abs",
        ) as session:
            _holder, key = session.submit_step({"rho": rho, "temp": temp})
        codec = get_codec(codec_name)
        with LazyBatchArchive.open(tmp_path / "step.rpbt") as archive, ArchiveReader(
            tmp_path / "step.rpbt"
        ) as reader:
            assert not any(name.startswith(MASK_PREFIX) for name in archive.entry(key).parts)
            full = archive.decompress(key)
            for level, lvl in enumerate(full.levels):
                assert np.array_equal(lvl.mask, temp.levels[level].mask)
                view = with_structure(archive.entry(key), key, archive.entry)
                _assert_levels_equal(lvl, codec.decompress_level(view, level))
                _assert_levels_equal(lvl, reader.read_level(key, level)[0])
                scale = 16 // lvl.shape[0]
                for named in READ_BOXES.values():
                    box = tuple((lo // scale, hi // scale) for lo, hi in named)
                    expected = lvl.data[tuple(slice(lo, hi) for lo, hi in box)]
                    for data in (
                        reader.read_region(key, level, box)[0],
                        reader.read_region(key, level, box, degraded=True)[0],
                        codec.decompress_region(view, level, box),
                        codec.decompress_region(archive.entry(key), level, box, structure=temp),
                    ):
                        assert np.array_equal(data, expected)

    def test_bogus_level_is_one_value_error_everywhere(self, case):
        n_levels = len(case.full.levels)
        box = READ_BOXES["brick-aligned"]
        with ArchiveReader(case.head) as reader:
            for read in (
                lambda: case.codec.decompress_level(case.comp, n_levels),
                lambda: case.codec.decompress_region(case.comp, n_levels, box),
                lambda: reader.read_level(ENTRY, n_levels),
                lambda: reader.read_region(ENTRY, n_levels, box),
                lambda: reader.read_region(ENTRY, -1, box),
            ):
                with pytest.raises(ValueError, match=r"level indices \[-?\d\] out of range"):
                    read()


def test_warm_roi_read_allocates_the_window_not_the_level(tmp_path):
    """A warm 32³ ROI of a 128³ bricked level stitches 27 cached bricks:
    its peak is a few windows (< 2 MB), not the level's padded grid, its
    mask and a level-sized ``np.where`` (≈ 18 MB before)."""
    n = 128
    ds = AMRDataset(
        levels=[AMRLevel(data=smooth_cube(n, seed=1), mask=np.ones((n,) * 3, dtype=bool), level=0)],
        name="big",
    )
    tac = TACCompressor(force_strategy=Strategy.ZF, brick_size=16)
    comp = tac.compress(ds, 1e-2, mode="abs")
    write_archive(tmp_path / "big.rpbt", {ENTRY: comp})
    roi = ((40, 72), (41, 73), (42, 74))
    with ArchiveReader(tmp_path / "big.rpbt") as reader:
        reader.read_region(ENTRY, 0, roi)
        tracemalloc.start()
        try:
            data, stats = reader.read_region(ENTRY, 0, roi)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2 * 1024 * 1024
    assert stats.cache_misses == 0 and stats.cache_hits == 27 + 1  # bricks + mask
    assert np.array_equal(data, tac.decompress(comp).levels[0].data[40:72, 41:73, 42:74])


def test_read_blobs_and_readers_are_freed_without_the_cycle_collector(tmp_path):
    """The decode units kept on a blob hold its part store, not the blob:
    a blob read through ``decompress_region``, and a reader after
    ``read_region``, die as soon as they are dropped — with the cycle
    collector off — so a compress → read loop holds one blob at a time."""
    tac = TACCompressor(brick_size=4)
    comp = tac.compress(two_level_dataset(n=16, seed=5), EB, mode="abs")
    blob = comp.to_bytes()
    write_archive(tmp_path / "a.rpbt", {ENTRY: comp})
    box = ((1, 7), (2, 8), (3, 6))
    gc.collect()
    gc.disable()
    try:
        for read in (
            lambda: CompressedDataset.from_bytes(blob),
            lambda: LazyCompressedDataset.open(blob),
        ):
            blob_read = read()
            for level in (0, 1):
                tac.decompress_region(blob_read, level, box)
            assert tac.build_decode_plan(blob_read, levels=[1], box=box).units
            ref = weakref.ref(blob_read)
            del blob_read
            assert ref() is None
        with ArchiveReader(tmp_path / "a.rpbt") as reader:
            for level in (0, 1):
                reader.read_region(ENTRY, level, box)
            refs = [weakref.ref(reader), weakref.ref(reader._entry(ENTRY).comp)]
        del reader
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_cold_roi_read_peak_repeats_whatever_order_the_windows_land_in(tmp_path, monkeypatch):
    """A cold 32³ ROI is one decode batch of 27 bricks, cut by the plan:
    with shard reads delayed in a different shuffled order on every repeat
    the bytes are identical and the ``tracemalloc`` peaks agree within 3 %
    (batches re-formed per landing event spread them by 10-70 %)."""
    n = 64
    ds = AMRDataset(
        levels=[AMRLevel(data=smooth_cube(n, seed=2), mask=np.ones((n,) * 3, dtype=bool), level=0)],
        name="cold",
    )
    tac = TACCompressor(force_strategy=Strategy.ZF, brick_size=16)
    comp = tac.compress(ds, 1e-3, mode="abs")
    write_archive(tmp_path / "cold.rpbt", {ENTRY: comp})
    roi = ((9, 41), (10, 42), (11, 43))
    expected = tac.decompress(comp).levels[0].data[9:41, 10:42, 11:43]

    class Delayed:
        """A shard source whose reads return after a seeded random delay."""

        def __init__(self, source, rng):
            self.source, self.rng = source, rng
            self.label = source.label

        def read_at(self, offset, length):
            time.sleep(self.rng.choice((0.0, 0.002, 0.004, 0.006)))
            return self.source.read_at(offset, length)

        def close(self):
            self.source.close()

    # A coalescing gap of 0: a window per z-run of bricks, nine of them in flight.
    monkeypatch.setattr(prefetch, "COALESCE_GAP", 0)

    def cold_read(seed):
        plain = default_shard_opener(tmp_path)
        rng = random.Random(seed)
        with ArchiveReader(
            tmp_path / "cold.rpbt",
            shard_opener=lambda name: Delayed(plain(name), rng),
        ) as reader:
            data, stats = reader.read_region(ENTRY, 0, roi)
        assert stats.cache_misses == 27 + 1 and stats.n_fetches >= 9
        return data

    assert np.array_equal(cold_read(0), expected)  # also warms every lazy import
    peaks = []
    for seed in range(1, 6):
        tracemalloc.start()
        try:
            data = cold_read(seed)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.array_equal(data, expected)
    assert max(peaks) <= 1.03 * min(peaks), peaks


class TestLevelMaskBox:
    """``level_mask(..., box)`` unpacks the box alone and equals the slice
    of the whole mask — byte-aligned rows or not, aligned boxes or not."""

    BOXES = {
        (16, 16, 16): [((0, 16),) * 3, ((3, 11), (0, 5), (9, 16)), ((15, 16), (7, 8), (8, 9))],
        (12, 12, 12): [((0, 12),) * 3, ((1, 7), (2, 12), (5, 11)), ((11, 12), (0, 1), (3, 4))],
        (5, 7, 13): [((0, 5), (0, 7), (0, 13)), ((1, 4), (2, 6), (3, 12)), ((4, 5), (6, 7), (0, 13))],
        (3, 4, 24): [((0, 3), (0, 4), (0, 24)), ((1, 2), (1, 3), (7, 17))],
    }

    @pytest.mark.parametrize("shape", sorted(BOXES))
    def test_box_is_the_slice_of_the_full_unpack(self, shape):
        mask = np.random.default_rng(sum(shape)).random(shape) < 0.4
        payload = pack_mask(mask)
        assert np.array_equal(unpack_mask(payload, shape), mask)
        packed = inflate_mask(payload, shape)
        assert packed.nbytes == -(-mask.size // 8) and not packed.flags.writeable
        comp = SimpleNamespace(meta={"shapes": [list(shape)]})
        structure = SimpleNamespace(levels=[SimpleNamespace(mask=mask)])
        for box in self.BOXES[shape]:
            slices = tuple(slice(lo, hi) for lo, hi in box)
            got = unpack_mask_box(packed, shape, box)
            assert got.dtype == bool and np.array_equal(got, mask[slices])
            from_blob = level_mask(comp, {f"{MASK_PREFIX}L0": packed}, None, 0, box)
            assert np.array_equal(from_blob, mask[slices])
            assert np.array_equal(level_mask(comp, {}, structure, 0, box), mask[slices])

    def test_aligned_rows_unpack_only_the_box(self):
        shape = (128, 128, 128)
        packed = inflate_mask(pack_mask(np.ones(shape, dtype=bool)), shape)
        tracemalloc.start()
        try:
            box = unpack_mask_box(packed, shape, ((40, 72), (41, 73), (42, 74)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert box.all() and box.shape == (32, 32, 32)
        assert peak < 2 * 32 * 32 * 40  # the box's byte rows, not the 2 MiB level

    @pytest.mark.parametrize("degraded", [False, True])
    def test_reads_of_a_level_whose_rows_are_not_whole_bytes(self, tmp_path, degraded):
        ds = two_level_dataset(n=12, seed=4)  # 12³ and 6³: nz % 8 != 0 on both
        tac = TACCompressor(force_strategy=Strategy.GSP, brick_size=4)
        comp = tac.compress(ds, EB, mode="abs")
        full = tac.decompress(comp)
        write_archive(tmp_path / "odd.rpbt", {ENTRY: comp})
        with ArchiveReader(tmp_path / "odd.rpbt", degraded=degraded) as reader:
            for level, box in ((0, ((1, 7), (2, 12), (5, 11))), (1, ((0, 6), (1, 4), (2, 5)))):
                slices = tuple(slice(lo, hi) for lo, hi in box)
                for _pass in ("cold", "warm"):
                    data, stats = reader.read_region(ENTRY, level, box)
                    assert stats.errors == []
                    assert np.array_equal(data, full.levels[level].data[slices])
            lvl, _stats = reader.read_level(ENTRY, 0)
            assert np.array_equal(lvl.mask, ds.levels[0].mask)
            assert np.array_equal(lvl.data, full.levels[0].data)
