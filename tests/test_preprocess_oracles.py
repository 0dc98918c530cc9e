"""The pre-processes and the level assembly against their oracles.

``gsp_pad`` and ``opst_plan`` work on the unit-block grid, and GSP/ZF
write their padded grid one slab at a time; the block strategies read raw
level data and mask only the blocks they gather; the assembly masks each
sub-block, not the window, and stitches GSP/ZF bricks by per-axis slices.  The implementations they
replaced live on in ``tests/preprocess_oracles.py``.  Equality here is
*bit* equality — padded grids, pad masks, cube lists and their order,
stacked groups, assembled levels — because every blob, golden fixture and
compression ratio is a function of exactly those.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amr.hierarchy import AMRLevel
from repro.core.akdtree import akdtree_extract
from repro.core.blocks import block_counts, block_occupancy, collect_blocks
from repro.core.density import Strategy
from repro.core.gsp import gsp_pad, zero_fill
from repro.core.layout import deserialize_layout, layout_shapes, serialize_layout
from repro.core.nast import nast_extract
from repro.core.opst import opst_extract, opst_plan
from repro.core.plan import level_box, region_slices
from repro.core.tac import (
    TACCompressor,
    _assemble_box,
    _brick_name,
    _bricked,
    _encoder_rec,
    _stitch_bricks,
    _touched_bricks,
)
from repro.serve import ArchiveReader
from tests.helpers import padded_grid, random_mask, restore_extraction, write_archive
from tests.preprocess_oracles import (
    assemble_putmask,
    gsp_pad_cells,
    gsp_pad_grid,
    masked_cube_extract,
    opst_plan_full,
    stitch_bricks_window,
    zero_fill_grid,
)
from tests.test_partial_decode import clustered_dataset

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
    """``fast`` (a ``gsp_pad`` / ``zero_fill`` result) writes ``oracle``'s
    padded grid, whatever slabs it is materialized in, and reaches the
    blocks its ``pad_mask`` marks."""
    block = fast.block_size
    for size in (None, block, 2 * block + 1):
        grid = padded_grid(fast, size)
        assert grid.dtype == oracle.padded.dtype
        assert grid.tobytes() == oracle.padded.tobytes()
    assert oracle.pad_mask.dtype == bool
    nb = tuple(dim // block for dim in oracle.pad_mask.shape)
    reached = oracle.pad_mask.reshape(nb[0], block, nb[1], block, nb[2], block).any(axis=(1, 3, 5))
    assert np.array_equal(fast.ghost_blocks, np.argwhere(reached))
    assert len(fast.ghost_blocks) == oracle.n_padded_blocks
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
            oracle = gsp_pad_cells(data, mask, block, **kwargs)
            assert_same_padding(gsp_pad(data, mask, block, **kwargs), oracle)
            grid = gsp_pad_grid(data, mask, block, **kwargs)
            assert grid.padded.tobytes() == oracle.padded.tobytes()
            assert np.array_equal(grid.pad_mask, oracle.pad_mask)
            assert grid.n_padded_blocks == oracle.n_padded_blocks

    @pytest.mark.parametrize("pad", [None, 1])
    @pytest.mark.parametrize(
        "fill", [0.0, 1.0], ids=["all-empty", "all-full"]
    )
    def test_uniform_levels(self, fill, pad):
        shape = (12, 12, 12)
        mask = np.full(shape, bool(fill))
        data = np.where(mask, wild_values(shape, np.float32, 3), np.float32(0))
        fast = gsp_pad(data, mask, 4, pad_layers=pad)
        oracle = gsp_pad_cells(data, mask, 4, pad_layers=pad)
        assert_same_padding(fast, oracle)
        assert len(fast.ghost_blocks) == 0 and not oracle.pad_mask.any()

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
        oracle = gsp_pad_cells(data, mask, 4, pad_layers=pad, avg_layers=2)
        assert_same_padding(fast, oracle)
        assert not oracle.pad_mask[4:, :4, :4].any()  # the x-neighbour got nothing
        assert oracle.pad_mask[:4, 4:, :4].any()  # the y-neighbour did
        assert [1, 0, 0] not in fast.ghost_blocks.tolist()
        assert [0, 1, 0] in fast.ghost_blocks.tolist()
        assert np.isfinite(padded_grid(fast)).all()

    def test_memory_layout_of_the_input_does_not_matter(self):
        data, mask = level((16, 16, 16), 4, np.float64, 0, ragged=True)
        expected = gsp_pad_cells(data, mask, 4)
        for view in (np.asfortranarray(data), np.repeat(data, 2, axis=2)[:, :, ::2]):
            assert not view.flags.c_contiguous
            assert_same_padding(gsp_pad(view, mask, 4), expected)

    def test_result_does_not_alias_the_input(self):
        data, mask = level((16, 16, 16), 4, np.float32, 0)
        before = data.copy()
        result = gsp_pad(data, mask, 4)
        grid = padded_grid(result)
        assert len(result.ghost_blocks) and not np.shares_memory(grid, data)
        assert np.array_equal(data, before)

    @pytest.mark.parametrize("shape", [(16, 16, 16), (13, 10, 7)])
    def test_junk_outside_the_mask(self, shape):
        data, mask = level(shape, 4, np.float32, 2, ragged=True)
        junk = with_junk(data, mask, 2)
        assert_same_padding(gsp_pad(junk, mask, 4), gsp_pad_cells(data, mask, 4))
        assert_same_padding(zero_fill(junk, mask, 4), zero_fill_grid(data, mask, 4))


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
            assert np.array_equal(restore_extraction(extraction), data)

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


# ----------------------------------------------------------------------
# block strategies read raw level data and mask only their blocks
# ----------------------------------------------------------------------
EXTRACTORS = {"opst": opst_extract, "akdtree": akdtree_extract, "nast": nast_extract}
JUNK = (np.nan, np.inf, -np.inf, 1e30)


def with_junk(data, mask, seed):
    """``data`` with NaN, ±Inf and 1e30 written into every non-stored cell."""
    out = np.array(data, copy=True)
    picks = np.random.default_rng(seed).integers(0, len(JUNK), int(np.count_nonzero(~mask)))
    out[~mask] = np.asarray(JUNK, dtype=out.dtype)[picks]
    return out


@st.composite
def sparse_levels(draw):
    """``(data with junk outside the mask, mask, unit block)``: shapes that
    need not be block multiples, masks empty, full, single-cell, blocky or
    blocky with holes."""
    block = draw(st.integers(2, 8))
    shape = tuple(draw(st.integers(1, 20)) for _ in range(3))
    kind = draw(st.sampled_from(["empty", "full", "single", "blocky", "holes"]))
    seed = draw(st.integers(0, 2**16))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(seed)
    mask = np.full(shape, kind == "full")
    if kind == "single":
        mask[tuple(int(rng.integers(0, dim)) for dim in shape)] = True
    elif kind in ("blocky", "holes"):
        mask = random_mask(shape, float(rng.uniform(0.1, 0.9)), seed=seed, block=block)
        if kind == "holes":
            mask &= rng.random(shape) < 0.7
    return with_junk(wild_values(shape, dtype, seed), mask, seed), mask, block


def assert_same_extraction(fast, oracle):
    assert fast.padded_shape == oracle.padded_shape
    assert fast.orig_shape == oracle.orig_shape and fast.block_size == oracle.block_size
    assert list(fast.groups) == list(oracle.groups)
    for shape in oracle.groups:
        for got, want in (
            (fast.groups[shape], oracle.groups[shape]),
            (fast.coords[shape], oracle.coords[shape]),
            (fast.perms[shape], oracle.perms[shape]),
        ):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestExtractionAgainstTheMaskedCube:
    @settings(max_examples=150, deadline=None)
    @given(level=sparse_levels(), name=st.sampled_from(sorted(EXTRACTORS)))
    def test_raw_data_extracts_like_the_masked_cube(self, level, name):
        data, mask, block = level
        assert_same_extraction(
            EXTRACTORS[name](data, mask, block), masked_cube_extract(name, data, mask, block)
        )

    def test_akdtree_grown_grid_is_recorded_not_copied(self):
        # 10×5×3 blocks: the k-d grid is 16³ blocks, far past the level's.
        shape, block = (20, 9, 5), 2
        mask = random_mask(shape, 0.5, seed=3, block=block)
        data = with_junk(wild_values(shape, np.float32, 3), mask, 3)
        fast = akdtree_extract(data, mask, block)
        assert fast.padded_shape == (32, 32, 32)
        assert collect_blocks(data, mask, block).data.shape == (20, 10, 6)
        assert any(perms.any() for perms in fast.perms.values())
        assert_same_extraction(fast, masked_cube_extract("akdtree", data, mask, block))

    @pytest.mark.parametrize("name", sorted(EXTRACTORS))
    @pytest.mark.parametrize("holes", [False, True])
    def test_block_granular_masks_gather_no_mask(self, name, holes):
        # Refined block by block, no occupied block holds an invalid cell:
        # nothing is masked, and the junk next to the blocks stays out.
        mask = random_mask((16, 16, 16), 0.4, seed=9, block=4)
        if holes:
            mask[tuple(np.argwhere(mask)[0])] = False
        data = with_junk(wild_values(mask.shape, np.float32, 9), mask, 9)
        assert collect_blocks(data, mask, 4).partial == holes
        assert_same_extraction(
            EXTRACTORS[name](data, mask, 4), masked_cube_extract(name, data, mask, 4)
        )

    @pytest.mark.parametrize("name", sorted(EXTRACTORS))
    def test_level_data_is_left_alone(self, name):
        data, mask = level((13, 10, 7), 4, np.float32, 4, density=0.5, ragged=True)
        data = with_junk(data, mask, 4)
        before = data.copy()
        extraction = EXTRACTORS[name](data, mask, 4)
        assert np.array_equal(data, before, equal_nan=True)
        assert not any(np.shares_memory(arr, data) for arr in extraction.groups.values())


def decoded_results(extraction, seed):
    """What a reader's units hand the assembly for one level: the layout
    record, each group "decoded" with an error everywhere (cells outside
    the mask included, as SZ leaves them), and the stream dtype — every
    array frozen, as a caching reader shares them."""
    rng = np.random.default_rng(seed)
    results = {"L0/layout": deserialize_layout(serialize_layout(extraction))}
    for group_idx, shape in enumerate(layout_shapes(extraction)):
        stacked = extraction.groups[shape]
        results[f"L0/g{group_idx}"] = (stacked + rng.uniform(0.5, 1.0, stacked.shape)).astype(
            stacked.dtype
        )
    dtypes = [arr.dtype for arr in extraction.groups.values()]
    results["L0/dtype"] = dtypes[0] if dtypes else np.dtype(np.float32)
    for value in results.values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return results


def assert_same_level(fast, oracle, results):
    assert fast.level == oracle.level
    assert fast.data.dtype == oracle.data.dtype and fast.data.shape == oracle.data.shape
    assert fast.data.tobytes() == oracle.data.tobytes()
    assert np.array_equal(fast.mask, oracle.mask)
    assert fast.data.flags.writeable and fast.data.flags.c_contiguous
    for value in results.values():
        if isinstance(value, np.ndarray):
            assert not np.shares_memory(fast.data, value)


def draw_box(data, shape):
    box = []
    for dim in shape:
        lo = data.draw(st.integers(0, dim - 1))
        box.append((lo, data.draw(st.integers(lo + 1, dim))))
    return tuple(box)


class TestAssemblyAgainstTheWindowMask:
    @settings(max_examples=150, deadline=None)
    @given(level=sparse_levels(), name=st.sampled_from(sorted(EXTRACTORS)), data=st.data())
    def test_per_block_mask_assembles_like_the_window_mask(self, level, name, data):
        values, mask, block = level
        extraction = EXTRACTORS[name](values, mask, block)
        results = decoded_results(extraction, data.draw(st.integers(0, 2**16)))
        meta = {"level": 0, "strategy": name}
        boxes = [level_box(mask.shape), draw_box(data, mask.shape)]
        for box in boxes:
            def mask_of_box(box=box):
                return mask[region_slices(box)]

            assert_same_level(
                _assemble_box(meta, results, box, mask_of_box),
                assemble_putmask(meta, results, box, mask_of_box),
                results,
            )

    @pytest.mark.parametrize("name", sorted(EXTRACTORS))
    def test_boxes_that_cut_blocks(self, name):
        values, mask = level((13, 10, 7), 4, np.float32, 6, density=0.4, ragged=True)
        extraction = EXTRACTORS[name](with_junk(values, mask, 6), mask, 4)
        results = decoded_results(extraction, 6)
        meta = {"level": 0, "strategy": name}
        for box in (((1, 7), (2, 9), (3, 6)), ((12, 13), (0, 10), (0, 7)), ((0, 1),) * 3):
            assert_same_level(
                _assemble_box(meta, results, box, lambda box=box: mask[region_slices(box)]),
                assemble_putmask(meta, results, box, lambda box=box: mask[region_slices(box)]),
                results,
            )

    def test_a_box_meeting_no_block_reads_the_stream_dtype(self):
        mask = np.zeros((16, 16, 16), dtype=bool)
        mask[:4, :4, :4] = True
        values = with_junk(wild_values(mask.shape, np.float64, 1), mask, 1)
        results = decoded_results(opst_extract(values, mask, 4), 1)
        box = ((8, 12), (8, 12), (8, 12))
        meta = {"level": 0, "strategy": "opst"}
        fast = _assemble_box(meta, results, box, lambda: mask[region_slices(box)])
        assert fast.data.dtype == np.float64 and not fast.data.any()
        assert_same_level(
            fast, assemble_putmask(meta, results, box, lambda: mask[region_slices(box)]), results
        )

    def test_permuted_akdtree_blocks(self):
        shape, block = (20, 9, 5), 2
        mask = random_mask(shape, 0.5, seed=3, block=block) & (
            np.random.default_rng(3).random(shape) < 0.8
        )
        extraction = akdtree_extract(with_junk(wild_values(shape, np.float32, 3), mask, 3), mask, 2)
        assert any(perms.any() for perms in extraction.perms.values())
        results = decoded_results(extraction, 3)
        meta = {"level": 0, "strategy": "akdtree"}
        for box in (level_box(shape), ((3, 17), (1, 8), (1, 4))):
            assert_same_level(
                _assemble_box(meta, results, box, lambda box=box: mask[region_slices(box)]),
                assemble_putmask(meta, results, box, lambda box=box: mask[region_slices(box)]),
                results,
            )

    @pytest.mark.parametrize("name", sorted(EXTRACTORS))
    def test_encoder_rec_shares_the_path(self, name):
        values, mask = level((13, 10, 7), 4, np.float32, 8, density=0.4, ragged=True)
        lvl = AMRLevel(data=with_junk(values, mask, 8), mask=mask, level=0)
        extraction = EXTRACTORS[name](lvl.data, mask, 4)
        results = decoded_results(extraction, 8)
        meta = {"level": 0, "strategy": name}
        assert_same_level(
            _encoder_rec(lvl, meta, results),
            assemble_putmask(meta, results, level_box(mask.shape), lambda: mask),
            results,
        )


@st.composite
def bricked_levels(draw):
    """A GSP/ZF level's metadata (format 2, or format 1's one ``grid``
    brick), its mask, and decoded bricks — some lost — of a drawn dtype:
    level extents that are and are not brick multiples, a padded grid up
    to two bricks past them, so the edge bricks are clipped."""
    shape = tuple(draw(st.integers(1, 20)) for _ in range(3))
    size = draw(st.sampled_from([2, 3, 4, 8]))
    padded = tuple(dim + draw(st.integers(0, 2 * size)) for dim in shape)
    meta = {"level": 0, "strategy": draw(st.sampled_from(["gsp", "zf"])), "padded_shape": padded}
    meta = _bricked(meta) if draw(st.booleans()) else {**meta, "bricks": {"size": size}}
    dtype = np.dtype(draw(st.sampled_from([np.float32, np.float64])))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    lost = draw(st.sampled_from([0.0, 0.3, 1.0]))
    results = {}
    for brick_idx, bbox in _touched_bricks(meta, level_box(padded)):
        if rng.random() >= lost:
            decoded = wild_values(tuple(hi - lo for lo, hi in bbox), dtype, seed + brick_idx)
            decoded.setflags(write=False)
            results[_brick_name(meta, brick_idx)] = decoded
    mask = random_mask(shape, 0.6, seed=seed)
    return meta, shape, mask, results, dtype


def draw_brick_box(data, shape, size):
    """A box inside one brick (clipped to the level)."""
    box = []
    for dim in shape:
        start = size * data.draw(st.integers(0, (dim - 1) // size))
        lo = data.draw(st.integers(start, min(start + size, dim) - 1))
        box.append((lo, data.draw(st.integers(lo + 1, min(start + size, dim)))))
    return tuple(box)


class TestStitchAgainstThePerBrickWindow:
    @settings(max_examples=200, deadline=None)
    @given(level=bricked_levels(), data=st.data())
    def test_per_axis_stitch_is_the_per_brick_one(self, level, data):
        meta, shape, mask, results, dtype = level
        size = int(meta["bricks"]["size"])
        boxes = [
            level_box(shape),
            draw_box(data, shape),
            draw_brick_box(data, shape, size),
            tuple((data.draw(st.integers(0, dim - 1)), dim) for dim in shape),  # edge bricks
        ]
        for box in boxes:
            fast = _stitch_bricks(meta, results, box, dtype)
            oracle = stitch_bricks_window(meta, results, box)
            assert fast.shape == oracle.shape
            assert not any(np.shares_memory(fast, value) for value in results.values())
            touched = [_brick_name(meta, i) for i, _bbox in _touched_bricks(meta, box)]
            if not any(name in results for name in touched):
                # The one intended difference: the window fell back to float32.
                assert fast.dtype == dtype and not fast.any() and not oracle.any()
                continue
            assert fast.dtype == oracle.dtype == dtype
            assert fast.tobytes() == oracle.tobytes()

            def mask_of_box(box=box):
                return mask[region_slices(box)]

            assert_same_level(
                _assemble_box(meta, results, box, mask_of_box, dtype),
                assemble_putmask(meta, results, box, mask_of_box),
                results,
            )


def test_warm_reread_of_an_opst_level_leaves_the_cached_units_alone(tmp_path):
    dataset = clustered_dataset()
    codec = TACCompressor(force_strategy=Strategy.OPST, unit_block=4)
    comp = codec.compress(dataset, 1e-3, mode="abs")
    head = tmp_path / "archive.rpbt"
    write_archive(head, {"run/rho": comp})
    expected = codec.decompress_level(comp, 0)
    with ArchiveReader(head) as reader:
        cold, _stats = reader.read_level("run/rho", 0)
        cached = {key: value for key, (value, _size) in reader.cache._entries.items()}
        before = {key: np.array(value, copy=True) for key, value in cached.items()
                  if isinstance(value, np.ndarray)}
        assert any(str(key[2]).startswith("L0/g") for key in before)
        roi, _ = reader.read_region("run/rho", 0, ((1, 7), (2, 9), (3, 6)))
        warm, warm_stats = reader.read_level("run/rho", 0)
        assert warm_stats.cache_hits == len(before)  # every group and the mask
        for key, value in before.items():
            assert not cached[key].flags.writeable
            assert np.array_equal(cached[key], value)
    for got in (cold, warm):
        assert got.data.tobytes() == expected.data.tobytes()
        assert np.array_equal(got.mask, expected.mask)
    assert np.array_equal(roi, expected.data[1:7, 2:9, 3:6])
