"""Reference implementations of the TAC pre-processes and level assembly.

``gsp_pad_cells`` and ``opst_plan_full`` are the implementations
``repro.core.gsp.gsp_pad`` and ``repro.core.opst.opst_plan`` had before
they moved onto the unit-block grid, kept verbatim as oracles: the fast
versions must reproduce them bit for bit (``test_preprocess_oracles.py``),
which is what keeps blobs, goldens and compression ratios where they are.

``gsp_pad_grid`` / ``zero_fill_grid`` are GSP and ZF as they were before
the writer made the padded grid one brick slab at a time: the whole grid
(masked into a new array, the ghosts broadcast into its block view), with
the ``pad_mask`` and ``n_padded_blocks`` bookkeeping only tests read.
``encode_padded_grid`` is that writer's GSP/ZF level encode: every brick
of the whole grid in one ``compress_many``, the reconstruction cropped and
masked out of the grid.

``masked_cube_extract`` and ``assemble_putmask`` are the two paths that
paid for a level's whole bounding cube before the block strategies masked
only their blocks: mask the cube, then extract; stitch, then mask the
window.  ``stitch_bricks_window`` is the GSP/ZF stitch before the bricks'
window slices were computed per axis: one ``bricks_touching`` box and
slice tuple per brick.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.amr.hierarchy import AMRLevel
from repro.core.akdtree import _next_pow2, akdtree_plan
from repro.core.blocks import (
    BlockExtraction,
    canonical_orientation,
    collect_blocks,
    gather_blocks,
    integral_image,
    pad_to_blocks,
)
from repro.core.density import Strategy
from repro.core.gsp import brick_boxes
from repro.core.layout import block_extents, blocks_in_region, layout_shapes
from repro.core.opst import _box, compute_bs  # the integral-image query, unchanged
from repro.core.opst import opst_plan
from repro.core.plan import level_box, region_slices
from repro.core.tac import _brick_name, _touched_bricks


def masked_cube_extract(strategy: str, data, mask, block_size: int) -> BlockExtraction:
    """OpST / AKDTree / NaST extraction of ``np.where(mask, data, 0)`` —
    the level-sized masked copy — with AKDTree gathering from a copy of the
    level grown to its k-d grid."""
    data = np.where(mask, data, data.dtype.type(0))
    blocks = collect_blocks(data, mask, block_size)
    block_size = blocks.block_size
    padded, occ = blocks.data, blocks.occ
    if strategy == "nast":
        extraction = blocks.extraction()
        origins_blocks = np.argwhere(occ)
        if origins_blocks.size == 0:
            return extraction
        origins = (origins_blocks * block_size).astype(np.int32)
        shape = (block_size,) * 3
        extraction.groups[shape] = gather_blocks(padded, origins, shape)
        extraction.coords[shape] = origins
        extraction.perms[shape] = np.zeros(origins.shape[0], dtype=np.uint8)
        return extraction
    if strategy == "opst":
        extraction = blocks.extraction()
        by_size: dict[int, list] = {}
        for origin, size in opst_plan(occ):
            by_size.setdefault(size, []).append(origin)
        for size, origins_blocks in sorted(by_size.items()):
            edge = size * block_size
            shape = (edge, edge, edge)
            origins = (np.asarray(origins_blocks, dtype=np.int64) * block_size).astype(np.int32)
            extraction.groups[shape] = gather_blocks(padded, origins, shape)
            extraction.coords[shape] = origins
            extraction.perms[shape] = np.zeros(origins.shape[0], dtype=np.uint8)
        return extraction
    assert strategy == "akdtree", strategy
    leaves = akdtree_plan(occ)
    kd_side = _next_pow2(max(occ.shape)) * block_size if occ.size else block_size
    grid_shape = tuple(max(kd_side, dim) for dim in padded.shape)
    if grid_shape != padded.shape:
        grown = np.zeros(grid_shape, dtype=padded.dtype)
        grown[: padded.shape[0], : padded.shape[1], : padded.shape[2]] = padded
        padded = grown
    extraction = blocks.extraction(padded.shape)
    grouped: dict = {}
    for origin_blocks, shape_blocks in leaves:
        cell_shape = tuple(int(s) * block_size for s in shape_blocks)
        canonical, perm_id = canonical_orientation(cell_shape)
        origin_cells = tuple(int(o) * block_size for o in origin_blocks)
        grouped.setdefault(canonical, []).append((origin_cells, perm_id))
    for canonical, entries in sorted(grouped.items()):
        origins = np.asarray([e[0] for e in entries], dtype=np.int32)
        perm_ids = np.asarray([e[1] for e in entries], dtype=np.uint8)
        extraction.groups[canonical] = gather_blocks(padded, origins, canonical, perm_ids)
        extraction.coords[canonical] = origins
        extraction.perms[canonical] = perm_ids
    return extraction


def assemble_putmask(level_meta: dict, results: dict, box, mask_of_box) -> AMRLevel:
    """Stitch the blocks (or bricks) meeting ``box`` into their bounding
    window, crop, then zero the whole window outside the mask."""
    level = level_meta["level"]
    strategy = level_meta["strategy"]
    if strategy == "empty":
        window = np.zeros(tuple(hi - lo for lo, hi in box), dtype=np.float32)
    elif strategy not in (Strategy.GSP.value, Strategy.ZF.value):
        window = _stitch_groups_unmasked(level, results, box)
    else:
        window = stitch_bricks_window(level_meta, results, box)
    data = np.ascontiguousarray(window)
    del window
    mask = mask_of_box()
    np.putmask(data, ~mask, 0)
    return AMRLevel(data=data, mask=mask, level=level)


def stitch_bricks_window(level_meta: dict, results: dict, box) -> np.ndarray:
    """Stitch the decoded bricks ``box`` touches into its brick-aligned
    bounding window and return the window's ``box`` part (a view).

    Bricks absent from ``results`` leave zeros; when every touched brick
    is absent the window is float32, whatever the level's dtype.
    """
    size = int(level_meta["bricks"]["size"])
    lo = tuple((b_lo // size) * size for b_lo, _hi in box)
    hi = tuple(
        min(-(-b_hi // size) * size, dim)
        for (_lo, b_hi), dim in zip(box, level_meta["padded_shape"])
    )
    window = None
    for brick_idx, bbox in _touched_bricks(level_meta, box):
        decoded = results.get(_brick_name(level_meta, brick_idx))
        if decoded is None:
            continue
        if window is None:
            window = np.zeros(tuple(h - l for l, h in zip(lo, hi)), dtype=decoded.dtype)
        window[region_slices(bbox, lo)] = decoded
    if window is None:  # every touched brick lost
        window = np.zeros(tuple(h - l for l, h in zip(lo, hi)), dtype=np.float32)
    return window[region_slices(box, lo)]


def _stitch_groups_unmasked(idx: int, results: dict, box) -> np.ndarray:
    extraction = results[f"L{idx}/layout"]
    lo = np.array([b[0] for b in box], dtype=np.int64)
    hi = np.array([b[1] for b in box], dtype=np.int64)
    hits = []
    for group_idx, shape in enumerate(layout_shapes(extraction)):
        selected = blocks_in_region(extraction, shape, box)
        if selected.size:
            origins = extraction.coords[shape][selected].astype(np.int64)
            lo = np.minimum(lo, origins.min(axis=0))
            hi = np.maximum(hi, (origins + block_extents(extraction, shape)[selected]).max(axis=0))
            hits.append((shape, selected, results[f"L{idx}/g{group_idx}"]))
    dtype = hits[0][2].dtype if hits else results[f"L{idx}/dtype"]
    window = np.zeros(tuple(hi - lo), dtype=dtype)
    for shape, selected, stacked in hits:
        extraction.scatter_group(shape, stacked, window, indices=selected, offset=lo)
    return window[region_slices(box, lo)]

_FACES = [(axis, sign) for axis in range(3) for sign in (+1, -1)]


@dataclass
class PaddedGrid:
    """Padded grid plus the bookkeeping needed to undo/inspect the padding."""

    padded: np.ndarray          # full (block-padded) grid with ghost shells
    pad_mask: np.ndarray        # True where a ghost value was written
    orig_shape: tuple[int, int, int]
    block_size: int
    n_padded_blocks: int


def _block_view(arr: np.ndarray, block: int) -> np.ndarray:
    nx, ny, nz = arr.shape
    return arr.reshape(nx // block, block, ny // block, block, nz // block, block)


def _cells(coords, spans) -> tuple:
    return (coords[0], spans[0], coords[1], spans[1], coords[2], spans[2])


def _slab(axis: int, sign: int, layers: int, block: int) -> list[slice]:
    spans = [slice(None)] * 3
    spans[axis] = slice(0, layers) if sign < 0 else slice(block - layers, block)
    return spans


def _grid_slab_means(values6, valid6, coords, spans) -> np.ndarray:
    """Slab means gathered from the block view of the masked grid."""
    cells = _cells(coords, spans)
    valid = valid6[cells]
    values = values6[cells].astype(np.float64)
    n_blocks, lx, ly, lz = values.shape
    _nbx, _, nby, _, nbz, _ = values6.shape
    row = lz * (ly if nbz == 1 else 1) * (lx if nbz == 1 and nby == 1 else 1)
    rows = values.reshape(n_blocks, -1, row).sum(axis=2)
    with np.errstate(invalid="ignore"):
        return np.add.accumulate(rows, axis=1)[:, -1] / valid.sum(axis=(1, 2, 3))


def masked_grid(data, mask, block: int) -> np.ndarray:
    """``data`` zeroed outside ``mask`` and zero-padded to whole unit
    blocks, in a new C-ordered array."""
    grid = np.zeros(tuple(dim + (-dim) % block for dim in data.shape), dtype=data.dtype)
    np.copyto(grid[tuple(slice(0, dim) for dim in data.shape)], data, where=mask)
    return grid


def gsp_pad_grid(data, mask, block_size, *, pad_layers=None, avg_layers=2) -> PaddedGrid:
    """Ghost-shell padding written into the whole masked grid, with
    level-resolution accumulators when ``pad_layers`` is thinner than a
    block."""
    blocks = collect_blocks(data, mask, block_size)
    blocks = dataclasses.replace(
        blocks, data=masked_grid(data, np.asarray(mask, dtype=bool), block_size)
    )
    block_size = blocks.block_size
    avg_layers = min(avg_layers, block_size)
    x_layers = block_size if pad_layers is None else min(int(pad_layers), block_size)
    if x_layers <= 0:
        raise ValueError("pad_layers must be positive")
    occ = blocks.occ
    nb = occ.shape
    padded = blocks.data
    padded6 = _block_view(padded, block_size)
    valid6 = _block_view(blocks.mask, block_size)
    res = 1 if x_layers == block_size else block_size
    total = np.zeros((nb[0], res, nb[1], res, nb[2], res), dtype=np.float64)
    count = np.zeros(total.shape, dtype=np.int32)
    for axis, sign in _FACES:
        here: list[slice] = [slice(None)] * 3
        there: list[slice] = [slice(None)] * 3
        here[axis] = slice(0, nb[axis] - 1) if sign > 0 else slice(1, nb[axis])
        there[axis] = slice(1, nb[axis]) if sign > 0 else slice(0, nb[axis] - 1)
        recipients = list(np.nonzero(~occ[tuple(here)] & occ[tuple(there)]))
        if not recipients[0].size:
            continue
        neighbours = list(recipients)
        recipients[axis] = recipients[axis] + (sign < 0)
        neighbours[axis] = neighbours[axis] + (sign > 0)
        means = _grid_slab_means(
            padded6, valid6, neighbours, _slab(axis, -sign, avg_layers, block_size)
        )
        reached = np.isfinite(means)
        cells = _cells(
            [idx[reached] for idx in recipients],
            _slab(axis, sign, x_layers, block_size) if res > 1 else [slice(None)] * 3,
        )
        total[cells] += means[reached, None, None, None]
        count[cells] += 1
    hit = count > 0
    ghosts = (total[hit] / count[hit]).astype(data.dtype)
    if res == 1:
        bx, _, by, _, bz, _ = np.nonzero(hit)
        padded6[bx, :, by, :, bz, :] = ghosts[:, None, None, None]
        pad_mask = hit.reshape(nb).repeat(block_size, 0).repeat(block_size, 1).repeat(block_size, 2)
    else:
        pad_mask = hit.reshape(padded.shape)
        padded[pad_mask] = ghosts
    return PaddedGrid(
        padded=padded,
        pad_mask=pad_mask,
        orig_shape=data.shape,
        block_size=block_size,
        n_padded_blocks=int(hit.any(axis=(1, 3, 5)).sum()),
    )


def zero_fill_grid(data, mask, block_size) -> PaddedGrid:
    """ZF as the whole masked grid."""
    values = masked_grid(data, mask, block_size)
    return PaddedGrid(
        padded=values,
        pad_mask=np.zeros_like(values, dtype=bool),
        orig_shape=data.shape,
        block_size=block_size,
        n_padded_blocks=0,
    )


def encode_padded_grid(codec, grid: np.ndarray, mask, eb_abs: float, brick_size: int):
    """A GSP/ZF level encoded from its whole padded ``grid`` (written):
    ``(blobs in brick order, stored-cell values of the reconstruction)``."""
    bricks = [grid[region_slices(box)] for box in brick_boxes(grid.shape, brick_size)]
    blobs = codec.compress_many(bricks, eb_abs, mode="abs", recon=bricks)
    crop = np.ascontiguousarray(grid[region_slices(level_box(mask.shape))])
    np.copyto(crop, 0, where=~mask)
    return blobs, crop[mask]


def _occupancy(mask: np.ndarray, block: int) -> np.ndarray:
    padded = pad_to_blocks(np.asarray(mask, dtype=bool), block)
    nb = [dim // block for dim in padded.shape]
    return padded.reshape(nb[0], block, nb[1], block, nb[2], block).any(axis=(1, 3, 5))


def _face_slab_means(values, weights, block, avg_layers):
    """Mean of each block's boundary slab for all six faces, valid cells
    only: ``{(axis, sign): (nbx, nby, nbz) float64}``, NaN where a slab
    holds no valid cell."""
    nb = tuple(dim // block for dim in values.shape)
    v6 = values.reshape(nb[0], block, nb[1], block, nb[2], block)
    w6 = weights.reshape(nb[0], block, nb[1], block, nb[2], block)
    out = {}
    for axis, sign in _FACES:
        slab = slice(0, avg_layers) if sign < 0 else slice(block - avg_layers, block)
        index = [slice(None)] * 6
        index[2 * axis + 1] = slab
        num = (v6[tuple(index)] * w6[tuple(index)]).sum(axis=(1, 3, 5), dtype=np.float64)
        den = w6[tuple(index)].sum(axis=(1, 3, 5), dtype=np.float64)
        with np.errstate(invalid="ignore"):
            out[(axis, sign)] = num / den
    return out


def gsp_pad_cells(data, mask, block_size, *, pad_layers=None, avg_layers=2) -> PaddedGrid:
    """Ghost-shell padding with cell-resolution accumulators."""
    avg_layers = min(avg_layers, block_size)
    x_layers = block_size if pad_layers is None else min(int(pad_layers), block_size)
    values = pad_to_blocks(np.where(mask, data, data.dtype.type(0)), block_size)
    weights = pad_to_blocks(np.asarray(mask, dtype=np.float64), block_size)
    occ = _occupancy(mask, block_size)
    nb = occ.shape
    n = values.shape
    slab_means = _face_slab_means(values, weights, block_size, avg_layers)
    accum = np.zeros(n, dtype=np.float64)
    count = np.zeros(n, dtype=np.int32)
    for axis, sign in _FACES:
        neighbour_occ = np.zeros(nb, dtype=bool)
        src = [slice(None)] * 3
        dst = [slice(None)] * 3
        if sign > 0:
            dst[axis] = slice(0, nb[axis] - 1)
            src[axis] = slice(1, nb[axis])
        else:
            dst[axis] = slice(1, nb[axis])
            src[axis] = slice(0, nb[axis] - 1)
        neighbour_occ[tuple(dst)] = occ[tuple(src)]
        recipients = ~occ & neighbour_occ
        if not recipients.any():
            continue
        means = slab_means[(axis, -sign)]
        ghost_block = np.zeros(nb, dtype=np.float64)
        ghost_block[tuple(dst)] = means[tuple(src)]
        valid_block = np.zeros(nb, dtype=bool)
        valid_block[tuple(dst)] = np.isfinite(means[tuple(src)])
        recipients &= valid_block
        if not recipients.any():
            continue
        bx, by, bz = (idx.astype(np.int64) for idx in np.nonzero(recipients))
        vals = ghost_block[recipients]
        if sign > 0:
            slab = np.arange(block_size - x_layers, block_size, dtype=np.int64)
        else:
            slab = np.arange(0, x_layers, dtype=np.int64)
        full = np.arange(block_size, dtype=np.int64)
        spans = [full, full, full]
        spans[axis] = slab
        ix = (bx[:, None] * block_size + spans[0])[:, :, None, None]
        iy = (by[:, None] * block_size + spans[1])[:, None, :, None]
        iz = (bz[:, None] * block_size + spans[2])[:, None, None, :]
        accum[ix, iy, iz] += vals[:, None, None, None]
        count[ix, iy, iz] += 1
    pad_mask = count > 0
    padded = values.astype(np.float64)
    padded[pad_mask] = accum[pad_mask] / count[pad_mask]
    return PaddedGrid(
        padded=padded.astype(data.dtype),
        pad_mask=pad_mask,
        orig_shape=data.shape,
        block_size=block_size,
        n_padded_blocks=int((~occ & _occupancy(pad_mask, block_size)).sum()),
    )


def _recompute_window(bs, occ, lo, hi, cap) -> None:
    """Re-run the BS erosion for the anchors in ``[lo, hi)`` from a local
    integral image over their support region."""
    xs = np.arange(lo[0], hi[0])
    ys = np.arange(lo[1], hi[1])
    zs = np.arange(lo[2], hi[2])
    if xs.size == 0 or ys.size == 0 or zs.size == 0:
        return
    new_bs = occ[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]].astype(np.int32)
    base = tuple(max(lo[d] + 1 - cap, 0) for d in range(3))
    table = integral_image(occ[base[0] : hi[0], base[1] : hi[1], base[2] : hi[2]])
    x1 = xs[:, None, None] + 1 - base[0]
    y1 = ys[None, :, None] + 1 - base[1]
    z1 = zs[None, None, :] + 1 - base[2]
    for s in range(2, cap + 1):
        x0 = x1 - s
        y0 = y1 - s
        z0 = z1 - s
        valid = (x0 >= -base[0]) & (y0 >= -base[1]) & (z0 >= -base[2])
        if not valid.any():
            break
        counts = _box(table, np.maximum(x0, 0), np.maximum(y0, 0), np.maximum(z0, 0), x1, y1, z1)
        full = valid & (counts == s**3)
        if not full.any():
            break
        new_bs[full] = s
    bs[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = new_bs


def opst_plan_full(occ: np.ndarray) -> list[tuple[tuple[int, int, int], int]]:
    """Alg. 1 visiting every anchor and re-eroding the whole ``maxSide``
    window from the occupancy grid after each extraction."""
    occ = np.asarray(occ, dtype=bool).copy()
    bs = compute_bs(occ)
    max_side = int(bs.max(initial=0))
    if max_side == 0:
        return []
    nb = occ.shape
    bs_flat = bs.ravel()
    stride_x = nb[1] * nb[2]
    cubes = []
    for flat in range(occ.size - 1, -1, -1):
        size = int(bs_flat[flat])
        if size < 1:
            continue
        x, rem = divmod(flat, stride_x)
        y, z = divmod(rem, nb[2])
        origin = (x - size + 1, y - size + 1, z - size + 1)
        cubes.append((origin, size))
        occ[origin[0] : x + 1, origin[1] : y + 1, origin[2] : z + 1] = False
        bs[origin[0] : x + 1, origin[1] : y + 1, origin[2] : z + 1] = 0
        hi = tuple(min(origin[d] + size + max_side - 1, nb[d]) for d in range(3))
        _recompute_window(bs, occ, origin, hi, max_side)
    return cubes
