"""Unit-block partitioning, occupancy, and sub-block gather/scatter.

All three TAC pre-process strategies view a level as a grid of small *unit
blocks* (paper: e.g. 16³ blocks of a 512³ level).  This module provides the
shared machinery:

* zero-padding a level to a whole number of unit blocks;
* the block **occupancy** grid (a block is *empty* iff every cell in it is
  outside the level's mask) — paper's "empty regions";
* a 3D **integral image** (summed-area table) over occupancy, giving O(1)
  box-population queries that both OpST's max-cube DP and AKDTree's split
  scoring rely on;
* gather/scatter of cell-space sub-blocks into stacked 4D arrays, plus the
  :class:`BlockExtraction` container with honest metadata accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import check_positive_int

#: Axis permutations used to align same-size, differently-oriented AKDTree
#: sub-blocks (paper §3.2 "align the sub-blocks ... based on their splitting
#: dimensions").  Index into this tuple is the stored orientation id.
AXIS_PERMS: tuple[tuple[int, int, int], ...] = (
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
)

_PERM_INDEX = {perm: idx for idx, perm in enumerate(AXIS_PERMS)}


def invert_perm(perm: tuple[int, int, int]) -> tuple[int, int, int]:
    """Inverse axis permutation (transpose that undoes ``perm``)."""
    inv = [0, 0, 0]
    for position, axis in enumerate(perm):
        inv[axis] = position
    return tuple(inv)


def canonical_orientation(shape: tuple[int, int, int]) -> tuple[tuple[int, int, int], int]:
    """Canonical (sorted-descending) shape and the perm id that achieves it."""
    order = tuple(int(ax) for ax in np.argsort([-s for s in shape], kind="stable"))
    canonical = tuple(shape[ax] for ax in order)
    return canonical, _PERM_INDEX[order]


def pad_to_blocks(data: np.ndarray, block: int) -> np.ndarray:
    """Zero-pad a 3D array so every dimension is a multiple of ``block``."""
    block = check_positive_int(block, name="block")
    pads = [(0, (-dim) % block) for dim in data.shape]
    if not any(hi for _, hi in pads):
        return data
    return np.pad(data, pads, mode="constant")


def block_counts(mask: np.ndarray, block: int) -> np.ndarray:
    """Number of valid cells per unit block.

    Reduced one axis at a time, outermost first, so every pass but the
    last (which is ``block**2`` times smaller) runs along long contiguous
    rows — several times faster than one strided reduction over the three
    in-block axes.
    """
    block = check_positive_int(block, name="block")
    padded = pad_to_blocks(np.asarray(mask, dtype=bool), block)
    nx, ny, nz = padded.shape
    counts = padded.reshape(nx // block, block, ny, nz).sum(axis=1, dtype=np.int32)
    counts = counts.reshape(nx // block, ny // block, block, nz).sum(axis=2, dtype=np.int32)
    return counts.reshape(nx // block, ny // block, nz // block, block).sum(axis=3, dtype=np.int64)


def block_occupancy(mask: np.ndarray, block: int) -> np.ndarray:
    """Occupancy grid: True where a unit block contains any valid cell."""
    return block_counts(mask, block) > 0


@dataclass(frozen=True)
class LevelBlocks:
    """One level on its unit-block grid — the pre-collection the block
    strategies (NaST, OpST, AKDTree) start from, made in one pass per level.

    ``data`` and ``mask`` are zero-padded to whole unit blocks (the arrays
    passed in, not copies, when the level already is — so ``data`` may hold
    anything outside the mask); ``occ`` is the
    occupancy grid, True where a block holds any valid cell; ``partial``
    tells whether an occupied block also holds a cell outside the mask
    (padding included) — when none does, as on a mask refined block by
    block, every block a strategy gathers is valid throughout.
    """

    block_size: int
    orig_shape: tuple[int, int, int]
    data: np.ndarray
    mask: np.ndarray
    occ: np.ndarray
    partial: bool

    def extraction(self, padded_shape: tuple[int, int, int] | None = None) -> "BlockExtraction":
        """An empty extraction over this level's (default: padded) grid."""
        return BlockExtraction(
            padded_shape=padded_shape or self.data.shape,
            orig_shape=self.orig_shape,
            block_size=self.block_size,
        )

    def gather(
        self,
        origins: np.ndarray,
        shape: tuple[int, int, int],
        perm_ids: np.ndarray | None = None,
    ) -> np.ndarray:
        """:func:`gather_blocks` of the level's occupied blocks, zero
        outside its mask: the mask is gathered with the same origins and
        perms, so only the cells of the blocks are ever masked, never the
        level (and nothing is, when no occupied block is ``partial``)."""
        values = gather_blocks(self.data, origins, shape, perm_ids)
        if self.partial:
            valid = gather_blocks(self.mask, origins, shape, perm_ids)
            np.putmask(values, ~valid, 0)
        return values


def collect_blocks(data: np.ndarray, mask: np.ndarray, block_size: int) -> LevelBlocks:
    """Pre-collect a level: pad to whole unit blocks, count the valid cells
    of each, derive occupancy."""
    block_size = check_positive_int(block_size, name="block_size")
    if data.shape != mask.shape:
        raise ValueError("data and mask shapes differ")
    mask = np.asarray(mask, dtype=bool)
    values = pad_to_blocks(np.asarray(data), block_size)
    mask = pad_to_blocks(mask, block_size)
    counts = block_counts(mask, block_size)
    occ = counts > 0
    return LevelBlocks(
        block_size=block_size,
        orig_shape=data.shape,
        data=values,
        mask=mask,
        occ=occ,
        partial=bool((occ & (counts < block_size**3)).any()),
    )


def integral_image(occ: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero border: ``S[i,j,k] = occ[:i,:j,:k].sum()``."""
    occ = np.asarray(occ)
    table = np.zeros(tuple(dim + 1 for dim in occ.shape), dtype=np.int64)
    table[1:, 1:, 1:] = occ.astype(np.int64)
    for axis in range(3):
        np.cumsum(table, axis=axis, out=table)
    return table


def box_count(table: np.ndarray, lo, hi) -> np.ndarray:
    """Population of the half-open box ``[lo, hi)`` from an integral image.

    ``lo``/``hi`` may be scalars-per-axis or broadcastable index arrays,
    enabling vectorized queries over many boxes at once.
    """
    x0, y0, z0 = lo
    x1, y1, z1 = hi
    return (
        table[x1, y1, z1]
        - table[x0, y1, z1]
        - table[x1, y0, z1]
        - table[x1, y1, z0]
        + table[x0, y0, z1]
        + table[x0, y1, z0]
        + table[x1, y0, z0]
        - table[x0, y0, z0]
    )


@dataclass
class BlockExtraction:
    """Sub-blocks extracted from a level, grouped by canonical shape.

    Attributes
    ----------
    groups:
        ``{canonical_shape: stacked}`` where ``stacked`` is a 4D array of
        shape ``(m, *canonical_shape)`` ready for 4D compression.
    coords:
        ``{canonical_shape: (m, 3) int32}`` cell-space origin of each block
        in the *padded* grid.
    perms:
        ``{canonical_shape: (m,) uint8}`` orientation id (index into
        :data:`AXIS_PERMS`) mapping the in-grid block onto its canonical
        shape.  All-zero for cube-only strategies (NaST/OpST).
    padded_shape / orig_shape:
        Grid extents before/after unit-block padding.
    """

    padded_shape: tuple[int, int, int]
    orig_shape: tuple[int, int, int]
    block_size: int
    groups: dict[tuple[int, int, int], np.ndarray] = field(default_factory=dict)
    coords: dict[tuple[int, int, int], np.ndarray] = field(default_factory=dict)
    perms: dict[tuple[int, int, int], np.ndarray] = field(default_factory=dict)

    # -- stats -----------------------------------------------------------
    def n_blocks(self) -> int:
        return sum(arr.shape[0] for arr in self.groups.values())

    def total_cells(self) -> int:
        return sum(arr.size for arr in self.groups.values())

    # -- scatter back ------------------------------------------------------
    def scatter_group(
        self,
        shape: tuple[int, int, int],
        stacked: np.ndarray,
        out: np.ndarray,
        indices=None,
        offset=(0, 0, 0),
    ) -> None:
        """Scatter one group's sub-blocks (optionally a subset) into ``out``.

        ``indices`` restricts the scatter to selected blocks and ``offset``
        is the padded-grid cell ``out[0, 0, 0]`` stands for (see
        :func:`scatter_blocks`).
        """
        scatter_blocks(
            out,
            stacked,
            np.asarray(self.coords[shape], dtype=np.int64) - np.asarray(offset),
            self.perms[shape],
            indices,
        )


#: Per-block cell count below which batched fancy indexing beats a Python
#: loop of slice copies.  Small blocks are dominated by per-block Python
#: overhead (~µs each), large blocks by memcpy throughput — measured
#: crossover on 128³ grids sits at ~512 cells (8³).
_BATCH_VOLUME_LIMIT = 512


def _batch_index_grids(origins: np.ndarray, shape: tuple[int, int, int], limit=None):
    """Broadcastable per-axis index arrays covering ``shape`` at each origin.

    The returned triple fancy-indexes a 3D grid into an ``(m, *shape)``
    gather (or scatter target) in one NumPy call — the batched replacement
    for a Python loop over per-block slices.  With ``limit`` (a grid
    shape) every index is clipped into ``[0, limit)``.
    """
    grids = []
    for axis, extent in enumerate(shape):
        index = origins[:, axis, None] + np.arange(extent, dtype=np.int64)
        if limit is not None:
            np.clip(index, 0, limit[axis] - 1, out=index)
        grids.append(index)
    ix, iy, iz = grids
    return ix[:, :, None, None], iy[:, None, :, None], iz[:, None, None, :]


def scatter_blocks(
    out: np.ndarray,
    stacked: np.ndarray,
    origins: np.ndarray,
    perm_ids: np.ndarray,
    indices=None,
) -> None:
    """Place stacked sub-blocks (optionally the subset ``indices``) into
    ``out`` at ``origins`` (cells of ``out``, one row per stacked block),
    undoing each block's orientation ``perm_ids`` — the inverse of
    :func:`gather_blocks`.

    Small sub-blocks sharing an orientation are scattered together
    through one batched fancy-indexed assignment (sub-blocks are
    disjoint by construction, so write order within a batch is
    immaterial); memcpy-bound large blocks keep the per-block slice
    loop (see :data:`_BATCH_VOLUME_LIMIT`).  Only AKDTree groups with
    mixed orientations need more than one batch; NaST/OpST cube groups
    always take the single identity-perm pass.
    """
    origins = np.asarray(origins, dtype=np.int64)
    perm_ids = np.asarray(perm_ids)
    if indices is None:
        selected = np.arange(stacked.shape[0], dtype=np.int64)
    else:
        selected = np.asarray(indices, dtype=np.int64).ravel()
    if selected.size == 0:
        return
    if int(np.prod(stacked.shape[1:])) >= _BATCH_VOLUME_LIMIT or selected.size == 1:
        for idx in selected:
            idx = int(idx)
            block = stacked[idx]
            perm = AXIS_PERMS[int(perm_ids[idx])]
            if perm != (0, 1, 2):
                block = block.transpose(invert_perm(perm))
            x, y, z = (int(v) for v in origins[idx])
            sx, sy, sz = block.shape
            out[x : x + sx, y : y + sy, z : z + sz] = block
        return
    for pid in np.unique(perm_ids[selected]):
        perm = AXIS_PERMS[int(pid)]
        sel = selected[perm_ids[selected] == pid]
        blocks = stacked[sel]
        if perm != (0, 1, 2):
            inv = invert_perm(perm)
            blocks = blocks.transpose((0, inv[0] + 1, inv[1] + 1, inv[2] + 1))
        ix, iy, iz = _batch_index_grids(origins[sel], blocks.shape[1:])
        out[ix, iy, iz] = blocks


def gather_blocks(
    data: np.ndarray,
    origins: np.ndarray,
    shape: tuple[int, int, int],
    perm_ids: np.ndarray | None = None,
    *,
    clip: bool = False,
) -> np.ndarray:
    """Stack sub-blocks of identical canonical ``shape`` into a 4D array.

    ``origins`` are cell-space corners; ``perm_ids`` (optional) transpose
    each in-grid block onto the canonical orientation before stacking.

    Small blocks sharing an orientation are gathered in one batched
    fancy-indexed read (NaST/OpST cube groups are always a single
    identity-perm batch); memcpy-bound large blocks keep the per-block
    slice loop (see :data:`_BATCH_VOLUME_LIMIT`).  Mixed-orientation
    AKDTree groups take one batch per distinct perm.

    ``clip=True`` lets blocks overhang ``data``: every index is clipped
    into it, so a cell outside reads the nearest cell inside — for a
    caller that crops such cells away.  It always takes the batched read.
    """
    m = origins.shape[0]
    out = np.empty((m, *shape), dtype=data.dtype)
    if m == 0:
        return out
    limit = data.shape if clip else None
    if not clip and (int(np.prod(shape)) >= _BATCH_VOLUME_LIMIT or m == 1):
        for idx in range(m):
            x, y, z = (int(v) for v in origins[idx])
            perm = AXIS_PERMS[int(perm_ids[idx])] if perm_ids is not None else (0, 1, 2)
            in_shape = tuple(shape[perm.index(axis)] for axis in range(3)) if perm != (0, 1, 2) else shape
            block = data[x : x + in_shape[0], y : y + in_shape[1], z : z + in_shape[2]]
            if perm != (0, 1, 2):
                block = block.transpose(perm)
            out[idx] = block
        return out
    origins = np.asarray(origins, dtype=np.int64)
    if perm_ids is None:
        ix, iy, iz = _batch_index_grids(origins, shape, limit)
        out[...] = data[ix, iy, iz]
        return out
    perm_arr = np.asarray(perm_ids)
    for pid in np.unique(perm_arr):
        perm = AXIS_PERMS[int(pid)]
        sel = np.flatnonzero(perm_arr == pid)
        if perm == (0, 1, 2):
            in_shape = shape
        else:
            in_shape = tuple(shape[perm.index(axis)] for axis in range(3))
        ix, iy, iz = _batch_index_grids(origins[sel], in_shape, limit)
        blocks = data[ix, iy, iz]
        if perm != (0, 1, 2):
            blocks = blocks.transpose((0, perm[0] + 1, perm[1] + 1, perm[2] + 1))
        out[sel] = blocks
    return out
