"""GSP — ghost-shell padding for high-density levels (paper §3.3, Alg. 3).

At ~60%+ density there is little empty space to remove, and cutting the
level apart (OpST/AKDTree) would only hurt locality.  GSP keeps the dense
grid and fixes the real problem with zero-filling: a prediction-based
compressor sees an artificial cliff at every empty/non-empty boundary,
spending many bits (and error) there.  Instead of zeros, each empty unit
block receives a *ghost shell* diffused from its non-empty face neighbours:
the padding value of a slab next to a shared face is the mean of the
neighbour's first ``avg_layers`` boundary slices, and blocks reached by
several neighbours average the contributions (Alg. 3's ``pad/2``, ``pad/3``
overlap rule, realized here by sum/count accumulation).

Everything is vectorized per face direction: face-slab means for *all*
blocks at once via a 6D reshape, neighbour selection via shifted occupancy
masks, and slab writes via up-sampled per-block value grids.

``zero_fill`` (ZF) is kept as the reference the paper compares against in
Fig. 12.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.blocks import block_occupancy, pad_to_blocks
from repro.utils.validation import check_positive_int

#: The six axis-aligned face directions (axis, sign).
_FACES = [(axis, sign) for axis in range(3) for sign in (+1, -1)]

#: Default edge (cells) of the independently-compressed bricks a padded
#: GSP/ZF grid is chunked into (strategy format 2).  64³ keeps per-brick SZ
#: overhead negligible on snapshot-scale levels while making an ROI read
#: proportional to the ROI, not the domain (cf. zfp's independent blocks).
DEFAULT_BRICK_SIZE = 64


@dataclass
class GSPResult:
    """Padded grid plus the bookkeeping needed to undo/inspect the padding."""

    padded: np.ndarray          # full (block-padded) grid with ghost shells
    pad_mask: np.ndarray        # True where a ghost value was written
    orig_shape: tuple[int, int, int]
    block_size: int
    n_padded_blocks: int

    def crop(self, arr: np.ndarray | None = None) -> np.ndarray:
        """Trim (an array shaped like) the padded grid to original extents."""
        target = self.padded if arr is None else arr
        ox, oy, oz = self.orig_shape
        return target[:ox, :oy, :oz]


def _face_slab_means(
    values: np.ndarray, weights: np.ndarray, block: int, avg_layers: int
) -> dict[tuple[int, int], np.ndarray]:
    """Mean of each block's boundary slab for all six faces, valid cells only.

    Returns ``{(axis, sign): (nbx, nby, nbz) float64}``; blocks whose slab
    contains no valid cell get NaN (callers must skip them).
    """
    nb = tuple(dim // block for dim in values.shape)
    v6 = values.reshape(nb[0], block, nb[1], block, nb[2], block)
    w6 = weights.reshape(nb[0], block, nb[1], block, nb[2], block)
    out: dict[tuple[int, int], np.ndarray] = {}
    for axis, sign in _FACES:
        inner_axis = 2 * axis + 1
        slab = slice(0, avg_layers) if sign < 0 else slice(block - avg_layers, block)
        index: list[slice] = [slice(None)] * 6
        index[inner_axis] = slab
        reduce_axes = (1, 3, 5)
        num = (v6[tuple(index)] * w6[tuple(index)]).sum(axis=reduce_axes, dtype=np.float64)
        den = w6[tuple(index)].sum(axis=reduce_axes, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            out[(axis, sign)] = num / den
    return out


def gsp_pad(
    data: np.ndarray,
    mask: np.ndarray,
    block_size: int,
    *,
    pad_layers: int | None = None,
    avg_layers: int = 2,
) -> GSPResult:
    """Ghost-shell pad the empty unit blocks of a level.

    Parameters
    ----------
    data, mask:
        Level values (zero outside ``mask``) and validity mask.
    block_size:
        Unit block edge (Alg. 3 operates block-wise).
    pad_layers:
        Slab thickness ``x`` written into an empty block from each face;
        default fills the whole block (cells reached from several faces are
        averaged).
    avg_layers:
        Number of neighbour boundary slices ``y`` averaged into the pad
        value.
    """
    block_size = check_positive_int(block_size, name="block_size")
    avg_layers = check_positive_int(avg_layers, name="avg_layers")
    if data.shape != mask.shape:
        raise ValueError("data and mask shapes differ")
    avg_layers = min(avg_layers, block_size)
    x_layers = block_size if pad_layers is None else min(int(pad_layers), block_size)
    if x_layers <= 0:
        raise ValueError("pad_layers must be positive")

    values = pad_to_blocks(np.where(mask, data, data.dtype.type(0)), block_size)
    weights = pad_to_blocks(np.asarray(mask, dtype=np.float64), block_size)
    occ = block_occupancy(mask, block_size)
    nb = occ.shape
    n = values.shape

    slab_means = _face_slab_means(values, weights, block_size, avg_layers)

    accum = np.zeros(n, dtype=np.float64)
    count = np.zeros(n, dtype=np.int32)

    for axis, sign in _FACES:
        # Empty blocks whose (axis, sign) neighbour is non-empty.
        neighbour_occ = np.zeros(nb, dtype=bool)
        src: list[slice] = [slice(None)] * 3
        dst: list[slice] = [slice(None)] * 3
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
        # Ghost value per recipient block = neighbour's facing slab mean.
        neighbour_face = (axis, -sign)  # the neighbour's face adjacent to us
        means = slab_means[neighbour_face]
        ghost_block = np.zeros(nb, dtype=np.float64)
        ghost_block[tuple(dst)] = means[tuple(src)]
        valid_block = np.zeros(nb, dtype=bool)
        valid_block[tuple(dst)] = np.isfinite(means[tuple(src)])
        recipients &= valid_block
        if not recipients.any():
            continue
        # Write each recipient block's facing slab (thickness x_layers)
        # through one batched fancy-indexed accumulate — only recipient
        # cells are touched, instead of expanding whole block grids to cell
        # resolution.  Recipient blocks are distinct within a face, so the
        # slab cells are disjoint and a plain ``+=`` is exact.
        bx, by, bz = (idx.astype(np.int64) for idx in np.nonzero(recipients))
        vals = ghost_block[recipients]
        if sign > 0:  # neighbour is at higher index: pad the block's top slab
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
    return GSPResult(
        padded=padded.astype(data.dtype),
        pad_mask=pad_mask,
        orig_shape=data.shape,
        block_size=block_size,
        n_padded_blocks=int((~occ & block_occupancy(pad_mask, block_size)).sum()),
    )


def zero_fill(data: np.ndarray, mask: np.ndarray, block_size: int) -> GSPResult:
    """ZF reference: keep the dense grid, leave empty regions at zero."""
    block_size = check_positive_int(block_size, name="block_size")
    values = pad_to_blocks(np.where(mask, data, data.dtype.type(0)), block_size)
    return GSPResult(
        padded=values,
        pad_mask=np.zeros_like(values, dtype=bool),
        orig_shape=data.shape,
        block_size=block_size,
        n_padded_blocks=0,
    )


# ----------------------------------------------------------------------
# brick chunking (strategy format 2): the GSP/ZF region index
# ----------------------------------------------------------------------
#
# A padded GSP/ZF grid compressed as one SZ stream forces every ROI read
# to decode the whole level.  Chunking the grid into independently
# compressed bricks — one container part and one decode unit per brick —
# makes the decoded byte count proportional to the brick-aligned ROI
# volume.  The brick grid is regular (C-order flat indexing, ragged final
# brick per axis), so the "region index" is pure arithmetic; the small
# serialized :class:`BrickTable` travels in the blob as its own part so
# the layout is self-describing and inspectable without the level meta.

_BRICK_TABLE = struct.Struct("<H3I3II")
_BRICK_TABLE_VERSION = 1


@dataclass(frozen=True)
class BrickTable:
    """Geometry of a brick-chunked padded grid (regular tiling).

    ``padded_shape`` is the block-padded grid the bricks tile;
    ``orig_shape`` the level extents the decoder crops back to;
    ``brick_size`` the brick edge (final brick per axis may be ragged).
    """

    padded_shape: tuple[int, int, int]
    orig_shape: tuple[int, int, int]
    brick_size: int

    def grid(self) -> tuple[int, int, int]:
        """Bricks per axis."""
        return tuple(-(-dim // self.brick_size) for dim in self.padded_shape)

    def n_bricks(self) -> int:
        gx, gy, gz = self.grid()
        return gx * gy * gz

    def boxes(self) -> list[tuple[tuple[int, int], ...]]:
        """Half-open padded-grid box of every brick, flat C order."""
        return brick_boxes(self.padded_shape, self.brick_size)


def brick_boxes(
    padded_shape: tuple[int, int, int], brick_size: int
) -> list[tuple[tuple[int, int], ...]]:
    """Half-open boxes of a regular brick tiling, flat C order."""
    brick_size = check_positive_int(brick_size, name="brick_size")
    spans = [
        [(lo, min(lo + brick_size, dim)) for lo in range(0, dim, brick_size)]
        for dim in padded_shape
    ]
    return [(sx, sy, sz) for sx in spans[0] for sy in spans[1] for sz in spans[2]]


def bricks_touching(
    padded_shape: tuple[int, int, int],
    brick_size: int,
    box: tuple[tuple[int, int], ...],
) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """``(flat C-order index, half-open padded-grid box)`` of every brick a
    half-open box intersects.

    The brick grid is regular, so this is arithmetic on the box bounds —
    no table walk, no payload access: the per-axis brick index range is
    ``[lo // brick, ceil(hi / brick))`` clipped to the grid.
    """
    brick_size = check_positive_int(brick_size, name="brick_size")
    grid = tuple(-(-dim // brick_size) for dim in padded_shape)
    spans = [
        [
            (c, (c * brick_size, min((c + 1) * brick_size, dim)))
            for c in range(max(int(lo) // brick_size, 0), min(-(-int(hi) // brick_size), n))
        ]
        for (lo, hi), dim, n in zip(box, padded_shape, grid)
    ]
    return [
        ((i * grid[1] + j) * grid[2] + k, (sx, sy, sz))
        for i, sx in spans[0]
        for j, sy in spans[1]
        for k, sz in spans[2]
    ]


def serialize_brick_table(table: BrickTable) -> bytes:
    """Pack a brick table into the blob's ``L<idx>/bricks`` part."""
    raw = _BRICK_TABLE.pack(
        _BRICK_TABLE_VERSION,
        *table.padded_shape,
        *table.orig_shape,
        table.brick_size,
    )
    return zlib.compress(raw, 1)


def deserialize_brick_table(payload: bytes) -> BrickTable:
    """Invert :func:`serialize_brick_table`."""
    raw = zlib.decompress(payload)
    if len(raw) != _BRICK_TABLE.size:
        raise ValueError("brick table record has the wrong length")
    version, px, py, pz, ox, oy, oz, brick_size = _BRICK_TABLE.unpack(raw)
    if version != _BRICK_TABLE_VERSION:
        raise ValueError(f"unsupported brick table version {version}")
    return BrickTable(
        padded_shape=(px, py, pz),
        orig_shape=(ox, oy, oz),
        brick_size=int(brick_size),
    )
