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

Everything but the final write happens on the unit-block grid (the block
pre-collection of TAC+, arXiv 2301.01901): occupancy comes from the
level's pre-collection, each face direction gathers the boundary slabs of
just the occupied blocks that face an empty one and reduces them to one
mean per block, and the sums and counts of what reaches an empty block are
``(nbx, nby, nbz)`` arrays.  With the default full-block ``pad_layers``
every cell of an empty block receives the same value, so the result is one
broadcast write into the recipient blocks, in the level's dtype; only a
thinner ``pad_layers`` needs its accumulators at cell resolution.

``zero_fill`` (ZF) is kept as the reference the paper compares against in
Fig. 12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocks import collect_blocks, masked_grid
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


def _block_view(arr: np.ndarray, block: int) -> np.ndarray:
    """``(nbx, block, nby, block, nbz, block)`` view of a block-padded grid."""
    nx, ny, nz = arr.shape
    return arr.reshape(nx // block, block, ny // block, block, nz // block, block)


def _cells(coords, spans) -> tuple:
    """Index into a :func:`_block_view`: the in-block cell ranges ``spans``
    (one slice per axis) of the blocks at ``coords`` (one index array per
    axis).  Indexing with it gives ``(len(coords[0]), *extents)``."""
    return (coords[0], spans[0], coords[1], spans[1], coords[2], spans[2])


def _slab(axis: int, sign: int, layers: int, block: int) -> list[slice]:
    """In-block ranges of the ``layers``-thick slab at face ``(axis, sign)``."""
    spans = [slice(None)] * 3
    spans[axis] = slice(0, layers) if sign < 0 else slice(block - layers, block)
    return spans


def _slab_means(values6, valid6, coords, spans) -> np.ndarray:
    """Mean over the valid cells of slab ``spans`` of each block at
    ``coords``, in float64; NaN where the slab holds no valid cell.
    ``values6`` is zero outside ``valid6``, so a plain sum is the sum of
    the valid cells.

    The sum runs in the order NumPy reduces the same slab of a whole
    ``(nbx, ·, nby, ·, nbz, ·)`` grid over its in-block axes — pairwise
    along each contiguous row, the row sums then added one at a time in C
    order — so the means, and with them the padded grid and every blob made
    from it, do not depend on which blocks were gathered.  A row is the
    last in-block axis, extended over the in-block axes before it for as
    long as the block axis in between has extent 1.
    """
    cells = _cells(coords, spans)
    valid = valid6[cells]
    values = values6[cells].astype(np.float64)
    n_blocks, lx, ly, lz = values.shape
    _nbx, _, nby, _, nbz, _ = values6.shape
    row = lz * (ly if nbz == 1 else 1) * (lx if nbz == 1 and nby == 1 else 1)
    rows = values.reshape(n_blocks, -1, row).sum(axis=2)
    with np.errstate(invalid="ignore"):
        return np.add.accumulate(rows, axis=1)[:, -1] / valid.sum(axis=(1, 2, 3))


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
        Level values and validity mask.  ``data`` may hold anything
        outside ``mask``: the padded grid is a new array, zero there
        except where a ghost is written
        (:func:`~repro.core.blocks.masked_grid`), so the result owns it.
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
    avg_layers = check_positive_int(avg_layers, name="avg_layers")
    blocks = collect_blocks(data, mask, block_size, masked=True)
    block_size = blocks.block_size
    avg_layers = min(avg_layers, block_size)
    x_layers = block_size if pad_layers is None else min(int(pad_layers), block_size)
    if x_layers <= 0:
        raise ValueError("pad_layers must be positive")

    occ = blocks.occ
    nb = occ.shape
    # Written through its block view: the masked collection is C-ordered
    # and this call's own.
    padded = blocks.data
    padded6 = _block_view(padded, block_size)
    valid6 = _block_view(blocks.mask, block_size)
    # Sums and counts of the ghost values reaching each empty block: one
    # entry per block when every face fills the whole block, else per cell.
    res = 1 if x_layers == block_size else block_size
    total = np.zeros((nb[0], res, nb[1], res, nb[2], res), dtype=np.float64)
    count = np.zeros(total.shape, dtype=np.int32)
    for axis, sign in _FACES:
        # Empty blocks whose (axis, sign) neighbour is non-empty.
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
        # Ghost value = mean of the neighbour's slab facing us.
        means = _slab_means(
            padded6, valid6, neighbours, _slab(axis, -sign, avg_layers, block_size)
        )
        reached = np.isfinite(means)
        # Recipient blocks are distinct within a face, so a plain fancy
        # ``+=`` is exact.
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
    return GSPResult(
        padded=padded,
        pad_mask=pad_mask,
        orig_shape=data.shape,
        block_size=block_size,
        n_padded_blocks=int(hit.any(axis=(1, 3, 5)).sum()),
    )


def zero_fill(data: np.ndarray, mask: np.ndarray, block_size: int) -> GSPResult:
    """ZF reference: keep the dense grid, leave empty regions at zero.

    ``data`` may hold anything outside ``mask``: the grid is masked and
    padded in one pass (:func:`~repro.core.blocks.masked_grid`), a new
    array the result owns.
    """
    block_size = check_positive_int(block_size, name="block_size")
    values = masked_grid(data, mask, block_size)
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
# brick per axis), so the "region index" is pure arithmetic on the brick
# edge and padded shape the level meta records.


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
