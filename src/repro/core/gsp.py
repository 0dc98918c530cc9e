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

The padding is computed on the unit-block grid (the block pre-collection
of TAC+, arXiv 2301.01901) and never written into a level-sized grid:
occupancy comes from the mask, each face direction gathers the boundary
slabs of just the occupied blocks that face an empty one — from the
level's own data, through its mask — and reduces them to one mean per
block, and the sums and counts of what reaches an empty block are kept for
the reached blocks only.  With the default full-block ``pad_layers`` every
cell of a reached block receives the same value, so a block holds one
ghost value; only a thinner ``pad_layers`` keeps a block of cells per
reached block.  The result, a :class:`GSPResult`, writes the padded grid
one x-range at a time (:meth:`GSPResult.slab`): the level's values inside
its mask, the ghosts, zero elsewhere.  The writer asks for one brick slab
at a time, encodes it and lets it go (``TACCompressor._encode_bricks``).

``zero_fill`` (ZF) is kept as the reference the paper compares against in
Fig. 12: the same result with no ghosts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.blocks import block_occupancy
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
    """A GSP/ZF level on its unit-block grid: everything the padded grid
    holds, without its cells.

    ``data`` and ``mask`` are the level's own arrays (not copies; ``data``
    may hold anything outside the mask), ``occ`` its occupancy grid.
    ``ghost_blocks`` lists the blocks a ghost reached, ``(n, 3)`` block
    coordinates in C order, and ``ghosts`` their values in the level's
    dtype: ``(n, 1, 1, 1)`` when each fills its block, ``(n, b, b, b)``
    (zero where no thin shell reached) with a thinner ``pad_layers``.
    """

    data: np.ndarray
    mask: np.ndarray
    occ: np.ndarray
    padded_shape: tuple[int, int, int]
    block_size: int
    ghost_blocks: np.ndarray
    ghosts: np.ndarray

    @property
    def orig_shape(self) -> tuple[int, int, int]:
        return self.mask.shape

    def total_cells(self) -> int:
        """Cells of the padded grid, all of them encoded."""
        return math.prod(self.padded_shape)

    def n_blocks(self) -> int:
        """Blocks extracted: none, the level is encoded as one grid."""
        return 0

    def slab(self, lo: int, hi: int) -> np.ndarray:
        """Cells ``[lo, hi)`` along x of the padded grid, every y and z, in
        a new C-ordered array: the level's values inside its mask, the
        ghosts, zero elsewhere.  ``hi`` is clipped to the grid.

        The array covers the whole unit blocks the range meets; a range
        that does not start and end on block boundaries is a view of it.
        """
        block = self.block_size
        nx, ny, nz = self.padded_shape
        hi = min(hi, nx)
        base = lo - lo % block
        out = np.zeros((min(-(-hi // block) * block, nx) - base, ny, nz), dtype=self.data.dtype)
        ox, oy, oz = self.orig_shape
        top = min(base + out.shape[0], ox)
        if top > base:
            np.copyto(out[: top - base, :oy, :oz], self.data[base:top], where=self.mask[base:top])
        first, last = np.searchsorted(
            self.ghost_blocks[:, 0], (base // block, base // block + out.shape[0] // block)
        )
        if last > first:
            bx, by, bz = (self.ghost_blocks[first:last] - (base // block, 0, 0)).T
            _block_view(out, block)[bx, :, by, :, bz, :] = self.ghosts[first:last]
        return out[lo - base : hi - base]


def _block_view(arr: np.ndarray, block: int) -> np.ndarray:
    """``(nbx, block, nby, block, nbz, block)`` view of a block-padded grid."""
    nx, ny, nz = arr.shape
    return arr.reshape(nx // block, block, ny // block, block, nz // block, block)


def _slab(axis: int, sign: int, layers: int, block: int) -> list[slice]:
    """In-block ranges of the ``layers``-thick slab at face ``(axis, sign)``."""
    spans = [slice(None)] * 3
    spans[axis] = slice(0, layers) if sign < 0 else slice(block - layers, block)
    return spans


def _slab_means(data, mask, nb, block, coords, spans) -> np.ndarray:
    """Mean over the valid cells of slab ``spans`` of each block at
    ``coords``, in float64; NaN where the slab holds no valid cell.
    The slab cells are gathered from the level's ``data`` through its
    ``mask``: a cell outside it (or past the level's edge) counts as a
    zero, whatever ``data`` holds there.  Blocks wholly inside the level
    are gathered through a block view of its whole-block corner (splitting
    axes needs no copy, whatever the strides), the few at a ragged edge
    cell by cell.

    The sum runs in the order NumPy reduces the same slab of a whole
    ``(nbx, ·, nby, ·, nbz, ·)`` grid over its in-block axes — pairwise
    along each contiguous row, the row sums then added one at a time in C
    order — so the means, and with them the padded grid and every blob made
    from it, do not depend on which blocks were gathered.  A row is the
    last in-block axis, extended over the in-block axes before it for as
    long as the block axis in between has extent 1.
    """
    whole = [dim // block for dim in data.shape]
    inner = (coords[0] < whole[0]) & (coords[1] < whole[1]) & (coords[2] < whole[2])
    corner = tuple(slice(0, n * block) for n in whole)
    view = (whole[0], block, whole[1], block, whole[2], block)
    cells = (coords[0][inner], spans[0], coords[1][inner], spans[1], coords[2][inner], spans[2])
    means = np.empty(len(inner))
    if inner.any():
        means[inner] = _means(
            data[corner].reshape(view)[cells], mask[corner].reshape(view)[cells], nb
        )
    if not inner.all():
        index, inside = [], True
        for axis, span in enumerate(spans):
            cells = coords[axis][~inner, None] * block + np.arange(block)[span]
            shape = [len(cells), 1, 1, 1]
            shape[axis + 1] = cells.shape[1]
            inside = inside & (cells < data.shape[axis]).reshape(shape)
            index.append(np.minimum(cells, data.shape[axis] - 1).reshape(shape))
        means[~inner] = _means(data[tuple(index)], mask[tuple(index)] & inside, nb)
    return means


def _means(values, valid, nb) -> np.ndarray:
    """:func:`_slab_means` of gathered slabs ``(n, lx, ly, lz)``: the
    valid ``values`` summed in the documented order, over their count."""
    values = values.astype(np.float64, copy=False)  # a gather: this call's own
    np.copyto(values, 0.0, where=~valid)
    n_blocks, lx, ly, lz = values.shape
    _nbx, nby, nbz = nb
    row = lz * (ly if nbz == 1 else 1) * (lx if nbz == 1 and nby == 1 else 1)
    rows = values.reshape(n_blocks, -1, row).sum(axis=2)
    with np.errstate(invalid="ignore"):
        return np.add.accumulate(rows, axis=1)[:, -1] / valid.reshape(n_blocks, -1).sum(axis=1)


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
        outside ``mask``: only the cells inside it are read, here and by
        :meth:`GSPResult.slab`, which writes the padded grid.
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
    result = zero_fill(data, mask, block_size)
    block_size = result.block_size
    avg_layers = min(avg_layers, block_size)
    x_layers = block_size if pad_layers is None else min(int(pad_layers), block_size)
    if x_layers <= 0:
        raise ValueError("pad_layers must be positive")

    occ = result.occ
    nb = occ.shape
    reached = []  # per face: the recipient blocks a mean reached, and the means
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
            result.data, result.mask, nb, block_size, neighbours,
            _slab(axis, -sign, avg_layers, block_size),
        )
        ok = np.isfinite(means)
        reached.append((axis, sign, tuple(idx[ok] for idx in recipients), means[ok]))

    hit = np.zeros(nb, dtype=bool)
    for _axis, _sign, blocks, _ in reached:
        hit[blocks] = True
    slot = np.cumsum(hit).reshape(nb) - 1  # a reached block's row, C order
    # Sums and counts of the ghost values reaching each reached block: one
    # entry per block when every face fills the whole block, else per cell.
    res = 1 if x_layers == block_size else block_size
    total = np.zeros((int(hit.sum()), res, res, res), dtype=np.float64)
    count = np.zeros(total.shape, dtype=np.int32)
    for axis, sign, blocks, means in reached:
        # Recipient blocks are distinct within a face, so a plain fancy
        # ``+=`` is exact.
        cells = (slot[blocks], *(_slab(axis, sign, x_layers, block_size) if res > 1 else ()))
        total[cells] += means[:, None, None, None]
        count[cells] += 1
    result.ghost_blocks = np.argwhere(hit)
    result.ghosts = np.divide(total, count, out=np.zeros_like(total), where=count > 0).astype(
        result.data.dtype
    )
    return result


def zero_fill(data: np.ndarray, mask: np.ndarray, block_size: int) -> GSPResult:
    """ZF reference: keep the dense grid, leave empty regions at zero.

    ``data`` may hold anything outside ``mask``: only the cells inside it
    are read, by :meth:`GSPResult.slab`.
    """
    block_size = check_positive_int(block_size, name="block_size")
    if data.shape != mask.shape:
        raise ValueError("data and mask shapes differ")
    mask = np.asarray(mask, dtype=bool)
    return GSPResult(
        data=data,
        mask=mask,
        occ=block_occupancy(mask, block_size),
        padded_shape=tuple(dim + (-dim) % block_size for dim in data.shape),
        block_size=block_size,
        ghost_blocks=np.zeros((0, 3), dtype=np.intp),
        ghosts=np.zeros((0, 1, 1, 1), dtype=data.dtype),
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
