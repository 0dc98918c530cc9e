"""OpST — optimized sparse-tensor pre-process (paper §3.1, Alg. 1, Fig. 6).

NaST's weakness is boundary fraction: tiny unit blocks give the predictor
little context.  OpST instead extracts *maximal cubes* of occupied unit
blocks, so most extracted cells sit deep inside large sub-blocks:

1. A dynamic program computes ``BS[x,y,z]`` — the edge length (in unit
   blocks) of the largest fully-occupied cube whose far corner is block
   ``(x,y,z)`` (3D generalization of the classic maximal-square DP; the
   7-neighbour ``min`` recurrence of Alg. 1 line 6).
2. Scanning anchors in reverse lexicographic order (bottom-right-rear to
   top-left-front), any anchor with ``BS >= 1`` surrenders its cube: the
   cube is extracted, its blocks become empty, and ``BS`` is *partially*
   recomputed — only anchors within ``maxSide`` of the extraction can have
   changed (Alg. 1 line 17's bounded update).
3. Extracted cubes are grouped by edge length into 4D arrays (same-size
   sub-blocks merged "into the same array for easy compression").

The partial-update cost grows with ``maxSide`` and hence with data density,
which is exactly the O(N²·d) behaviour Fig. 13 measures; AKDTree exists to
avoid it at medium densities.

Implementation notes (NumPy idioms): the DP is evaluated as an incremental
erosion — a cube of edge ``s`` is full iff its occupancy box-sum equals
``s³``, an O(1) integral-image query — giving ``BS`` in ``maxSide``
whole-array passes instead of a per-cell Python recurrence.  The bounded
update after an extraction needs no recount at all: occupancy only ever
shrinks, so the new ``BS`` of an anchor is its old one capped by how far
the anchor lies beyond the extracted cube — one ``minimum`` over the
affected index window.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import BlockExtraction, collect_blocks, integral_image


def compute_bs(occ: np.ndarray, max_side: int | None = None) -> np.ndarray:
    """Maximal-cube DP table over an occupancy grid.

    ``BS[x,y,z]`` is the largest ``s`` such that the ``s³`` cube of blocks
    with far corner ``(x,y,z)`` is fully occupied (0 where ``occ`` is
    False).  Equivalent to Alg. 1's min-recurrence; computed by incremental
    erosion with integral-image box counts so each candidate edge length is
    one whole-array comparison.
    """
    occ = np.asarray(occ, dtype=bool)
    bs = occ.astype(np.int32)
    if not occ.any():
        return bs
    table = integral_image(occ)
    nb = occ.shape
    cap = min(nb) if max_side is None else min(max_side, min(nb))
    for s in range(2, cap + 1):
        # Anchors with room for an s-cube: index >= s-1 along each axis.
        xs = np.arange(s - 1, nb[0])
        ys = np.arange(s - 1, nb[1])
        zs = np.arange(s - 1, nb[2])
        if xs.size == 0 or ys.size == 0 or zs.size == 0:
            break
        x1 = xs[:, None, None] + 1
        y1 = ys[None, :, None] + 1
        z1 = zs[None, None, :] + 1
        counts = _box(table, x1 - s, y1 - s, z1 - s, x1, y1, z1)
        full = counts == s**3
        if not full.any():
            break
        view = bs[s - 1 :, s - 1 :, s - 1 :]
        view[full] = s
    return bs


def _box(table, x0, y0, z0, x1, y1, z1):
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


def opst_plan(occ: np.ndarray) -> list[tuple[tuple[int, int, int], int]]:
    """Run Alg. 1 on an occupancy grid; return ``(origin_block, size)`` cubes.

    Origins are in unit-block coordinates; sizes are cube edge lengths in
    unit blocks.  The returned cubes are disjoint and cover every occupied
    block exactly once.
    """
    bs = compute_bs(occ)
    max_side = int(bs.max(initial=0))
    if max_side == 0:
        return []
    nb = bs.shape
    bs_flat = bs.ravel()  # C-order view: cheap per-anchor size lookup
    stride_x = nb[1] * nb[2]
    # reach[max_side - size:][i]: how far the i-th anchor of an update
    # window lies beyond the far corner of a size-``size`` extraction.
    reach = np.maximum(np.arange(1 - max_side, max_side, dtype=bs.dtype), 0)
    cubes: list[tuple[tuple[int, int, int], int]] = []
    # Reverse scan order (Alg. 1 line 11, bottom-right-rear first) over the
    # anchors that start with BS >= 1 — extractions only ever lower BS, so
    # no other anchor can come to hold a cube; one zeroed since is skipped.
    for flat in np.flatnonzero(bs_flat)[::-1].tolist():
        size = int(bs_flat[flat])
        if size < 1:
            continue
        x, rem = divmod(flat, stride_x)
        y, z = divmod(rem, nb[2])
        origin = (x - size + 1, y - size + 1, z - size + 1)
        cubes.append((origin, size))
        # Bounded partial update (Alg. 1's updateBs).  BS was exact, so
        # every cube up to BS at an anchor was full; one is not any more
        # iff it overlaps the extraction, i.e. iff it is larger than the
        # anchor's Chebyshev reach beyond the extraction's far corner —
        # the new BS is the smaller of the two, no recount needed.  Only
        # anchors at or after the origin on every axis and within
        # ``max_side`` of it can overlap, and those past the far corner
        # along x were visited (and zeroed) earlier in the scan — which for
        # a unit cube, most extractions on real levels, leaves nothing.
        if size == 1:
            bs_flat[flat] = 0
            continue
        window = bs[
            origin[0] : x + 1,
            origin[1] : origin[1] + size + max_side - 1,
            origin[2] : origin[2] + size + max_side - 1,
        ]
        beyond = reach[max_side - size :]
        np.minimum(
            window,
            np.maximum(beyond[: window.shape[1], None], beyond[None, : window.shape[2]]),
            out=window,
        )
    return cubes


def opst_extract(data: np.ndarray, mask: np.ndarray, block_size: int) -> BlockExtraction:
    """Full OpST pre-process: plan maximal cubes and gather them by size.

    ``data`` may hold anything outside ``mask``: each gathered cube is
    zeroed there (:meth:`~repro.core.blocks.LevelBlocks.gather`).
    """
    blocks = collect_blocks(data, mask, block_size)
    extraction = blocks.extraction()
    cubes = opst_plan(blocks.occ)
    if not cubes:
        return extraction
    by_size: dict[int, list[tuple[int, int, int]]] = {}
    for origin, size in cubes:
        by_size.setdefault(size, []).append(origin)
    for size, origins_blocks in sorted(by_size.items()):
        edge = size * blocks.block_size
        shape = (edge, edge, edge)
        origins = (np.asarray(origins_blocks, dtype=np.int64) * blocks.block_size).astype(np.int32)
        extraction.groups[shape] = blocks.gather(origins, shape)
        extraction.coords[shape] = origins
        extraction.perms[shape] = np.zeros(origins.shape[0], dtype=np.uint8)
    return extraction
