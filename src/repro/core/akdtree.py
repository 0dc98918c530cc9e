"""AKDTree — adaptive k-d tree pre-process (paper §3.2, Alg. 2, Figs. 8–9).

OpST's bounded updates get expensive as density rises; AKDTree removes
empty regions in O(N·log N / 3) by *splitting* instead of growing:

* the level (padded to a power-of-two cube of unit blocks) is split
  recursively; a node stops when its sub-block is entirely empty or
  entirely full (leaves are "empty or full", Fig. 8);
* splits halve the node along ONE axis, chosen to make the two children as
  *unbalanced* in occupancy as possible (max count-difference), which herds
  occupied blocks together and yields large full leaves;
* node shapes cycle cube → flat (2:2:1) → slim (2:1:1) → half-size cube
  (Fig. 9); the octant counts computed once per *cube* node are reused by
  its flat/slim descendants, so counting happens every third level — the
  source of the 1/3 factor in the complexity.

Occupancy counts come from one integral image (O(1) per box), matching the
reuse scheme of Alg. 2 without threading count arrays through the
recursion.  Full leaves of equal volume but different orientation are
aligned onto a canonical shape (a transpose, "instead of transposing them
in the memory" we transpose views at gather time) and stacked per shape
into 4D arrays.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocks import (
    BlockExtraction,
    box_count,
    canonical_orientation,
    collect_blocks,
    integral_image,
)


def _next_pow2(value: int) -> int:
    return 1 << (int(value) - 1).bit_length()


def akdtree_plan(
    occ: np.ndarray, *, adaptive: bool = True
) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """Run the adaptive k-d tree; return full leaves as ``(origin, shape)``.

    Origins/shapes are in unit-block coordinates on the power-of-two padded
    grid.  Leaves are disjoint and cover every occupied block exactly once
    (empty leaves are discarded).

    ``adaptive=False`` replaces the max-difference axis choice with the
    fixed x→y→z round-robin of a classic k-d tree — the strawman the
    paper's Fig. 8 argues against; kept for the ablation study.
    """
    occ = np.asarray(occ, dtype=bool)
    side = _next_pow2(max(occ.shape)) if occ.size else 1
    if occ.shape != (side, side, side):
        padded = np.zeros((side, side, side), dtype=bool)
        padded[: occ.shape[0], : occ.shape[1], : occ.shape[2]] = occ
        occ = padded
    table = integral_image(occ)
    leaves: list[tuple[tuple[int, int, int], tuple[int, int, int]]] = []
    # Explicit stack: deep trees on large grids would overflow Python's
    # recursion limit, and a stack keeps the traversal allocation-free.
    stack: list[tuple[tuple[int, int, int], tuple[int, int, int]]] = [
        ((0, 0, 0), (side, side, side))
    ]
    while stack:
        origin, shape = stack.pop()
        count = int(
            box_count(
                table,
                origin,
                (origin[0] + shape[0], origin[1] + shape[1], origin[2] + shape[2]),
            )
        )
        volume = shape[0] * shape[1] * shape[2]
        if count == 0:
            continue
        if count == volume:
            leaves.append((origin, shape))
            continue
        if adaptive:
            axis = _choose_axis(table, origin, shape)
        else:
            # Fixed round-robin: split the first splittable axis in x, y, z
            # order (ties with node shape keep the classic cycling pattern).
            axis = max(range(3), key=lambda ax: shape[ax])
            for candidate in range(3):
                if shape[candidate] == max(shape):
                    axis = candidate
                    break
        half = shape[axis] // 2
        left_shape = list(shape)
        left_shape[axis] = half
        right_origin = list(origin)
        right_origin[axis] = origin[axis] + half
        right_shape = list(shape)
        right_shape[axis] = shape[axis] - half
        stack.append((tuple(right_origin), tuple(right_shape)))
        stack.append((origin, tuple(left_shape)))
    return leaves


def _choose_axis(table: np.ndarray, origin, shape) -> int:
    """Axis whose halving maximizes the children's occupancy difference.

    Cube nodes consider all three axes (the diff_x/diff_y/diff_z rule),
    flat nodes their two long axes, slim nodes simply their longest axis —
    exactly Alg. 2's case analysis.  Axes of extent 1 cannot split.
    """
    longest = max(shape)
    candidates = [axis for axis in range(3) if shape[axis] > 1]
    if len(candidates) == 1:
        return candidates[0]
    distinct = len(set(shape))
    if distinct > 1:
        # flat (one short axis) -> split a long axis; slim (one long axis)
        # -> split the longest.  Both reduce to "consider the longest axes".
        candidates = [axis for axis in candidates if shape[axis] == longest]
        if len(candidates) == 1:
            return candidates[0]
    best_axis = candidates[0]
    best_diff = -1
    for axis in candidates:
        half = shape[axis] // 2
        left_origin = origin
        left_hi = list((origin[0] + shape[0], origin[1] + shape[1], origin[2] + shape[2]))
        left_hi[axis] = origin[axis] + half
        left = int(box_count(table, left_origin, tuple(left_hi)))
        total_hi = (origin[0] + shape[0], origin[1] + shape[1], origin[2] + shape[2])
        total = int(box_count(table, origin, total_hi))
        diff = abs(total - 2 * left)  # |right - left|
        if diff > best_diff:
            best_diff = diff
            best_axis = axis
    return best_axis


def akdtree_extract(data: np.ndarray, mask: np.ndarray, block_size: int) -> BlockExtraction:
    """Full AKDTree pre-process: plan full leaves and gather them by shape.

    ``data`` may hold anything outside ``mask``: each gathered leaf is
    zeroed there (:meth:`~repro.core.blocks.LevelBlocks.gather`).
    """
    blocks = collect_blocks(data, mask, block_size)
    block_size = blocks.block_size
    occ = blocks.occ
    leaves = akdtree_plan(occ)
    # The k-d grid is padded to a power-of-two cube of blocks, and the
    # extraction records that extent as its (scatter) grid.  The leaves
    # need no grown copy of the level to be gathered from: a full leaf
    # holds occupied blocks only, and padding blocks are empty, so every
    # leaf lies inside the level's own block grid.
    kd_side = _next_pow2(max(occ.shape)) * block_size if occ.size else block_size
    extraction = blocks.extraction(tuple(max(kd_side, dim) for dim in blocks.data.shape))
    if not leaves:
        return extraction
    grouped: dict[tuple[int, int, int], list[tuple[tuple[int, int, int], int]]] = {}
    for origin_blocks, shape_blocks in leaves:
        cell_shape = tuple(int(s) * block_size for s in shape_blocks)
        canonical, perm_id = canonical_orientation(cell_shape)
        origin_cells = tuple(int(o) * block_size for o in origin_blocks)
        grouped.setdefault(canonical, []).append((origin_cells, perm_id))
    for canonical, entries in sorted(grouped.items()):
        origins = np.asarray([e[0] for e in entries], dtype=np.int32)
        perm_ids = np.asarray([e[1] for e in entries], dtype=np.uint8)
        extraction.groups[canonical] = blocks.gather(origins, canonical, perm_ids)
        extraction.coords[canonical] = origins
        extraction.perms[canonical] = perm_ids
    return extraction
