"""zMesh baseline: level-interleaved reordering + 1D compression [Luo'21].

zMesh re-orders AMR values so points that are geometric neighbours sit next
to each other in one 1D array, then compresses that array.  Following the
paper's Fig. 16, we traverse the AMR tree depth-first from the coarsest
grid: visiting a coarse cell emits its value if it is stored at that level,
otherwise descends into its 2×2×2 children on the next finer level — which
interleaves all levels along a spatial path.

On *tree-based* (non-redundant) data this traversal jumps between levels
whose values differ systematically (finer cells only exist where values
exceeded a refinement threshold), injecting artificial discontinuities —
the reason the paper measures zMesh slightly *worse* than the plain 1D
baseline on Nyx data (§4.4), a shape our reproduction preserves.

The traversal key of a stored cell is its root-to-cell path in base 8,
zero-padded to the maximum depth; sorting all stored cells by key realizes
the DFS order without materializing the tree.
"""

from __future__ import annotations

import numpy as np

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.baselines.naive1d import _dataset_meta, _scattered
from repro.core.container import (
    MASK_PREFIX,
    CompressedDataset,
    pack_mask,
    resolve_global_eb,
)
from repro.core.plan import (
    DecodeUnit,
    DecompressionPlan,
    PlanExecutorMixin,
    level_box,
    level_mask,
    mask_units,
)
from repro.sz.compressor import SZCompressor, SZConfig
from repro.utils.timer import TimingRecord, timed


def level_traversal_keys(mask: np.ndarray, level: int, n_levels: int) -> np.ndarray:
    """DFS keys of one level's stored cells (C scan order of the mask).

    A cell at level ``level`` (0 = finest) sits ``depth = (L-1) - level``
    below the coarsest grid.  Its key is the coarsest ancestor's linear
    index followed by the ``depth`` child octant digits, then padded with
    zero digits to the maximum depth so stored ancestors sort before the
    subtree positions they would have contained (no stored cell's path
    prefixes another's — tree-based AMR stores each point once).
    """
    coords = np.argwhere(mask)
    if coords.size == 0:
        return np.zeros(0, dtype=np.int64)
    depth = (n_levels - 1) - level
    i, j, k = coords[:, 0], coords[:, 1], coords[:, 2]
    n_coarse = mask.shape[0] >> depth
    ci, cj, ck = i >> depth, j >> depth, k >> depth
    keys = ((ci * n_coarse + cj) * n_coarse + ck).astype(np.int64)
    for step in range(1, depth + 1):
        shift = depth - step
        digit = (((i >> shift) & 1) << 2) | (((j >> shift) & 1) << 1) | ((k >> shift) & 1)
        keys = keys * 8 + digit
    # Pad to uniform depth (max over the dataset).
    keys <<= 3 * (n_levels - 1 - depth)
    return keys


def zmesh_order(dataset: AMRDataset) -> np.ndarray:
    """Permutation applying the zMesh traversal to the concatenation of
    all levels' values (finest-first concatenation order)."""
    return _order([lvl.mask for lvl in dataset.levels])


def _order(masks: list[np.ndarray]) -> np.ndarray:
    """:func:`zmesh_order` from the level masks alone (finest first)."""
    keys = [level_traversal_keys(mask, idx, len(masks)) for idx, mask in enumerate(masks)]
    return np.argsort(np.concatenate(keys), kind="stable")


class ZMeshCompressor(PlanExecutorMixin):
    """zMesh re-ordering + single-stream 1D compression."""

    method_name = "zmesh"
    #: The stream is permuted and scattered, nothing computed.
    sums_per_unit = True

    def __init__(self, sz: SZConfig | None = None, store_masks: bool = True):
        self.codec = SZCompressor(sz or SZConfig())
        self.store_masks = store_masks

    def compress(
        self,
        dataset: AMRDataset,
        error_bound: float,
        mode: str = "rel",
        per_level_scale=None,
        timings: TimingRecord | None = None,
    ) -> CompressedDataset:
        if per_level_scale is not None:
            raise ValueError(
                "zMesh interleaves all levels into one stream and cannot "
                "apply per-level error bounds (one of TAC's advantages)"
            )
        timings = timings if timings is not None else TimingRecord()
        eb_abs = resolve_global_eb(dataset, error_bound, mode)
        with timed(timings, "preprocess"):
            values = np.concatenate([lvl.values() for lvl in dataset.levels])
            order = zmesh_order(dataset)
            reordered = values[order]
        with timed(timings, "compress"):
            blob = self.codec.compress(reordered, eb_abs, mode="abs")
        out = CompressedDataset(
            method=self.method_name,
            dataset_name=dataset.name,
            original_bytes=dataset.original_bytes(),
            n_values=dataset.total_points(),
            timings=timings,
        )
        out.parts["stream"] = blob
        if self.store_masks:
            for lvl in dataset.levels:
                out.parts[f"{MASK_PREFIX}L{lvl.level}"] = pack_mask(lvl.mask)
        out.meta = _dataset_meta(dataset, [eb_abs] * dataset.n_levels)
        return out

    def build_decode_plan(
        self, comp: CompressedDataset, levels=None, box=None
    ) -> DecompressionPlan:
        """The interleaved stream and every level's mask, whatever the
        levels or the box.

        zMesh is inherently monolithic — every level's values are woven
        into one spatial traversal, whose order is a function of *all* the
        masks — so any read needs all of it.
        """
        stream = DecodeUnit(
            key="stream",
            level=-1,
            part_names=("stream",),
            decode=None,
            sz_blob=lambda: comp.parts["stream"],
        )
        masks = [u for idx in range(len(comp.meta["shapes"])) for u in mask_units(comp, idx)]
        return DecompressionPlan([stream, *masks])

    def assemble(self, comp, level: int, results: dict, structure, box) -> AMRLevel:
        """Invert the traversal once per read (kept in ``results``): each
        level's ``(mask, stored values)``; a level is then a scatter and a
        slice."""
        if "levels" not in results:
            masks = [
                level_mask(comp, results, structure, idx, level_box(shape))
                for idx, shape in enumerate(comp.meta["shapes"])
            ]
            values = np.empty_like(results["stream"])
            values[_order(masks)] = results["stream"]
            ends = np.cumsum([np.count_nonzero(mask) for mask in masks])
            results["levels"] = list(zip(masks, np.split(values, ends[:-1])))
        return _scattered(*results["levels"][level], level, box)
