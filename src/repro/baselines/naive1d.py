"""1D baseline: compress each AMR level's values as a flat 1D array.

This is the paper's "naive" comparator (§2.3.1, Figs. 14–15): every level's
stored values — in C scan order of its valid cells — go through the 1D
compressor independently.  Spatial context is mostly lost (neighbours in
the 1D stream are often far apart in space), which is exactly why TAC's 3D
level-wise compression beats it; but it has no pre-processing cost, making
it the throughput winner on Run 1 (Table 2).
"""

from __future__ import annotations

import numpy as np

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.core.adaptive_eb import _resolve_scales
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
    region_slices,
)
from repro.sz.compressor import SZCompressor, SZConfig
from repro.utils.timer import TimingRecord, timed


class Naive1DCompressor(PlanExecutorMixin):
    """Per-level 1D compression (the paper's 1D baseline)."""

    method_name = "baseline_1d"
    #: A level's values are scattered into its mask, nothing computed.
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
        """Compress each level's masked values as one 1D stream.

        ``per_level_scale`` multiplies the resolved absolute bound per level
        (level-wise methods support adaptive bounds; see §4.5).
        """
        timings = timings if timings is not None else TimingRecord()
        base_eb = resolve_global_eb(dataset, error_bound, mode)
        scales = _resolve_scales(per_level_scale, dataset.n_levels)
        out = CompressedDataset(
            method=self.method_name,
            dataset_name=dataset.name,
            original_bytes=dataset.original_bytes(),
            n_values=dataset.total_points(),
            timings=timings,
        )
        level_ebs = []
        for lvl in dataset.levels:
            eb_abs = base_eb * scales[lvl.level]
            level_ebs.append(eb_abs)
            with timed(timings, "compress"):
                values = lvl.values()
                blob = self.codec.compress(values, eb_abs, mode="abs")
            out.parts[f"L{lvl.level}/values"] = blob
            if self.store_masks:
                out.parts[f"{MASK_PREFIX}L{lvl.level}"] = pack_mask(lvl.mask)
        out.meta = _dataset_meta(dataset, level_ebs)
        return out

    def build_decode_plan(
        self, comp: CompressedDataset, levels=None, box=None
    ) -> DecompressionPlan:
        """One decode unit per level's 1D value stream (plus its mask); a
        1D stream has no geometry, so ``box`` prunes nothing."""
        n_levels = len(comp.meta["shapes"])
        units = []
        for idx in range(n_levels) if levels is None else sorted(set(levels)):
            name = f"L{idx}/values"
            units.append(
                DecodeUnit(
                    key=name,
                    level=idx,
                    part_names=(name,),
                    decode=None,
                    sz_blob=lambda name=name: comp.parts[name],
                )
            )
            units.extend(mask_units(comp, idx))
        return DecompressionPlan(units)

    def assemble(self, comp, level: int, results: dict, structure, box) -> AMRLevel:
        mask = level_mask(comp, results, structure, level, level_box(comp.meta["shapes"][level]))
        return _scattered(mask, results[f"L{level}/values"], level, box)


def _scattered(mask: np.ndarray, values: np.ndarray, level: int, box) -> AMRLevel:
    """``box`` of the level whose stored ``values`` (C scan order of the
    valid cells) sit where ``mask`` is set."""
    data = np.zeros(mask.shape, dtype=values.dtype)
    data[mask] = values
    slices = region_slices(box)
    return AMRLevel(data=data[slices], mask=mask[slices], level=level)


def _dataset_meta(dataset: AMRDataset, level_ebs: list[float]) -> dict:
    return {
        "name": dataset.name,
        "field": dataset.field,
        "ratio": dataset.ratio,
        "box_size": dataset.box_size,
        "shapes": [list(lvl.shape) for lvl in dataset.levels],
        "level_ebs": level_ebs,
    }
