"""3D baseline: up-sample, merge, and compress one uniform grid (§2.3.2).

The straightforward way to use 3D compression on AMR data: coarse levels
are up-sampled piecewise-constant to the finest resolution, merged into a
single cube, and compressed in one shot.  Its cost is *redundancy* — every
coarse value is replicated ``8**level`` times — so its effective bit-rate
per stored AMR value inflates as coarse levels dominate (catastrophically
so for Run 2's 99.8%-coarse datasets, Table 2).  Its strength is unbroken
spatial context, which wins when the finest level is nearly dense
(Fig. 14c–d); TAC's §4.4 hybrid exploits exactly that crossover.

Per-level error bounds are impossible here — after merging, all points are
equal in the compressor's eyes — which is the second limitation §2.3.2
calls out and §4.5 leverages against it.
"""

from __future__ import annotations

import numpy as np

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.amr.upsample import downsample_mean
from repro.baselines.naive1d import _dataset_meta
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
    level_mask,
    mask_units,
    region_slices,
)
from repro.sz.compressor import SZCompressor, SZConfig
from repro.utils.timer import TimingRecord, timed


class Uniform3DCompressor(PlanExecutorMixin):
    """Up-sample + merge + 3D compression (the paper's 3D baseline)."""

    method_name = "baseline_3d"
    #: Coarse levels are averages of the grid, so a chain sums levels.
    sums_per_unit = False

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
                "the 3D baseline merges levels before compression and cannot "
                "apply per-level error bounds (see paper §2.3.2)"
            )
        timings = timings if timings is not None else TimingRecord()
        eb_abs = resolve_global_eb(dataset, error_bound, mode)
        with timed(timings, "preprocess"):
            uniform = dataset.to_uniform()
        with timed(timings, "compress"):
            blob = self.codec.compress(uniform, eb_abs, mode="abs")
        out = CompressedDataset(
            method=self.method_name,
            dataset_name=dataset.name,
            original_bytes=dataset.original_bytes(),
            n_values=dataset.total_points(),
            timings=timings,
        )
        out.parts["uniform"] = blob
        if self.store_masks:
            for lvl in dataset.levels:
                out.parts[f"{MASK_PREFIX}L{lvl.level}"] = pack_mask(lvl.mask)
        meta = _dataset_meta(dataset, [eb_abs] * dataset.n_levels)
        meta["uniform_n"] = dataset.finest.n
        out.meta = meta
        return out

    def build_decode_plan(
        self, comp: CompressedDataset, levels=None, box=None
    ) -> DecompressionPlan:
        """One unit: the merged uniform grid (every level and every box
        derives from it), plus the requested levels' masks."""
        indices = range(len(comp.meta["shapes"])) if levels is None else levels
        uniform = DecodeUnit(
            key="uniform",
            level=-1,
            part_names=("uniform",),
            decode=lambda: self.codec.decompress(comp.parts["uniform"]),
        )
        return DecompressionPlan(
            [uniform, *(unit for idx in indices for unit in mask_units(comp, idx))]
        )

    def assemble(self, comp, level: int, results: dict, structure, box) -> AMRLevel:
        """Block-average the uniform grid down to one level, then cut ``box``.

        A coarse value was replicated into its ``8**level`` children before
        compression; averaging the reconstructed children recovers a value
        within the same error bound (a mean of values each within ``eb`` of
        the same original is within ``eb``).
        """
        mask = level_mask(comp, results, structure, level, box)
        window = self._grid(comp, results, level)[region_slices(box)]
        data = np.where(mask, window, window.dtype.type(0))
        return AMRLevel(data=data, mask=mask, level=level)

    def _grid(self, comp, results: dict, level: int) -> np.ndarray:
        """The uniform grid averaged down to ``level`` — from the next finer
        level's, kept in ``results`` so a read derives each level once."""
        if level == 0:
            return results["uniform"]
        key = f"uniform/L{level}"
        if key not in results:
            finer = self._grid(comp, results, level - 1)
            results[key] = downsample_mean(finer, comp.meta["ratio"])
        return results[key]

    def decompress_uniform(self, comp: CompressedDataset) -> np.ndarray:
        """The merged uniform grid itself (the post-analysis view)."""
        return self.codec.decompress(comp.parts["uniform"])
