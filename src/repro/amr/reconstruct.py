"""Uniform-grid reconstruction and distortion bookkeeping.

The paper evaluates distortion (PSNR, power spectrum, halo finder) on the
*merged uniform-resolution* view of the data — the form analysts actually
consume (Fig. 2).  These helpers build that view for original/decompressed
dataset pairs and validate structural equality between them.
"""

from __future__ import annotations

import numpy as np

from repro.amr.hierarchy import AMRDataset


def check_same_structure(a: AMRDataset, b: AMRDataset) -> None:
    """Raise unless ``a`` and ``b`` share grids and masks (values may differ)."""
    if a.n_levels != b.n_levels:
        raise ValueError(f"level count mismatch: {a.n_levels} vs {b.n_levels}")
    for la, lb in zip(a.levels, b.levels):
        if la.shape != lb.shape:
            raise ValueError(f"level {la.level} shape mismatch: {la.shape} vs {lb.shape}")
        if not np.array_equal(la.mask, lb.mask):
            raise ValueError(f"level {la.level} masks differ")


def uniform_pair(original: AMRDataset, decompressed: AMRDataset) -> tuple[np.ndarray, np.ndarray]:
    """Uniform views of an original/decompressed pair, structure-checked."""
    check_same_structure(original, decompressed)
    return original.to_uniform(), decompressed.to_uniform()


def max_level_errors(original: AMRDataset, decompressed: AMRDataset) -> list[float]:
    """Maximum absolute error per level (finest first)."""
    check_same_structure(original, decompressed)
    out = []
    for lo, ld in zip(original.levels, decompressed.levels):
        if lo.n_points() == 0:
            out.append(0.0)
            continue
        diff = lo.values().astype(np.float64) - ld.values().astype(np.float64)
        out.append(float(np.max(np.abs(diff))))
    return out
