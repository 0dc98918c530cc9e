"""Tree-based AMR data substrate: hierarchy, resampling, reconstruction, IO."""

from repro.amr.hierarchy import DEFAULT_RATIO, AMRDataset, AMRLevel
from repro.amr.io import load_dataset, save_dataset
from repro.amr.reconstruct import (
    check_same_structure,
    max_level_errors,
    uniform_pair,
)
from repro.amr.upsample import (
    coarsen_mask_all,
    downsample_mean,
    upsample,
)

__all__ = [
    "AMRDataset",
    "AMRLevel",
    "DEFAULT_RATIO",
    "save_dataset",
    "load_dataset",
    "upsample",
    "downsample_mean",
    "coarsen_mask_all",
    "uniform_pair",
    "max_level_errors",
    "check_same_structure",
]
