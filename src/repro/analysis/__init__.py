"""Evaluation metrics: generic (PSNR, CR, RD) and cosmology-specific."""

from repro.analysis.halo_finder import (
    DEFAULT_MIN_CELLS,
    DEFAULT_THRESHOLD_FACTOR,
    Halo,
    HaloCatalog,
    HaloComparison,
    compare_biggest_halo,
    find_halos,
    match_halo,
)
from repro.analysis.metrics import (
    mse,
    psnr,
    throughput_mb_s,
    value_range,
)
from repro.analysis.power_spectrum import (
    PowerSpectrum,
    density_contrast,
    max_error_below_k,
    power_spectrum,
    relative_error,
)
from repro.analysis.rate_distortion import (
    DEFAULT_ERROR_BOUNDS,
    RDPoint,
    crossover_bitrate,
    psnr_at_bitrate,
    rd_point,
    rd_sweep,
)

__all__ = [
    "psnr",
    "mse",
    "value_range",
    "throughput_mb_s",
    "PowerSpectrum",
    "power_spectrum",
    "density_contrast",
    "relative_error",
    "max_error_below_k",
    "Halo",
    "HaloCatalog",
    "HaloComparison",
    "find_halos",
    "match_halo",
    "compare_biggest_halo",
    "DEFAULT_THRESHOLD_FACTOR",
    "DEFAULT_MIN_CELLS",
    "RDPoint",
    "rd_point",
    "rd_sweep",
    "psnr_at_bitrate",
    "crossover_bitrate",
    "DEFAULT_ERROR_BOUNDS",
]
