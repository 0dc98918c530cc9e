"""Rate-distortion sweeps (paper metric 4, Figs. 14–15 machinery).

A rate-distortion curve plots PSNR against bit-rate over a sweep of error
bounds; curves of different compressors are compared at equal bit-rate.
``rd_sweep`` runs one method over a bound ladder and returns structured
points; ``psnr_at_bitrate`` interpolates a curve so crossovers (Fig. 14's
"intersection at bit-rate 1.6") can be located numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.amr.hierarchy import AMRDataset
from repro.amr.reconstruct import uniform_pair
from repro.analysis.metrics import psnr
from repro.utils.timer import TimingRecord

#: A sensible default ladder of value-range-relative bounds.
DEFAULT_ERROR_BOUNDS = (1e-2, 5e-3, 2e-3, 1e-3, 5e-4, 2e-4, 1e-4)


@dataclass(frozen=True)
class RDPoint:
    """One point of a rate-distortion curve."""

    method: str
    dataset: str
    error_bound: float
    bit_rate: float
    ratio: float
    psnr: float
    compress_seconds: float
    decompress_seconds: float


def rd_point(
    compressor,
    dataset: AMRDataset,
    error_bound: float,
    *,
    mode: str = "rel",
    per_level_scale=None,
    include_masks: bool = False,
) -> RDPoint:
    """Compress/decompress once and measure rate + distortion.

    Distortion is evaluated on the merged uniform grid (the paper's
    post-analysis view).  ``include_masks=False`` reports paper-style rates
    (the AMR layout is simulation metadata shared by every method).
    """
    ct = TimingRecord()
    comp = compressor.compress(
        dataset, error_bound, mode=mode, per_level_scale=per_level_scale, timings=ct
    )
    dt = TimingRecord()
    recon = compressor.decompress(comp, timings=dt)
    original_u, recon_u = uniform_pair(dataset, recon)
    return RDPoint(
        method=compressor.method_name,
        dataset=dataset.name,
        error_bound=float(error_bound),
        bit_rate=comp.bit_rate(include_masks=include_masks),
        ratio=comp.ratio(include_masks=include_masks),
        psnr=psnr(original_u, recon_u),
        compress_seconds=ct.total(),
        decompress_seconds=dt.total(),
    )


def rd_sweep(
    compressor,
    dataset: AMRDataset,
    error_bounds=DEFAULT_ERROR_BOUNDS,
    *,
    mode: str = "rel",
    per_level_scale=None,
    include_masks: bool = False,
) -> list[RDPoint]:
    """Rate-distortion curve for one compressor over a bound ladder."""
    return [
        rd_point(
            compressor,
            dataset,
            eb,
            mode=mode,
            per_level_scale=per_level_scale,
            include_masks=include_masks,
        )
        for eb in error_bounds
    ]


def psnr_at_bitrate(points: list[RDPoint], bit_rate: float) -> float:
    """PSNR of a curve at a given bit-rate (linear interpolation).

    Outside the measured range the nearest endpoint is returned, which is
    the conservative choice when hunting for curve crossovers.
    """
    if not points:
        raise ValueError("empty rate-distortion curve")
    ordered = sorted(points, key=lambda p: p.bit_rate)
    rates = np.array([p.bit_rate for p in ordered])
    values = np.array([p.psnr for p in ordered])
    return float(np.interp(bit_rate, rates, values))


def crossover_bitrate(curve_a: list[RDPoint], curve_b: list[RDPoint], n_samples: int = 256) -> float | None:
    """Bit-rate where curve A starts beating curve B (None if it never does).

    Scans the overlapping bit-rate range; used to reproduce Fig. 14's
    crossover observations between TAC and the 3D baseline.
    """
    if not curve_a or not curve_b:
        return None
    lo = max(min(p.bit_rate for p in curve_a), min(p.bit_rate for p in curve_b))
    hi = min(max(p.bit_rate for p in curve_a), max(p.bit_rate for p in curve_b))
    if hi <= lo:
        return None
    for rate in np.linspace(lo, hi, n_samples):
        if psnr_at_bitrate(curve_a, rate) >= psnr_at_bitrate(curve_b, rate):
            return float(rate)
    return None
