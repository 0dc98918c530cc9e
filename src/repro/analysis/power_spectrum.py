"""Matter power spectrum P(k) and its compression-error criterion (§4.2 m.5).

The paper runs Gimlet's power spectrum over the (uniform-resolution) baryon
density and accepts a decompressed snapshot when the relative P(k) error
stays under 1% for all k < 10.  We reproduce the standard estimator:

1. density contrast ``δ = ρ/ρ̄ − 1`` on the uniform grid;
2. ``P(k) ∝ |FFT(δ)|²`` with physical wavenumber normalization
   ``k = 2π·n/L`` (L = box edge in Mpc);
3. spherical binning over wavenumber shells.

Relative errors compare decompressed vs original spectra bin by bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: The paper's acceptance criterion.
DEFAULT_MAX_K = 10.0
DEFAULT_TOLERANCE = 0.01


@dataclass(frozen=True)
class PowerSpectrum:
    """Binned spectrum: shell centers ``k`` and mean power ``p``."""

    k: np.ndarray
    p: np.ndarray
    box_size: float

    def __post_init__(self):
        if self.k.shape != self.p.shape:
            raise ValueError("k and p must align")


def density_contrast(density: np.ndarray) -> np.ndarray:
    """``δ = ρ/ρ̄ − 1`` (dimensionless, zero mean)."""
    density = np.asarray(density, dtype=np.float64)
    mean = float(density.mean())
    if mean == 0.0:
        raise ValueError("density field has zero mean; contrast undefined")
    return density / mean - 1.0


def power_spectrum(
    density: np.ndarray, *, box_size: float = 64.0, n_bins: int | None = None
) -> PowerSpectrum:
    """Spherically-binned matter power spectrum of a uniform density cube."""
    density = np.asarray(density)
    if density.ndim != 3 or len(set(density.shape)) != 1:
        raise ValueError(f"power spectrum expects a cube, got shape {density.shape}")
    n = density.shape[0]
    if n_bins is None:
        n_bins = n // 2
    delta = density_contrast(density)
    # rfftn halves the last axis; weight duplicate modes accordingly.
    delta_k = np.fft.rfftn(delta)
    power = np.abs(delta_k) ** 2 / float(n) ** 3
    weights = np.full(power.shape, 2.0)
    weights[..., 0] = 1.0
    if n % 2 == 0:
        weights[..., -1] = 1.0

    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=box_size / n)
    k3 = 2.0 * np.pi * np.fft.rfftfreq(n, d=box_size / n)
    kmag = np.sqrt(
        k1[:, None, None] ** 2 + k1[None, :, None] ** 2 + k3[None, None, :] ** 2
    )

    k_nyq = np.pi * n / box_size
    edges = np.linspace(0.0, k_nyq, n_bins + 1)
    which = np.digitize(kmag.ravel(), edges) - 1
    which = np.clip(which, 0, n_bins - 1)
    flat_w = weights.ravel()
    sum_p = np.bincount(which, weights=(power.ravel() * flat_w), minlength=n_bins)
    sum_k = np.bincount(which, weights=(kmag.ravel() * flat_w), minlength=n_bins)
    counts = np.bincount(which, weights=flat_w, minlength=n_bins)
    valid = counts > 0
    # Skip the DC bin (k ~ 0 carries no structure information).
    valid[0] = False
    centers = np.where(valid, sum_k / np.maximum(counts, 1), 0.0)
    means = np.where(valid, sum_p / np.maximum(counts, 1), 0.0)
    return PowerSpectrum(k=centers[valid], p=means[valid], box_size=box_size)


def relative_error(original: PowerSpectrum, other: PowerSpectrum) -> np.ndarray:
    """Per-bin relative error ``|P' − P| / P`` (requires matching binning)."""
    if original.k.shape != other.k.shape or not np.allclose(original.k, other.k):
        raise ValueError("spectra must share binning; compute both with the same grid")
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(other.p - original.p) / np.abs(original.p)
    return np.where(original.p != 0, err, 0.0)


def max_error_below_k(
    original: PowerSpectrum, other: PowerSpectrum, max_k: float = DEFAULT_MAX_K
) -> float:
    """Worst relative error over bins with ``k < max_k`` (paper's statistic)."""
    err = relative_error(original, other)
    in_range = original.k < max_k
    if not in_range.any():
        return 0.0
    return float(err[in_range].max())
