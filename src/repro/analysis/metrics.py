"""Generic compression-quality metrics (paper §4.2, metrics 1–4).

Definitions follow the paper exactly:

* compression ratio = original bytes / compressed bytes and bit-rate =
  amortized bits per stored value (CR · bit-rate = 32 for
  single-precision input) are a compressed dataset's own ``ratio()`` and
  ``bit_rate()``;
* PSNR = ``20·log10(range) − 10·log10(MSE)`` with ``range`` the value range
  of the *original* data.
"""

from __future__ import annotations

import numpy as np


def value_range(data: np.ndarray) -> float:
    """Peak-to-peak range of a dataset (PSNR reference)."""
    data = np.asarray(data)
    if data.size == 0:
        return 0.0
    return float(data.max()) - float(data.min())


def mse(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Mean squared error in float64."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstructed, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.mean((a - b) ** 2))


def psnr(original: np.ndarray, reconstructed: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (``inf`` for exact reconstruction)."""
    rng = value_range(original)
    err = mse(original, reconstructed)
    if err == 0.0:
        return float("inf")
    if rng == 0.0:
        return float("-inf") if err > 0 else float("inf")
    return 20.0 * np.log10(rng) - 10.0 * np.log10(err)


def throughput_mb_s(n_bytes: int, seconds: float) -> float:
    """Throughput in MB/s over the *original* data size (paper metric 3)."""
    if seconds <= 0:
        return float("inf")
    return n_bytes / 1e6 / seconds
