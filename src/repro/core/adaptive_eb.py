"""Per-level error-bound tuning (paper §4.5).

Level-wise compression lets TAC spend its error budget where the analysis
is sensitive.  The paper derives the fine:coarse error-bound ratio in three
steps, which this module encodes:

1. **Analysis-ideal ratio on the uniform grid** — power spectrum is a
   global statistic (ideal 1:1); the halo finder keys on high-value fine
   cells (ideal 1:2, i.e. the fine level deserves the *tighter* relative
   share).
2. **Up-sampling correction** — a coarse level's error is replicated
   ``ratio**3`` per level of up-sampling into the uniform view, so its
   bound shrinks by the volume rate (1:1 → 8:1 for a two-level ratio-2
   dataset; 1:2 → 4:1).
3. **Rate-distortion tempering** — at large bounds extra error stops
   buying bit-rate (Fig. 18's flattening curves), so the paper walks the
   ratio back toward parity; taking the geometric mean of the corrected
   ratio and 1 reproduces its final choices exactly: √8 ≈ 2.8 → 3:1 for
   the power spectrum and √4 = 2 → 2:1 for the halo finder.

``suggest_scales`` returns multipliers (coarsest level normalized to 1)
suitable for the ``per_level_scale`` argument of the level-wise
compressors.
"""

from __future__ import annotations

import numpy as np

#: Analysis-ideal fine:coarse ratio on the uniform grid (step 1).
ANALYSIS_BASE_RATIO = {
    "power_spectrum": 1.0,
    "halo_finder": 0.5,
    "uniform": 1.0,
}


def volume_upsample_rate(level: int, ratio: int = 2) -> int:
    """Replication factor of one stored value of ``level`` in the uniform view."""
    if level < 0:
        raise ValueError("level must be non-negative")
    return int(ratio**3) ** level


def tempered_ratio(ideal_ratio: float) -> float:
    """Rate-distortion tempering (step 3): geometric mean with parity."""
    if ideal_ratio <= 0:
        raise ValueError("ratio must be positive")
    return float(np.sqrt(ideal_ratio))


def suggest_scales(
    n_levels: int,
    analysis: str = "power_spectrum",
    *,
    ratio: int = 2,
    round_to_paper: bool = True,
) -> list[float]:
    """Per-level error-bound multipliers, finest first, coarsest = 1.

    ``round_to_paper`` rounds the finest-level multiplier to the nearest
    integer, matching the 3:1 / 2:1 ratios quoted in §4.5; disable it to
    keep the analytic √(base·8^level) values.
    """
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    if analysis not in ANALYSIS_BASE_RATIO:
        raise ValueError(
            f"unknown analysis {analysis!r}; choose from {sorted(ANALYSIS_BASE_RATIO)}"
        )
    base = ANALYSIS_BASE_RATIO[analysis]
    deepest = n_levels - 1
    scales = []
    for level in range(n_levels):
        # Ratio of this level's bound to the coarsest level's bound.
        rel_rate = volume_upsample_rate(deepest - level, ratio)
        value = tempered_ratio(base * rel_rate) if level < deepest else 1.0
        if round_to_paper and level < deepest:
            value = float(max(1, round(value)))
        scales.append(value)
    return scales


def _resolve_scales(per_level_scale, n_levels: int) -> list[float]:
    """Normalize the ``per_level_scale`` argument of the level-wise
    compressors (TAC, 1D): one positive multiplier per level, 1.0 each when
    ``None``."""
    if per_level_scale is None:
        return [1.0] * n_levels
    scales = [float(s) for s in per_level_scale]
    if len(scales) != n_levels:
        raise ValueError(f"per_level_scale needs {n_levels} entries, got {len(scales)}")
    if any(s <= 0 for s in scales):
        raise ValueError("per_level_scale entries must be positive")
    return scales
