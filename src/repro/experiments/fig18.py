"""Fig. 18 — per-level bit-rate vs error bound on Run1_Z2.

Paper: sweeping SZ's bound separately for the fine and coarse levels, both
bit-rate curves flatten and converge as the bound grows — past a point,
extra error buys almost no rate, which is the rate-distortion trade-off
motivating the tempering step of the adaptive error-bound tuning (§4.5).
"""

from __future__ import annotations

from repro.experiments.common import (
    Claims,
    ExperimentResult,
    Verdict,
    dataset,
    experiment_scale,
    single_level_dataset,
)
from repro.experiments.strategies import measure_level_strategy
from repro.core.density import Strategy

#: Relative bounds spanning the figure's regime (loose to tight).
DEFAULT_ERROR_BOUNDS = (2e-2, 1e-2, 5e-3, 2e-3, 1e-3, 5e-4, 2e-4, 1e-4)


def run(scale: int | None = None, error_bounds=DEFAULT_ERROR_BOUNDS) -> ExperimentResult:
    scale = experiment_scale(scale)
    ds = dataset("Run1_Z2", scale)
    result = ExperimentResult(
        experiment="fig18",
        title="Bit-rate vs error bound per level (Run1_Z2)",
        paper_claim="both levels' bit-rates flatten/converge as the bound grows",
    )
    fine = single_level_dataset(ds.levels[0], "Run1_Z2/fine", ds)
    coarse = single_level_dataset(ds.levels[1], "Run1_Z2/coarse", ds)
    # Use each level's density-selected strategy, as TAC itself would.
    for eb in error_bounds:
        fine_m = measure_level_strategy(fine, Strategy.GSP, eb, mode="rel")
        coarse_m = measure_level_strategy(coarse, Strategy.OPST, eb, mode="rel")
        result.rows.append(
            {
                "eb_rel": eb,
                "fine_bitrate": fine_m["bit_rate"],
                "coarse_bitrate": coarse_m["bit_rate"],
            }
        )
    return result


def check(result: ExperimentResult) -> Verdict:
    """Enforced for both levels — bit-rate rises as the bound tightens, and
    flattens at loose bounds: the loosest step buys less rate than the tightest.
    """
    rows = sorted(result.rows, key=lambda r: -r["eb_rel"])  # loose -> tight
    claims = Claims([], {})
    for level in ("fine", "coarse"):
        rate = [r[f"{level}_bitrate"] for r in rows]
        claims.require(rate == sorted(rate), f"{level} bit-rate should rise as eb tightens: {rate}")
        loose, tight = rate[1] - rate[0], rate[-1] - rate[-2]
        claims.require(loose < tight, f"{level} loose step {loose:.3f} vs tight {tight:.3f} b/v")
    return claims
