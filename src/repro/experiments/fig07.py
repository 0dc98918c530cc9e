"""Fig. 7 — NaST vs OpST on the z10 fine level (23% density).

Paper: with the same compressor and bound (value-range-relative 4.8e-4),
OpST achieves *both* a higher compression ratio (241.1 vs 233.8) and a
higher PSNR (77.8 vs 76.9 dB) than NaST, because maximal-cube extraction
leaves far less data on sub-block boundaries.
"""

from __future__ import annotations

from repro.core.density import Strategy
from repro.experiments.common import (
    ExperimentResult,
    Verdict,
    dataset,
    experiment_scale,
    single_level_dataset,
)
from repro.experiments.strategies import check_strategy_pair, run_strategy_pair

#: The error bound quoted in the figure caption.
PAPER_ERROR_BOUND = 4.8e-4


def run(scale: int | None = None, error_bound: float = PAPER_ERROR_BOUND) -> ExperimentResult:
    scale = experiment_scale(scale)
    ds = dataset("Run1_Z10", scale)
    fine = single_level_dataset(ds.levels[0], "Run1_Z10/fine", ds)
    result = ExperimentResult(
        experiment="fig07",
        title="NaST vs OpST on z10 fine level (baryon density)",
        paper_claim="OpST beats NaST on BOTH ratio (241.1 vs 233.8) and PSNR (77.8 vs 76.9 dB)",
    )
    return run_strategy_pair(result, fine, (Strategy.NAST, Strategy.OPST), error_bound)


def check(result: ExperimentResult) -> Verdict:
    """OpST beats NaST on ratio and does not lose on PSNR; the PSNR tie is
    deviation ``opst_psnr_tied_with_nast`` (:func:`.strategies.check_strategy_pair`)."""
    return check_strategy_pair(result, 1.0, "opst_psnr_tied_with_nast")
