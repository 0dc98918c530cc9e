"""Fig. 12 — zero filling (ZF) vs ghost-shell padding (GSP).

Paper: on the z10 coarse level (77% density, value-range-relative bound
6.7e-3), GSP achieves both a higher ratio (161.3 vs 156.7) and a higher
PSNR (33.5 vs 32.8 dB): padding neighbour averages instead of zeros stops
the predictor from being misled at every empty/non-empty boundary.
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
PAPER_ERROR_BOUND = 6.7e-3

#: GSP's ratio may trail ZF's by at most this factor.
RATIO_TOLERANCE = 0.98


def run(scale: int | None = None, error_bound: float = PAPER_ERROR_BOUND) -> ExperimentResult:
    scale = experiment_scale(scale)
    ds = dataset("Run1_Z10", scale)
    coarse = single_level_dataset(ds.levels[1], "Run1_Z10/coarse", ds)
    result = ExperimentResult(
        experiment="fig12",
        title="ZF vs GSP on z10 coarse level (77% density)",
        paper_claim="GSP beats ZF on BOTH ratio (161.3 vs 156.7) and PSNR (33.5 vs 32.8 dB)",
    )
    return run_strategy_pair(result, coarse, (Strategy.ZF, Strategy.GSP), error_bound)


def check(result: ExperimentResult) -> Verdict:
    """GSP beats ZF's ratio times :data:`RATIO_TOLERANCE` and does not lose on
    PSNR; the PSNR tie is deviation ``gsp_psnr_tied_with_zf``
    (:func:`.strategies.check_strategy_pair`)."""
    return check_strategy_pair(result, RATIO_TOLERANCE, "gsp_psnr_tied_with_zf")
