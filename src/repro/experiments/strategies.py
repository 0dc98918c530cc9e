"""Per-level strategy measurement used by the Figs. 7/11/12/13 experiments.

These figures study a *single AMR level* under one forced pre-process
strategy; this helper wraps the level as a standalone dataset, runs TAC
with ``force_strategy``, and reports rate, distortion (over the level's
stored values), and the pre-process time in isolation.  Figs. 7 and 12
share their run and check: two strategies on one level at the caption's
bound, the second of which the paper has winning on both axes.
"""

from __future__ import annotations

from repro.amr.hierarchy import AMRDataset, AMRLevel
from repro.analysis.metrics import psnr
from repro.core.density import Strategy
from repro.core.tac import TACCompressor, TACConfig
from repro.experiments.common import Claims, ExperimentResult, Verdict
from repro.utils.timer import TimingRecord

#: PSNRs of a strategy pair closer than this are a tie (the paper's
#: winners gain 0.7-0.9 dB).
PSNR_TIE_DB = 0.1


def measure_level_strategy(
    level_ds: AMRDataset,
    strategy: Strategy,
    error_bound: float,
    *,
    mode: str = "rel",
    unit_block: int | None = None,
) -> dict:
    """Compress a single-level dataset with one strategy; return metrics."""
    if level_ds.n_levels != 1:
        raise ValueError("measure_level_strategy expects a single-level dataset")
    tac = TACCompressor(TACConfig(force_strategy=strategy, unit_block=unit_block))
    timings = TimingRecord()
    comp = tac.compress(level_ds, error_bound, mode=mode, timings=timings)
    recon = tac.decompress(comp)
    original = level_ds.levels[0].values()
    reconstructed = recon.levels[0].values()
    return {
        "strategy": strategy.value,
        "density": level_ds.levels[0].density(),
        "error_bound": float(error_bound),
        "bit_rate": comp.bit_rate(include_masks=False),
        "ratio": comp.ratio(include_masks=False),
        "psnr": psnr(original, reconstructed),
        "preprocess_seconds": timings.get("preprocess"),
        "compress_seconds": timings.total(),
    }


def preprocess_time(
    level: AMRLevel, strategy: Strategy, unit_block: int | None = None, repeats: int = 3
) -> float:
    """Best-of-N pre-process wall time for one strategy on one level."""
    tac = TACCompressor(TACConfig(unit_block=unit_block))
    times = []
    for _ in range(max(1, repeats)):
        _, seconds = tac.preprocess_only(level, strategy, block=unit_block)
        times.append(seconds)
    return min(times)


def run_strategy_pair(
    result: ExperimentResult, level_ds: AMRDataset, strategies, error_bound: float
) -> ExperimentResult:
    """Figs. 7 and 12: one row per strategy on ``level_ds``, the paper's pick last."""
    for strategy in strategies:
        m = measure_level_strategy(level_ds, strategy, error_bound, mode="rel")
        row = {key: m[key] for key in ("strategy", "density", "ratio")}
        result.rows.append(row | {"psnr_db": m["psnr"], "bit_rate": m["bit_rate"]})
    return result


def check_strategy_pair(result: ExperimentResult, ratio_tolerance: float, tie: str) -> Verdict:
    """Enforced — the paper's pick beats the other strategy's ratio (times
    ``ratio_tolerance``) and does not lose on PSNR.  Recorded deviation
    ``tie`` — the paper's PSNR gain is within :data:`PSNR_TIE_DB` here.
    """
    other, pick = result.rows
    claims = Claims([], {})
    who = f"{pick['strategy']} against {other['strategy']}"
    claims.require(
        pick["ratio"] > other["ratio"] * ratio_tolerance,
        f"{who}: ratio {pick['ratio']:.4g} vs {other['ratio']:.4g}, need > x{ratio_tolerance}",
    )
    gain = pick["psnr_db"] - other["psnr_db"]
    measured = f"{who}: PSNR {pick['psnr_db']:.3f} vs {other['psnr_db']:.3f} dB"
    claims.require(gain > -PSNR_TIE_DB, f"{measured}, must not lose")
    claims.deviation(tie, gain < PSNR_TIE_DB, measured)
    return claims
