"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper — these probe the knobs the paper fixes by
construction (unit-block size, predictor family, strategy thresholds,
adaptive vs fixed k-d splitting) to document how sensitive the headline
behaviour is to each choice.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import psnr
from repro.analysis.rate_distortion import rd_point
from repro.core.akdtree import akdtree_plan
from repro.core.blocks import block_occupancy
from repro.core.density import Strategy
from repro.core.tac import TACCompressor, TACConfig
from repro.experiments.common import (
    Claims,
    ExperimentResult,
    Verdict,
    dataset,
    experiment_scale,
    rows_by,
    single_level_dataset,
)
from repro.experiments.strategies import measure_level_strategy
from repro.sz.compressor import SZConfig

#: How far interpolation's rate may exceed Lorenzo's; how far the hybrid's
#: may exceed the best forced strategy's (at reduced scale the GSP/OpST
#: crossover sits slightly above T2 = 60 %); how many more leaves adaptive
#: splitting may make than fixed splitting.
PREDICTOR_TOLERANCE, HYBRID_TOLERANCE, SPLIT_TOLERANCE = 1.1, 1.3, 1.2


def run_block_size(scale: int | None = None, error_bound: float = 5e-4) -> ExperimentResult:
    """Unit-block size sweep: boundary fraction vs removal granularity."""
    scale = experiment_scale(scale)
    ds = dataset("Run1_Z10", scale)
    result = ExperimentResult(
        experiment="ablation_block_size",
        title="TAC unit-block size sweep (Run1_Z10)",
        paper_claim="paper fixes ~n/32 blocks (16^3 on 512^3); sweep shows the trade-off",
    )
    for block in (2, 4, 8, 16):
        if block > ds.finest.n // 4:
            continue
        tac = TACCompressor(TACConfig(unit_block=block))
        point = rd_point(tac, ds, error_bound)
        result.rows.append(
            {
                "unit_block": block,
                "bit_rate": point.bit_rate,
                "psnr": point.psnr,
                "compress_seconds": point.compress_seconds,
            }
        )
    return result


def check_block_size(result: ExperimentResult) -> Verdict:
    """Enforced — the sweep has at least two block sizes."""
    claims = Claims([], {})
    claims.require(len(result.rows) >= 2, f"{len(result.rows)} block sizes")
    return claims


def run_predictor(scale: int | None = None, error_bound: float = 5e-4) -> ExperimentResult:
    """Interpolation vs Lorenzo predictor inside the SZ substrate."""
    scale = experiment_scale(scale)
    ds = dataset("Run1_Z10", scale)
    result = ExperimentResult(
        experiment="ablation_predictor",
        title="SZ predictor: interpolation vs dual-quant Lorenzo",
        paper_claim=(
            "interpolation (predict-from-reconstructed) should dominate "
            "dual-quant Lorenzo in rate-distortion; Lorenzo is simpler/faster"
        ),
    )
    for predictor in ("interp", "lorenzo"):
        tac = TACCompressor(TACConfig(sz=SZConfig(predictor=predictor)))
        point = rd_point(tac, ds, error_bound)
        result.rows.append(
            {
                "predictor": predictor,
                "bit_rate": point.bit_rate,
                "psnr": point.psnr,
                "compress_seconds": point.compress_seconds,
                "decompress_seconds": point.decompress_seconds,
            }
        )
    return result


def check_predictor(result: ExperimentResult) -> Verdict:
    """Enforced — interp, then Lorenzo; interp's rate within :data:`PREDICTOR_TOLERANCE`."""
    interp, lorenzo = result.rows
    claims = Claims([], {})
    claims.require(
        (interp["predictor"], lorenzo["predictor"]) == ("interp", "lorenzo")
        and interp["bit_rate"] <= lorenzo["bit_rate"] * PREDICTOR_TOLERANCE,
        f"{interp['predictor']} {interp['bit_rate']:.4g} vs {lorenzo['bit_rate']:.4g} b/v",
    )
    return claims


def run_thresholds(scale: int | None = None, error_bound: float = 5e-4) -> ExperimentResult:
    """Force each strategy on every level vs the density-driven hybrid."""
    scale = experiment_scale(scale)
    result = ExperimentResult(
        experiment="ablation_thresholds",
        title="Hybrid (density filter) vs single forced strategy",
        paper_claim="the density filter should match the best single strategy per dataset",
    )
    for name in ("Run1_Z10", "Run1_Z3", "Run2_T2"):
        ds = dataset(name, scale)
        configs: list[tuple[str, TACConfig]] = [("hybrid", TACConfig())]
        configs += [
            (s.value, TACConfig(force_strategy=s))
            for s in (Strategy.OPST, Strategy.AKDTREE, Strategy.GSP)
        ]
        for label, cfg in configs:
            point = rd_point(TACCompressor(cfg), ds, error_bound)
            result.rows.append(
                {
                    "dataset": name,
                    "strategy": label,
                    "bit_rate": point.bit_rate,
                    "psnr": point.psnr,
                }
            )
    return result


def check_thresholds(result: ExperimentResult) -> Verdict:
    """Enforced — per dataset, the hybrid's rate is within
    :data:`HYBRID_TOLERANCE` of the best forced strategy's."""
    claims = Claims([], {})
    for ds, rows in rows_by(result, "dataset").items():
        rate = {r["strategy"]: r["bit_rate"] for r in rows}
        best = min(v for k, v in rate.items() if k != "hybrid")
        hybrid = rate.get("hybrid", float("nan"))
        claims.require(hybrid <= best * HYBRID_TOLERANCE, f"{ds}: {hybrid:.4g} vs best {best:.4g}")
    return claims


def run_split_rule(scale: int | None = None) -> ExperimentResult:
    """Adaptive max-difference splitting vs fixed round-robin (Fig. 8's point).

    Measured on the leaf statistics the paper motivates: the adaptive rule
    should produce fewer, larger full leaves over the same occupancy.
    """
    scale = experiment_scale(scale)
    result = ExperimentResult(
        experiment="ablation_split_rule",
        title="AKDTree: adaptive vs fixed round-robin splits",
        paper_claim="adaptive splitting yields fewer/larger full leaves (Fig. 8)",
    )
    for name, level_idx in (("Run1_Z10", 0), ("Run1_Z5", 0), ("Run1_Z10", 1)):
        ds = dataset(name, scale)
        level = ds.levels[level_idx]
        occ = block_occupancy(level.mask, 4)
        adaptive = akdtree_plan(occ, adaptive=True)
        fixed = akdtree_plan(occ, adaptive=False)
        result.rows.append(
            {
                "level": f"{name}/L{level_idx}",
                "occupied_blocks": int(occ.sum()),
                "adaptive_leaves": len(adaptive),
                "fixed_leaves": len(fixed),
                "adaptive_mean_vol": float(np.mean([np.prod(s) for _, s in adaptive])) if adaptive else 0.0,
                "fixed_mean_vol": float(np.mean([np.prod(s) for _, s in fixed])) if fixed else 0.0,
            }
        )
    return result


def check_split_rule(result: ExperimentResult) -> Verdict:
    """Enforced — 0 < adaptive leaves <= fixed leaves x :data:`SPLIT_TOLERANCE`."""
    claims = Claims([], {})
    for row in result.rows:
        adaptive, fixed = row["adaptive_leaves"], row["fixed_leaves"]
        holds = 0 < adaptive <= fixed * SPLIT_TOLERANCE
        claims.require(holds, f"{row['level']}: {adaptive} adaptive vs {fixed} fixed leaves")
    return claims


def run_gsp_layers(scale: int | None = None, error_bound: float = 2e-3) -> ExperimentResult:
    """GSP padding depth (Alg. 3's x/y parameters) on a dense level."""
    scale = experiment_scale(scale)
    ds = dataset("Run1_Z10", scale)
    coarse = single_level_dataset(ds.levels[1], "Run1_Z10/coarse", ds)
    result = ExperimentResult(
        experiment="ablation_gsp_layers",
        title="GSP pad/average layer depth (z10 coarse)",
        paper_claim="padding beats zero-fill regardless of depth; defaults are robust",
    )
    zf = measure_level_strategy(coarse, Strategy.ZF, error_bound)
    result.rows.append({"config": "zero_fill", "bit_rate": zf["bit_rate"], "psnr": zf["psnr"]})
    for pad_layers, avg_layers in ((None, 1), (None, 2), (2, 2), (4, 2)):
        tac = TACCompressor(
            TACConfig(force_strategy=Strategy.GSP, pad_layers=pad_layers, avg_layers=avg_layers)
        )
        comp = tac.compress(coarse, error_bound, mode="rel")
        recon = tac.decompress(comp)
        result.rows.append(
            {
                "config": f"pad={pad_layers or 'full'},avg={avg_layers}",
                "bit_rate": comp.bit_rate(include_masks=False),
                "psnr": psnr(coarse.levels[0].values(), recon.levels[0].values()),
            }
        )
    return result


def check_gsp_layers(result: ExperimentResult) -> Verdict:
    """Enforced — zero fill, then at least three padding depths.  Recorded
    deviation ``padding_not_below_zero_fill`` — the claim fails on rate here.
    """
    zero_fill, *padded = result.rows
    claims = Claims([], {})
    claims.require(zero_fill["config"] == "zero_fill" and len(padded) >= 3, "zero fill, 3+ depths")
    base = zero_fill["bit_rate"]
    worst = max(padded, key=lambda r: r["bit_rate"])
    claims.deviation(
        "padding_not_below_zero_fill",
        worst["bit_rate"] > base,
        f"{sum(r['bit_rate'] > base for r in padded)}/{len(padded)} depths above zero fill's "
        f"{base:.4g} b/v, up to {worst['config']} {worst['bit_rate']:.4g}",
    )
    return claims
