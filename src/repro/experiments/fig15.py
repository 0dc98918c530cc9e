"""Fig. 15 — rate-distortion on the three Run 2 datasets.

Paper: with finest-level densities of 0.2% down to 3e-5, the up-sampling
redundancy ruins the 3D baseline and TAC dominates every method across the
whole bit-rate range (TAC top-left in all three panels).
"""

from __future__ import annotations

from repro.experiments.common import Claims, ExperimentResult, Verdict, experiment_scale
from repro.experiments.fig14 import DEFAULT_ERROR_BOUNDS
from repro.experiments.fig14 import run as _run_rd

DATASETS = ("Run2_T2", "Run2_T3", "Run2_T4")


def run(scale: int | None = None, error_bounds=DEFAULT_ERROR_BOUNDS) -> ExperimentResult:
    scale = experiment_scale(scale)
    inner = _run_rd(scale=scale, error_bounds=error_bounds, datasets=DATASETS)
    return ExperimentResult(
        experiment="fig15",
        title="Rate-distortion, Run 2 (sparse finest levels)",
        paper_claim="TAC dominates all baselines on every Run 2 dataset",
        rows=inner.rows,
    )


def check(result: ExperimentResult) -> Verdict:
    """Enforced — TAC's bit-rate is below 3D's on every row.  Recorded
    deviation ``tac_not_below_1d_and_zmesh`` — the rest of "all baselines".
    """
    claims = Claims([], {})
    for row in result.rows:
        tac, base = row["tac_bitrate"], row["baseline_3d_bitrate"]
        where = f"{row['dataset']} eb {row['eb']:g}"
        claims.require(tac < base, f"{where}: TAC {tac:.4g} vs 3D {base:.4g}")
    ratios = {
        m: [r["tac_bitrate"] / r[f"{m}_bitrate"] for r in result.rows]
        for m in ("baseline_1d", "zmesh")
    }
    claims.deviation(
        "tac_not_below_1d_and_zmesh",
        max(max(v) for v in ratios.values()) >= 1.0,
        "; ".join(
            f"TAC/{m} bit-rate up to {max(v):.3f}, >= 1 on {sum(x >= 1 for x in v)}/{len(v)} rows"
            for m, v in ratios.items()
        ),
    )
    return claims
