"""Fig. 11 — GSP vs OpST vs AKDTree across six level densities.

Paper: OpST and AKDTree have near-identical rate-distortion everywhere
(the choice between them is purely about time, Fig. 13); GSP loses at low
density and gradually wins as density rises, overtaking around ~60% —
which is how the T2 = 60% threshold was chosen.

The six levels mirror the figure: the fine levels of z10/z5/z2/z3
(23/58/63/64%) and the near-dense coarse levels of Run2 T2/T3
(99.8/99.4%).
"""

from __future__ import annotations

from repro.core.density import Strategy
from repro.experiments.common import (
    Claims,
    ExperimentResult,
    Verdict,
    dataset,
    experiment_scale,
    single_level_dataset,
)
from repro.experiments.strategies import measure_level_strategy

#: (dataset, level index, figure label) for the six panels.
PANELS = (
    ("Run1_Z10", 0, "z10 fine (d=23%)"),
    ("Run1_Z5", 0, "z5 fine (d=58%)"),
    ("Run1_Z2", 0, "z2 fine (d=63%)"),
    ("Run1_Z3", 0, "z3 fine (d=64%)"),
    ("Run2_T2", 1, "T2 coarse (d=99.8%)"),
    ("Run2_T3", 2, "T3 coarse (d=99.4%)"),
)

DEFAULT_ERROR_BOUNDS = (2e-3, 5e-4, 1e-4)

#: "Near-identical": OpST's bit-rate is within this share of AKDTree's.
OPST_AKDTREE_REL = 0.35


def run(scale: int | None = None, error_bounds=DEFAULT_ERROR_BOUNDS) -> ExperimentResult:
    scale = experiment_scale(scale)
    result = ExperimentResult(
        experiment="fig11",
        title="Strategy rate-distortion across level densities",
        paper_claim=(
            "OpST ~= AKDTree at every density; GSP worse at low density, "
            "better at high density (crossover ~60%)"
        ),
    )
    for name, level_idx, label in PANELS:
        ds = dataset(name, scale)
        level = single_level_dataset(ds.levels[level_idx], f"{name}/L{level_idx}", ds)
        for eb in error_bounds:
            row: dict = {"panel": label, "density": level.levels[0].density(), "eb": eb}
            for strategy in (Strategy.OPST, Strategy.AKDTREE, Strategy.GSP):
                metrics = measure_level_strategy(level, strategy, eb, mode="rel")
                row[f"{strategy.value}_bitrate"] = metrics["bit_rate"]
                row[f"{strategy.value}_psnr"] = metrics["psnr"]
            result.rows.append(row)
    return result


def check(result: ExperimentResult) -> Verdict:
    """Enforced — OpST ~= AKDTree on every row (:data:`OPST_AKDTREE_REL`)."""
    claims = Claims([], {})
    for row in result.rows:
        opst, akd = row["opst_bitrate"], row["akdtree_bitrate"]
        where = f"{row['panel']} eb {row['eb']:g}: OpST {opst:.4g} vs AKDTree {akd:.4g}"
        claims.require(abs(opst - akd) <= OPST_AKDTREE_REL * akd, where)
    return claims
