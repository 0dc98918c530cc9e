"""Fig. 13 — pre-process time of OpST vs AKDTree across densities.

Paper: OpST's time grows roughly linearly with density (its partial BS
updates scale with ``maxSide``, which tracks density) while AKDTree's is
flat; the curves cross around 50%, which fixes the T1 threshold.  We time
only the pre-process (empty-region removal, including the zeroing of the
non-stored cells inside the gathered blocks), not the compression.

To isolate density as the variable (the paper's levels all live on 512³/256³
grids), we synthesize masks of controlled density on ONE fixed grid by
quantile-thresholding the z10 baryon field at block granularity — the same
mechanism the refinement criterion uses — and time both strategies on each.
"""

from __future__ import annotations

import numpy as np

from repro.amr.hierarchy import AMRLevel
from repro.core.density import Strategy
from repro.experiments.common import Claims, ExperimentResult, Verdict, dataset, experiment_scale
from repro.experiments.strategies import preprocess_time

DEFAULT_DENSITIES = (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95)

#: "Grows with density": OpST's mean time over the rows at density >= 0.3
#: must exceed its time on the sparsest row by this factor.
OPST_GROWTH = 1.3


def mask_at_density(field: np.ndarray, density: float, block: int = 2) -> np.ndarray:
    """Blocky mask of the requested density: top-|density| blocks by value."""
    n = field.shape[0]
    nb = n // block
    view = field.reshape(nb, block, nb, block, nb, block)
    score = view.max(axis=(1, 3, 5)).ravel()
    n_blocks = max(1, int(round(density * score.size)))
    chosen = np.zeros(score.size, dtype=bool)
    chosen[np.argpartition(score, -n_blocks)[-n_blocks:]] = True
    coarse = chosen.reshape(nb, nb, nb)
    return np.repeat(np.repeat(np.repeat(coarse, block, 0), block, 1), block, 2)


def run(
    scale: int | None = None,
    densities=DEFAULT_DENSITIES,
    repeats: int = 3,
) -> ExperimentResult:
    scale = experiment_scale(scale)
    base = dataset("Run1_Z10", scale)
    field = base.to_uniform()
    n = field.shape[0]
    result = ExperimentResult(
        experiment="fig13",
        title=f"Pre-process time vs density on a fixed {n}^3 grid",
        paper_claim="OpST time grows ~linearly with density; AKDTree stays flat; crossing ~50% = T1",
    )
    for density in densities:
        mask = mask_at_density(field, density)
        data = np.where(mask, field, field.dtype.type(0))
        level = AMRLevel(data=data, mask=mask, level=0)
        result.rows.append(
            {
                "density": level.density(),
                "grid": n,
                "opst_seconds": preprocess_time(level, Strategy.OPST, repeats=repeats),
                "akdtree_seconds": preprocess_time(level, Strategy.AKDTREE, repeats=repeats),
            }
        )
    return result


def check(result: ExperimentResult) -> Verdict:
    """Enforced — density is the only variable (one grid, rows in density
    order) and OpST's time grows with it (:data:`OPST_GROWTH`).
    Recorded deviation ``akdtree_below_opst_peak`` — the paper has AKDTree
    flat and below OpST's peak; since the block-resolution pre-process
    made OpST ~20x cheaper, AKDTree is the slower of the two here.
    """
    keys = ("opst_seconds", "akdtree_seconds", "density")
    opst, akd, density = (np.array([r[key] for r in result.rows]) for key in keys)
    claims = Claims([], {})
    claims.require(
        len({r["grid"] for r in result.rows}) == 1
        and list(density) == sorted(density)
        and min(opst.min(), akd.min()) > 0,
        "rows should share one grid, in density order, with positive times",
    )
    growth = float(opst[density >= 0.3].mean() / opst[0])
    claims.require(
        growth > OPST_GROWTH,  # NaN (no row at density >= 0.3) fails too
        f"OpST time should grow with density: x{growth:.2f}, need > x{OPST_GROWTH}",
    )
    claims.deviation(
        "akdtree_below_opst_peak",
        akd.max() >= opst.max(),
        f"AKDTree peaks at {akd.max() * 1e3:.1f}ms against OpST's {opst.max() * 1e3:.1f}ms "
        f"and is the slower at {int((akd > opst).sum())} of {len(opst)} densities",
    )
    return claims
