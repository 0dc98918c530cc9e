"""Table 1 — the seven evaluation datasets (levels, grids, densities).

Regenerates the dataset inventory from the synthetic registry and reports
the achieved per-level densities next to the paper's targets.  Grids are
the paper's divided by ``scale``.
"""

from __future__ import annotations

from repro.experiments.common import Claims, ExperimentResult, Verdict, dataset, experiment_scale
from repro.sim.datasets import TABLE1


def run(scale: int | None = None) -> ExperimentResult:
    scale = experiment_scale(scale)
    result = ExperimentResult(
        experiment="table1",
        title="Tested datasets (synthetic registry vs paper targets)",
        paper_claim=(
            "Seven Nyx datasets: Run1 z10/z5/z3/z2 (2 levels, 512/256) and "
            "Run2 T2/T3/T4 (2-4 levels, up to 1024), densities per Table 1"
        ),
        notes=f"grids are paper sizes / {scale} (see DESIGN.md substitution table)",
    )
    for name, spec in TABLE1.items():
        ds = dataset(name, scale)
        ds.validate()
        result.rows.append(
            {
                "dataset": name,
                "levels": ds.n_levels,
                "grids": "/".join(str(lvl.n) for lvl in ds.levels),
                "paper_grids": "/".join(str(g) for g in spec.grids(1)),
                "densities": "/".join(f"{d:.3%}" for d in ds.densities()),
                "paper_densities": "/".join(f"{d:.3%}" for d in spec.densities),
                "stored_points": ds.total_points(),
            }
        )
    return result


def check(result: ExperimentResult) -> Verdict:
    """Enforced — all seven datasets, each with the paper's level count."""
    claims = Claims([], {})
    claims.require(len(result.rows) == len(TABLE1), f"{len(result.rows)} rows, Table 1 has 7")
    for row in result.rows:
        paper = row["paper_grids"].count("/") + 1
        levels = row["levels"]
        claims.require(levels == paper, f"{row['dataset']}: {levels} levels, not {paper}")
    return claims
