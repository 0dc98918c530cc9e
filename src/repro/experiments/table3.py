"""Table 3 — halo-finder quality with adaptive per-level error bounds.

Paper (Run1_Z2): at matched compression ratio (~198.5), the biggest halo's
relative mass difference and cell-count difference both shrink from the 3D
baseline (6.66e-4 / 39 cells) through TAC with a uniform bound
(4.97e-4 / 28) to TAC with the §4.5-derived 2:1 fine:coarse ratio
(4.49e-4 / 25) — the adaptive bound spends accuracy where halo candidates
live.
"""

from __future__ import annotations

from repro.analysis.halo_finder import (
    DEFAULT_MIN_CELLS,
    DEFAULT_THRESHOLD_FACTOR,
    compare_biggest_halo,
    find_halos,
)
from repro.experiments.common import (
    Claims,
    ExperimentResult,
    Verdict,
    dataset,
    experiment_scale,
    matched_cr_study,
    require_matched_cr,
)

DEFAULT_REFERENCE_EB = 2e-3

#: The biggest-halo distortions, each ordered 3D > TAC(1:1) > TAC(2:1).
DIFFS = ("rel_mass_diff", "cell_diff")


def resolve_threshold(uniform, *, min_cells: int = DEFAULT_MIN_CELLS) -> float:
    """Largest threshold factor (<= the paper's 81.66) that yields a halo.

    At scaled-down grid resolution the extreme-density tail holds fewer
    cells than at 512³, so the paper's physical threshold can come up
    empty; we relax it geometrically and report the value used.
    """
    factor = DEFAULT_THRESHOLD_FACTOR
    while factor > 1.0:
        if find_halos(uniform, threshold_factor=factor, min_cells=min_cells).n_halos:
            return factor
        factor /= 2.0
    return factor


def run(scale: int | None = None, reference_eb: float = DEFAULT_REFERENCE_EB) -> ExperimentResult:
    scale = experiment_scale(scale)
    ds = dataset("Run1_Z2", scale)
    uniform_orig = ds.to_uniform()
    threshold = resolve_threshold(uniform_orig)

    result = ExperimentResult(
        experiment="table3",
        title="Halo-finder distortion at matched CR (Run1_Z2)",
        paper_claim=(
            "mass/cell diffs shrink: 3D baseline > TAC(1:1) > TAC(2:1) "
            "(paper: 6.66e-4/39 > 4.97e-4/28 > 4.49e-4/25)"
        ),
    )

    for label, ratio, uniform in matched_cr_study(ds, reference_eb, "tac_2to1", "halo_finder"):
        cmp_res = compare_biggest_halo(uniform_orig, uniform, threshold_factor=threshold)
        result.rows.append(_row(label, ratio, cmp_res))
    result.notes = (
        f"halo threshold factor {threshold:g} (paper: 81.66; relaxed when the "
        "scaled grid's density tail is too thin)"
    )
    return result


def check(result: ExperimentResult) -> Verdict:
    """Enforced — 3D, TAC(1:1), TAC(2:1) at matched CR, every row finds the
    biggest halo, and neither TAC row's mass or cell diff exceeds 3D's.
    Recorded deviation ``tac21_not_below_tac11`` — the paper's 2:1-over-1:1
    ordering is inverted here.
    """
    claims = Claims([], {})
    require_matched_cr(claims, result, "tac_2to1")
    claims.require(all(r["matched"] for r in result.rows), "every row should find the biggest halo")
    base, even, tuned = result.rows
    for row in (even, tuned):
        for diff in DIFFS:
            what = f"{row['method']} {diff} {row[diff]:.4g} vs 3D {base[diff]:.4g}"
            claims.require(row[diff] <= base[diff], what)
    claims.deviation(
        "tac21_not_below_tac11",
        any(tuned[d] > even[d] for d in DIFFS),
        "; ".join(f"{d} TAC(2:1) {tuned[d]:.4g} vs TAC(1:1) {even[d]:.4g}" for d in DIFFS),
    )
    return claims


def _row(label: str, ratio: float, cmp_res) -> dict:
    return {
        "method": label,
        "ratio": ratio,
        "rel_mass_diff": cmp_res.rel_mass_diff,
        "cell_diff": cmp_res.cell_count_diff,
        "matched": cmp_res.matched,
    }
