"""Fig. 19 — power-spectrum error with adaptive per-level error bounds.

Paper (Run1_Z2 baryon density): at (almost) the same compression ratio,
TAC with a uniform bound matches the 3D baseline's power-spectrum error,
but TAC with the §4.5-derived 3:1 fine:coarse bound ratio clearly beats
both — staying further below the 1% acceptance line.

Method: compress with the 3D baseline at a reference bound, then bisect
TAC's base bound (uniform and 3:1) to the same compression ratio before
comparing max relative P(k) error below the paper's k < 10 cut, rescaled to
our grid (10 · n/512, keeping the cut at the same fraction of the Nyquist
wavenumber — and, crucially, below the coarse level's Nyquist, where the
up-sampled coarse noise that the 3:1 tuning suppresses is concentrated).
"""

from __future__ import annotations

from repro.analysis.power_spectrum import DEFAULT_TOLERANCE, max_error_below_k, power_spectrum
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

#: Paper's criterion (k < 10) was set for 512³ over 64 Mpc.
PAPER_GRID = 512
PAPER_MAX_K = 10.0

#: A TAC row's P(k) error may exceed the 3D baseline's by at most this factor.
BASELINE_TOLERANCE = 1.05


def run(scale: int | None = None, reference_eb: float = DEFAULT_REFERENCE_EB) -> ExperimentResult:
    scale = experiment_scale(scale)
    ds = dataset("Run1_Z2", scale)
    max_k = PAPER_MAX_K * ds.finest.n / PAPER_GRID
    spectrum_orig = power_spectrum(ds.to_uniform(), box_size=ds.box_size)

    result = ExperimentResult(
        experiment="fig19",
        title="Power-spectrum error at matched CR (Run1_Z2)",
        paper_claim=(
            "TAC(1:1) ~ 3D baseline; TAC(3:1) clearly lower P(k) error at "
            "the same compression ratio, further below the 1% acceptance line"
        ),
    )

    for label, ratio, uniform in matched_cr_study(ds, reference_eb, "tac_3to1", "power_spectrum"):
        result.rows.append(_row(label, ratio, spectrum_orig, uniform, ds, max_k))
    result.notes = f"k cut rescaled to {max_k:.2f} (paper: 10 at 512^3)"
    return result


def check(result: ExperimentResult) -> Verdict:
    """Enforced — 3D, TAC(1:1), TAC(3:1) at matched CR, and neither TAC
    row's P(k) error above 3D's (:data:`BASELINE_TOLERANCE`).  Recorded
    deviations ``tac31_not_below_tac11`` (the paper's 3:1-over-1:1 ordering
    does not transfer to the synthetic substrate) and ``tac_above_1pct_line``.
    """
    claims = Claims([], {})
    require_matched_cr(claims, result, "tac_3to1")
    base, even, tuned = (r["ps_max_rel_err"] for r in result.rows)
    for label, err in (("TAC(1:1)", even), ("TAC(3:1)", tuned)):
        claims.require(err <= base * BASELINE_TOLERANCE, f"{label} P(k) {err:.4g}, 3D {base:.4g}")
    measured = f"P(k) error TAC(1:1) {even:.4g}, TAC(3:1) {tuned:.4g}"
    claims.deviation("tac31_not_below_tac11", tuned >= even, measured)
    line = f"{measured}, line {DEFAULT_TOLERANCE:g}"
    claims.deviation("tac_above_1pct_line", max(even, tuned) >= DEFAULT_TOLERANCE, line)
    return claims


def _row(label: str, ratio: float, spectrum_orig, uniform, ds, max_k: float) -> dict:
    spectrum = power_spectrum(uniform, box_size=ds.box_size)
    err = max_error_below_k(spectrum_orig, spectrum, max_k=max_k)
    return {
        "method": label,
        "ratio": ratio,
        "ps_max_rel_err": err,
        "passes_1pct": err < DEFAULT_TOLERANCE,
    }
