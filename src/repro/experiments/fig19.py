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
from repro.baselines.uniform3d import Uniform3DCompressor
from repro.core.adaptive_eb import suggest_scales
from repro.core.tac import TACCompressor, TACConfig
from repro.experiments.common import (
    ExperimentResult,
    dataset,
    experiment_scale,
    match_ratio_error_bound,
)

DEFAULT_REFERENCE_EB = 2e-3

#: Paper's criterion (k < 10) was set for 512³ over 64 Mpc.
PAPER_GRID = 512
PAPER_MAX_K = 10.0


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
            "the same compression ratio.  [Repro: both TAC variants beat the "
            "baseline; the 3:1-vs-1:1 sub-ordering does not transfer to the "
            "synthetic substrate — see benchmarks/results/fig19.txt]"
        ),
    )

    baseline = Uniform3DCompressor()
    comp = baseline.compress(ds, reference_eb, mode="rel")
    target_ratio = comp.ratio(include_masks=False)
    uniform = baseline.decompress_uniform(comp)
    result.rows.append(_row("baseline_3d", target_ratio, spectrum_orig, uniform, ds, max_k))

    tac = TACCompressor(TACConfig())
    for label, scales in (
        ("tac_1to1", None),
        ("tac_3to1", suggest_scales(ds.n_levels, "power_spectrum")),
    ):
        eb = match_ratio_error_bound(tac, ds, target_ratio, per_level_scale=scales)
        blob = tac.compress(ds, eb, mode="rel", per_level_scale=scales)
        recon = tac.decompress(blob)
        result.rows.append(
            _row(label, blob.ratio(include_masks=False), spectrum_orig, recon.to_uniform(), ds, max_k)
        )
    base_err = result.rows[0]["ps_max_rel_err"]
    even_err = result.rows[1]["ps_max_rel_err"]
    tuned_err = result.rows[-1]["ps_max_rel_err"]
    result.notes = (
        f"k cut rescaled to {max_k:.2f} (paper: 10 at 512^3); "
        f"TAC(3:1) beats TAC(1:1): {tuned_err < even_err}; "
        f"beats 3D baseline: {tuned_err < base_err}"
    )
    return result


def _row(label: str, ratio: float, spectrum_orig, uniform, ds, max_k: float) -> dict:
    spectrum = power_spectrum(uniform, box_size=ds.box_size)
    err = max_error_below_k(spectrum_orig, spectrum, max_k=max_k)
    return {
        "method": label,
        "ratio": ratio,
        "ps_max_rel_err": err,
        "passes_1pct": err < DEFAULT_TOLERANCE,
    }
