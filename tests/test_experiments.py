"""Every experiment runs at a reduced size and meets its claims, and every
claim is a predicate that fails when broken.

Tier-1 calls the same registry entries, and so the same ``check``, as the
figure bench and ``repro experiments``; the bench runs the full sizes.
"""

import pytest

from repro.core.tac import TACCompressor
from repro.experiments import ABLATIONS, PAPER_EXPERIMENTS, Experiment
from repro.experiments.common import ExperimentResult, match_ratio_error_bound
from repro.sim.datasets import make_dataset

SCALE = 8
REGISTRY = {**PAPER_EXPERIMENTS, **ABLATIONS}


class TestExperimentInfrastructure:
    def test_result_table_renders(self):
        res = ExperimentResult(
            experiment="x",
            title="t",
            rows=[{"a": 1, "b": 2.5, "c": "s", "d": True, "e": None}],
        )
        table = res.table()
        assert "a" in table and "2.5" in table and "yes" in table and "-" in table

    def test_empty_table(self):
        assert ExperimentResult(experiment="x", title="t").table() == "(no rows)"

    def test_report_includes_claim_and_ends_with_the_verdict(self):
        res = ExperimentResult(experiment="x", title="t", paper_claim="c", notes="n")
        report = res.report()
        assert "paper: c" in report and "notes: n" in report and "check:" not in report
        res.verdict = (["v"], {"d": "m"})
        assert res.report().endswith("\ncheck: FAIL; violation: v; deviation d: m")
        res.verdict = ([], {})
        assert res.report().endswith("\ncheck: ok")

    def test_match_ratio_bisection(self):
        ds = make_dataset("Run1_Z10", scale=SCALE)
        tac = TACCompressor()
        target = tac.compress(ds, 1e-3, mode="rel").ratio(include_masks=False)
        eb = match_ratio_error_bound(tac, ds, target, iterations=8)
        achieved = tac.compress(ds, eb, mode="rel").ratio(include_masks=False)
        assert achieved == pytest.approx(target, rel=0.25)


#: Each entry's reduced run (the bench runs the defaults) and the deviations
#: its check records at SCALE.
REDUCED_RUNS = {
    "table1": ({}, set()),
    "fig07": ({}, {"opst_psnr_tied_with_nast"}),
    "fig11": ({"error_bounds": (5e-4,)}, set()),
    "fig12": ({}, {"gsp_psnr_tied_with_zf"}),
    "fig13": ({"densities": (0.1, 0.5, 0.9)}, {"akdtree_below_opst_peak"}),
    "fig14": ({"error_bounds": (1e-3,), "datasets": ("Run1_Z10",)}, set()),
    "fig15": ({"error_bounds": (1e-3,)}, {"tac_not_below_1d_and_zmesh"}),
    "fig18": ({"error_bounds": (1e-2, 1e-3, 1e-4)}, set()),
    "fig19": ({}, {"tac31_not_below_tac11", "tac_above_1pct_line"}),
    "table2": ({"error_bounds": (1e9,), "datasets": ("Run1_Z10", "Run2_T3")}, set()),
    "table3": ({}, {"tac21_not_below_tac11"}),
    "ablation_block_size": ({}, set()),
    "ablation_predictor": ({}, set()),
    "ablation_thresholds": ({}, set()),
    "ablation_split_rule": ({}, set()),
    "ablation_gsp_layers": ({}, {"padding_not_below_zero_fill"}),
}


@pytest.mark.parametrize("name", REDUCED_RUNS)
def test_experiment_meets_its_claims(name):
    kwargs, deviations = REDUCED_RUNS[name]
    result = REGISTRY[name](scale=SCALE, **kwargs)
    assert result.verdict[0] == []
    assert set(result.verdict[1]) == deviations
    assert result.report().splitlines()[-1].startswith("check: ok")


def _rows(columns, *values):
    """A row factory: ``columns`` names the fields of each tuple in ``values``."""
    return lambda: [dict(zip(columns.split(), v)) for v in values]


def _rd(*values):
    """Figs. 14/15 rows: dataset and the bit-rates of TAC, 1D, zMesh and 3D."""
    rates = "tac_bitrate baseline_1d_bitrate zmesh_bitrate baseline_3d_bitrate"
    make = _rows(f"dataset {rates}", *values)
    psnr = {f"{m}_psnr": 60.0 for m in ("tac", "baseline_1d", "zmesh", "baseline_3d")}
    return lambda: [{"eb": 1e-3, **psnr, **row} for row in make()]


def _set(key, *values, start=0):
    """An edit that sets ``rows[start + i][key] = values[i]``."""
    return lambda rows: [row.update({key: v}) for row, v in zip(rows[start:], values)]


def _stop(name):
    return f"{name} no longer deviates"


#: Rows (scale-8-like numbers) each check accepts, the deviations it records
#: on them, and edits that break one claim each: ``(text of the violation, edit)``.
CASES = {
    "table1": (
        _rows("dataset levels paper_grids", *[(f"d{i}", 2, "512/256") for i in range(7)]),
        set(),
        [("Table 1 has", lambda rows: rows.pop()), ("1 levels, not 2", _set("levels", 1))],
    ),
    "fig07": (
        _rows("strategy ratio psnr_db", ("nast", 4.75, 71.14), ("opst", 5.16, 71.15)),
        {"opst_psnr_tied_with_nast"},
        [
            ("ratio", _set("ratio", 4.0, start=1)),
            ("must not lose", _set("psnr_db", 70.0, start=1)),
            (_stop("opst_psnr_tied_with_nast"), _set("psnr_db", 72.0, start=1)),
        ],
    ),
    "fig11": (
        _rows("panel eb opst_bitrate akdtree_bitrate", ("z10", 5e-4, 6.15, 6.21)),
        set(),
        [("OpST 9 vs AKDTree", _set("opst_bitrate", 9.0))],
    ),
    "fig12": (
        _rows("strategy ratio psnr_db", ("zf", 5.82, 48.24), ("gsp", 5.86, 48.23)),
        {"gsp_psnr_tied_with_zf"},
        [
            ("ratio", _set("ratio", 5.6, start=1)),
            ("must not lose", _set("psnr_db", 47.0, start=1)),
            (_stop("gsp_psnr_tied_with_zf"), _set("psnr_db", 49.0, start=1)),
        ],
    ),
    "fig13": (
        _rows(
            "density grid opst_seconds akdtree_seconds",
            (0.1, 64, 1.0, 3.0), (0.5, 64, 2.0, 3.0), (0.9, 64, 2.0, 3.0),
        ),
        {"akdtree_below_opst_peak"},
        [
            ("grow with density", _set("opst_seconds", 1.0, 1.1, 1.2)),
            ("one grid, in density order", _set("grid", 32)),
            ("one grid, in density order", _set("density", 0.9, 0.5, 0.1)),
            ("positive times", _set("akdtree_seconds", 0.0)),
            (_stop("akdtree_below_opst_peak"), _set("opst_seconds", 1.0, 2.0, 4.0)),
        ],
    ),
    "fig14": (
        _rd(("Run1_Z10", 5.23, 5.57, 5.66, 12.3), ("Run1_Z3", 2.4, 2.6, 2.67, 2.18)),
        set(),
        [
            ("Run1_Z10: TAC/1D", _set("tac_bitrate", 5.8)),
            ("Run1_Z3: TAC/1D", _set("tac_bitrate", 3.4, start=1)),
            ("zMesh/1D", _set("zmesh_bitrate", 5.0)),
            ("positive", _set("zmesh_psnr", 0.0)),
        ],
    ),
    "fig15": (
        _rd(("Run2_T3", 6.05, 5.83, 5.23, 125.3)),
        {"tac_not_below_1d_and_zmesh"},
        [
            ("vs 3D", _set("baseline_3d_bitrate", 5.0)),
            (_stop("tac_not_below_1d_and_zmesh"), _set("tac_bitrate", 5.0)),
        ],
    ),
    "fig18": (
        _rows(
            "eb_rel fine_bitrate coarse_bitrate",
            (1e-2, 0.7, 4.61), (1e-3, 3.26, 8.02), (1e-4, 7.64, 12.02),
        ),
        set(),
        [
            ("fine bit-rate should rise", _set("fine_bitrate", 0.5, start=1)),
            ("fine loose step", _set("fine_bitrate", 5.0, start=1)),
            ("coarse loose step", _set("coarse_bitrate", 9.5, start=1)),
        ],
    ),
    "fig19": (
        _rows(
            "method ratio ps_max_rel_err",
            ("baseline_3d", 15.95, 0.0356), ("tac_1to1", 15.99, 0.0194),
            ("tac_3to1", 15.97, 0.0355),
        ),
        {"tac31_not_below_tac11", "tac_above_1pct_line"},
        [
            ("CR spread", _set("ratio", 20.0, start=2)),
            ("rows", lambda rows: rows.reverse()),
            ("TAC(1:1) P(k)", _set("ps_max_rel_err", 0.04, start=1)),
            ("TAC(3:1) P(k)", _set("ps_max_rel_err", 0.04, start=2)),
            (_stop("tac31_not_below_tac11"), _set("ps_max_rel_err", 0.01, start=2)),
            (_stop("tac_above_1pct_line"), _set("ps_max_rel_err", 0.005, 0.004, start=1)),
        ],
    ),
    "table2": (
        _rows(
            "dataset baseline_1d baseline_3d tac eb_abs",
            ("Run1_Z10", 20.07, 9.12, 9.83, 1e9), ("Run1_Z5", 23.62, 16.88, 9.75, 1e9),
            ("Run1_Z3", 27.87, 19.53, 15.76, 1e9), ("Run1_Z2", 26.4, 18.33, 16.04, 1e9),
            ("Run2_T2", 2.97, 2.59, 3.13, 1e9), ("Run2_T3", 2.28, 0.564, 2.09, 1e9),
            ("Run2_T4", 1.89, 0.0726, 1.14, 1e9),
        ),
        {"tac_not_clearly_ahead_of_3d", "tac_over_2x_behind_1d"},
        [
            ("need all > 0", _set("baseline_1d", 0.0, start=4)),
            ("TAC/3D <= 1.0", _set("tac", 0.5, start=5)),
            ("TAC/3D <= 3.0", _set("tac", 0.2, start=6)),
            ("need 1D fastest", _set("tac", 30.0)),
            (_stop("tac_not_clearly_ahead_of_3d"), _set("tac", 12.0, 22.2, 25.6, 24.1, 3.4)),
            (_stop("tac_over_2x_behind_1d"), _set("tac", 13.4, 15.8, 18.6, 17.6, 2.0, 1.52, 1.26)),
        ],
    ),
    "table3": (
        _rows(
            "method ratio rel_mass_diff cell_diff matched",
            ("baseline_3d", 15.95, 0.0234, 1, True), ("tac_1to1", 15.99, 0.00043, 0, True),
            ("tac_2to1", 15.91, 0.0223, 1, True),
        ),
        {"tac21_not_below_tac11"},
        [
            ("CR spread", _set("ratio", 20.0, start=2)),
            ("biggest halo", _set("matched", False)),
            ("tac_2to1 rel_mass_diff", _set("rel_mass_diff", 0.03, start=2)),
            ("tac_1to1 cell_diff", _set("cell_diff", 2, start=1)),
            (_stop("tac21_not_below_tac11"), lambda r: r[2].update(rel_mass_diff=0, cell_diff=0)),
        ],
    ),
    "ablation_block_size": (
        _rows("unit_block", (2,), (4,)), set(), [("block sizes", lambda rows: rows.pop())]
    ),
    "ablation_predictor": (
        _rows("predictor bit_rate", ("interp", 6.32), ("lorenzo", 6.54)), set(),
        [("interp 7.5", _set("bit_rate", 7.5))],
    ),
    "ablation_thresholds": (
        _rows(
            "strategy bit_rate dataset",
            *[(s, b, "Run1_Z3") for s, b in (("hybrid", 3.48), ("opst", 2.96), ("gsp", 3.56))],
        ),
        set(),
        [("Run1_Z3: 4 vs best", _set("bit_rate", 4.0))],
    ),
    "ablation_split_rule": (
        _rows("level adaptive_leaves fixed_leaves", ("Run1_Z10/L0", 70, 83)), set(),
        [
            ("0 adaptive", _set("adaptive_leaves", 0)),
            ("100 adaptive", _set("adaptive_leaves", 100)),
        ],
    ),
    "ablation_gsp_layers": (
        _rows("config bit_rate", ("zero_fill", 7.61), ("a", 7.66), ("b", 7.63), ("c", 7.92)),
        {"padding_not_below_zero_fill"},
        [
            ("zero fill, 3+ depths", lambda rows: rows.reverse()),
            (_stop("padding_not_below_zero_fill"), _set("bit_rate", 7.5, 7.5, 7.5, start=1)),
        ],
    ),
}


def test_every_entry_has_a_check_and_every_deviation_a_case():
    assert set(CASES) == set(REGISTRY) == set(REDUCED_RUNS)
    for name, (_, deviations, edits) in CASES.items():
        assert isinstance(REGISTRY[name], Experiment) and callable(REGISTRY[name].check)
        assert REDUCED_RUNS[name][1] <= deviations
        assert {n.split()[0] for n, _ in edits if n.endswith("no longer deviates")} == deviations


@pytest.mark.parametrize("name", CASES)
def test_check_accepts_its_case(name):
    rows, deviations, _ = CASES[name]
    violations, recorded = REGISTRY[name].check(ExperimentResult(name, "", rows()))
    assert violations == [] and set(recorded) == deviations


@pytest.mark.parametrize(
    "name, index",
    [
        pytest.param(name, i, id=f"{name}-{needle}")
        for name, (_, _, edits) in CASES.items()
        for i, (needle, _) in enumerate(edits)
    ],
)
def test_check_fails_a_broken_claim(name, index):
    make_rows, _, edits = CASES[name]
    needle, edit = edits[index]
    rows = make_rows()
    edit(rows)
    violations, _ = REGISTRY[name].check(ExperimentResult(name, "", rows))
    assert any(needle in v for v in violations), violations
