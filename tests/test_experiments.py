"""Integration tests: every experiment module runs and reports sane rows.

Run at the smallest scale so the whole file stays fast; the benchmark
harness exercises the realistic sizes.
"""

import pytest

from repro.experiments import ABLATIONS, PAPER_EXPERIMENTS
from repro.experiments.common import ExperimentResult, match_ratio_error_bound
from repro.core.tac import TACCompressor
from repro.sim.datasets import make_dataset

SCALE = 8


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

    def test_report_includes_claim(self):
        res = ExperimentResult(experiment="x", title="t", paper_claim="c", notes="n")
        report = res.report()
        assert "paper: c" in report and "notes: n" in report

    def test_match_ratio_bisection(self):
        ds = make_dataset("Run1_Z10", scale=SCALE)
        tac = TACCompressor()
        target = tac.compress(ds, 1e-3, mode="rel").ratio(include_masks=False)
        eb = match_ratio_error_bound(tac, ds, target, iterations=8)
        achieved = tac.compress(ds, eb, mode="rel").ratio(include_masks=False)
        assert achieved == pytest.approx(target, rel=0.25)


class TestPaperExperimentsRun:
    def test_table1(self):
        res = PAPER_EXPERIMENTS["table1"](scale=SCALE)
        assert len(res.rows) == 7
        assert all(r["levels"] >= 2 for r in res.rows)

    def test_fig07_opst_wins_ratio(self):
        res = PAPER_EXPERIMENTS["fig07"](scale=SCALE)
        nast, opst = res.rows
        assert opst["ratio"] > nast["ratio"]

    def test_fig11_opst_akdtree_close(self):
        res = PAPER_EXPERIMENTS["fig11"](scale=SCALE, error_bounds=(5e-4,))
        for row in res.rows:
            # Paper: near-identical compression performance at any density.
            assert row["opst_bitrate"] == pytest.approx(
                row["akdtree_bitrate"], rel=0.35
            ), row

    def test_fig12_gsp_not_worse_than_zf(self):
        res = PAPER_EXPERIMENTS["fig12"](scale=SCALE)
        zf, gsp = res.rows
        assert gsp["ratio"] >= zf["ratio"] * 0.98

    def test_fig13_reports_all_densities(self):
        res = PAPER_EXPERIMENTS["fig13"](scale=SCALE, repeats=1, densities=(0.1, 0.5, 0.9))
        assert len(res.rows) == 3
        densities = [r["density"] for r in res.rows]
        assert densities == sorted(densities)
        assert all(r["opst_seconds"] >= 0 for r in res.rows)
        # All rows share one grid: density is the only variable.
        assert len({r["grid"] for r in res.rows}) == 1

    def test_fig13_claims_hold_or_are_recorded_deviations(self):
        from repro.experiments import fig13

        res = fig13.run(scale=SCALE, repeats=3, densities=(0.1, 0.5, 0.9))
        violations, deviations = fig13.check(res)
        assert violations == []
        assert set(deviations) == {"akdtree_below_opst_peak"}
        assert "deviation akdtree_below_opst_peak: AKDTree peaks at" in res.notes

    def test_fig13_check_fails_a_flat_opst_and_a_deviation_that_stopped_deviating(self):
        from repro.experiments import fig13
        from repro.experiments.common import ExperimentResult

        def rows(opst, akd):
            return ExperimentResult(
                experiment="fig13", title="",
                rows=[
                    {"density": d, "opst_seconds": o, "akdtree_seconds": a}
                    for d, o, a in zip((0.1, 0.5, 0.9), opst, akd)
                ],
            )

        violations, deviations = fig13.check(rows((1.0, 1.1, 1.2), (3.0, 3.0, 3.0)))
        assert len(violations) == 1 and "grow with density" in violations[0]
        assert set(deviations) == {"akdtree_below_opst_peak"}
        violations, deviations = fig13.check(rows((1.0, 2.0, 4.0), (3.0, 3.0, 3.0)))
        assert len(violations) == 1 and "no longer deviates" in violations[0]
        assert deviations == {}

    def test_fig14_rows_complete(self):
        res = PAPER_EXPERIMENTS["fig14"](scale=SCALE, error_bounds=(1e-3,), datasets=("Run1_Z10",))
        row = res.rows[0]
        for label in ("tac", "baseline_1d", "zmesh", "baseline_3d"):
            assert row[f"{label}_bitrate"] > 0
            assert row[f"{label}_psnr"] > 0

    def test_fig15_tac_dominates(self):
        res = PAPER_EXPERIMENTS["fig15"](scale=SCALE, error_bounds=(1e-3,))
        for row in res.rows:
            assert row["tac_bitrate"] < row["baseline_3d_bitrate"], row

    def test_fig18_bitrate_decreases_with_eb(self):
        res = PAPER_EXPERIMENTS["fig18"](scale=SCALE, error_bounds=(1e-2, 1e-3, 1e-4))
        fine = [r["fine_bitrate"] for r in res.rows]
        assert fine == sorted(fine)

    def test_fig19_runs_and_reports(self):
        res = PAPER_EXPERIMENTS["fig19"](scale=SCALE)
        methods = [r["method"] for r in res.rows]
        assert methods == ["baseline_3d", "tac_1to1", "tac_3to1"]
        ratios = [r["ratio"] for r in res.rows]
        assert max(ratios) / min(ratios) < 2.0  # matched CRs

    def test_table2_throughputs_positive(self):
        res = PAPER_EXPERIMENTS["table2"](
            scale=SCALE, error_bounds=(1e9,), datasets=("Run1_Z10", "Run2_T3")
        )
        for row in res.rows:
            for label in ("baseline_1d", "baseline_3d", "tac"):
                assert row[label] > 0

    def test_table2_tac_beats_3d_on_run2(self):
        res = PAPER_EXPERIMENTS["table2"](
            scale=SCALE, error_bounds=(1e9,), datasets=("Run2_T3",)
        )
        row = res.rows[0]
        assert row["tac"] > row["baseline_3d"]

    def test_table3_runs_and_matches_ratios(self):
        res = PAPER_EXPERIMENTS["table3"](scale=SCALE)
        assert [r["method"] for r in res.rows] == ["baseline_3d", "tac_1to1", "tac_2to1"]
        assert all(r["matched"] for r in res.rows)


class TestAblationsRun:
    def test_block_size(self):
        res = ABLATIONS["ablation_block_size"](scale=SCALE)
        assert len(res.rows) >= 2

    def test_predictor(self):
        res = ABLATIONS["ablation_predictor"](scale=SCALE)
        interp, lorenzo = res.rows
        assert interp["predictor"] == "interp"
        # Interp should not lose to Lorenzo on rate at similar PSNR.
        assert interp["bit_rate"] <= lorenzo["bit_rate"] * 1.1

    def test_thresholds(self):
        res = ABLATIONS["ablation_thresholds"](scale=SCALE)
        hybrids = [r for r in res.rows if r["strategy"] == "hybrid"]
        assert hybrids

    def test_split_rule(self):
        res = ABLATIONS["ablation_split_rule"](scale=SCALE)
        for row in res.rows:
            assert row["adaptive_leaves"] > 0

    def test_gsp_layers(self):
        res = ABLATIONS["ablation_gsp_layers"](scale=SCALE)
        assert res.rows[0]["config"] == "zero_fill"
        assert len(res.rows) >= 4
