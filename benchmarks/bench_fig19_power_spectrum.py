"""Fig. 19 — power-spectrum error with adaptive error bounds (Run1_Z2)."""

from benchmarks.conftest import run_experiment
from repro.experiments import fig19


def bench_fig19_power_spectrum(benchmark, report):
    result = run_experiment(benchmark, fig19.run, report)
    by_method = {r["method"]: r for r in result.rows}
    benchmark.extra_info["baseline_err"] = by_method["baseline_3d"]["ps_max_rel_err"]
    benchmark.extra_info["tac31_err"] = by_method["tac_3to1"]["ps_max_rel_err"]
    # Reproduced direction: level-wise TAC (either bound ratio) beats the
    # 3D baseline's P(k) error at matched CR.  The paper's internal
    # 3:1-vs-1:1 ordering does not survive the substrate swap (both rows
    # land in benchmarks/results/fig19.txt, see README "Tests and
    # benchmarks"); we assert the robust part and report both.
    base = by_method["baseline_3d"]["ps_max_rel_err"]
    assert by_method["tac_3to1"]["ps_max_rel_err"] <= base * 1.05
    assert by_method["tac_1to1"]["ps_max_rel_err"] <= base * 1.05
