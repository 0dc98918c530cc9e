"""The paper's tables and figures, and the ablations: one bench per entry.

Each entry of :data:`repro.experiments.PAPER_EXPERIMENTS` and
:data:`~repro.experiments.ABLATIONS` runs once under pytest-benchmark
(wall time recorded); its report, which ends with the check's verdict, is
printed and written to ``benchmarks/results/<experiment>.txt``, and the
bench fails on any violation.  The claims and their tolerances live in the
experiment modules' ``check`` functions, which tier-1 calls too.

Table 2 also emits its per-dataset TAC and 3D-baseline throughputs into
``BENCH_hotpaths.json``, so the perf trajectory records end-to-end
numbers, not just micro-benchmarks.
"""

import pytest

from benchmarks.conftest import SCALE
from benchmarks.perf_harness import merge_write
from repro.experiments import ABLATIONS, PAPER_EXPERIMENTS

REGISTRY = {**PAPER_EXPERIMENTS, **ABLATIONS}


@pytest.mark.parametrize("name", REGISTRY)
def bench_experiment(benchmark, results_dir, name):
    result = benchmark.pedantic(REGISTRY[name], kwargs={"scale": SCALE}, rounds=1, iterations=1)
    text = result.report()
    print("\n" + text)
    (results_dir / f"{name}.txt").write_text(text + "\n")
    violations, deviations = result.verdict
    benchmark.extra_info["deviations"] = sorted(deviations)
    if name == "table2":
        _emit_table2(result)
    assert not violations, violations


def _emit_table2(result):
    ops = {}
    for row in result.rows:
        for method in ("tac", "baseline_3d"):
            ops[f"table2_{row['dataset']}_eb{row['eb_abs']:g}_{method}"] = {
                "seconds": None,  # Table 2 records throughput, not raw time
                "mb_per_s": round(float(row[method]), 3),
                "n_values": None,
            }
    gaps = [r["tac"] / r["baseline_3d"] for r in result.rows if r["dataset"].startswith("Run2")]
    merge_write(ops, scale=SCALE, table2_max_run2_speedup=round(max(gaps), 1))
