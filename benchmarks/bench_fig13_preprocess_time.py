"""Fig. 13 — pre-process time of OpST vs AKDTree across densities."""

from benchmarks.conftest import run_experiment
from repro.experiments import fig13


def bench_fig13_preprocess_time(benchmark, report):
    result = run_experiment(benchmark, fig13.run, report)
    violations, deviations = fig13.check(result)
    benchmark.extra_info["deviations"] = sorted(deviations)
    assert not violations, violations
