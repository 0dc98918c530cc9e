"""Per-table/figure reproduction experiments (see DESIGN.md §4).

Each module exposes ``run(scale=...) -> ExperimentResult``; the benchmark
harness under ``benchmarks/`` prints these results next to the paper's
claims and writes each pass to ``benchmarks/results/<experiment>.txt``
(README, "Tests and benchmarks").
"""

from repro.experiments import (
    ablations,
    fig07,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig18,
    fig19,
    table1,
    table2,
    table3,
)
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    dataset,
    experiment_scale,
    make_methods,
    match_ratio_error_bound,
    single_level_dataset,
)

#: All paper experiments keyed by id (ablations are separate entry points).
PAPER_EXPERIMENTS = {
    "table1": table1.run,
    "fig07": fig07.run,
    "fig11": fig11.run,
    "fig12": fig12.run,
    "fig13": fig13.run,
    "fig14": fig14.run,
    "fig15": fig15.run,
    "fig18": fig18.run,
    "fig19": fig19.run,
    "table2": table2.run,
    "table3": table3.run,
}

ABLATIONS = {
    "ablation_block_size": ablations.run_block_size,
    "ablation_predictor": ablations.run_predictor,
    "ablation_thresholds": ablations.run_thresholds,
    "ablation_split_rule": ablations.run_split_rule,
    "ablation_gsp_layers": ablations.run_gsp_layers,
}

__all__ = [
    "PAPER_EXPERIMENTS",
    "ABLATIONS",
    "ExperimentResult",
    "dataset",
    "experiment_scale",
    "make_methods",
    "match_ratio_error_bound",
    "single_level_dataset",
    "DEFAULT_SCALE",
]
