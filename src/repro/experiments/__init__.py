"""Per-table/figure reproduction experiments (see DESIGN.md §4).

Each module exposes ``run(scale=...) -> ExperimentResult`` and
``check(result) -> (violations, deviations)`` (:mod:`.ablations` has one
pair per study); ``check`` is the one statement of a claim and its
tolerance.  The registries below pair them as :class:`Experiment` entries:
calling one runs it and records the verdict, which ``report()`` prints as
its last line.  ``repro experiments``, the figure bench
(``benchmarks/bench_experiments.py``, which writes each pass to
``benchmarks/results/<experiment>.txt``) and tier-1 all call the same
entries (README, "Tests and benchmarks").
"""

from repro.experiments import ablations, fig07, fig11, fig12, fig13, fig14, fig15, fig18, fig19
from repro.experiments import table1, table2, table3
from repro.experiments.common import Experiment, ExperimentResult

#: All paper experiments keyed by id (ablations are separate entry points).
PAPER_EXPERIMENTS = {
    "table1": Experiment(table1.run, table1.check),
    "fig07": Experiment(fig07.run, fig07.check),
    "fig11": Experiment(fig11.run, fig11.check),
    "fig12": Experiment(fig12.run, fig12.check),
    "fig13": Experiment(fig13.run, fig13.check),
    "fig14": Experiment(fig14.run, fig14.check),
    "fig15": Experiment(fig15.run, fig15.check),
    "fig18": Experiment(fig18.run, fig18.check),
    "fig19": Experiment(fig19.run, fig19.check),
    "table2": Experiment(table2.run, table2.check),
    "table3": Experiment(table3.run, table3.check),
}

ABLATIONS = {
    "ablation_block_size": Experiment(ablations.run_block_size, ablations.check_block_size),
    "ablation_predictor": Experiment(ablations.run_predictor, ablations.check_predictor),
    "ablation_thresholds": Experiment(ablations.run_thresholds, ablations.check_thresholds),
    "ablation_split_rule": Experiment(ablations.run_split_rule, ablations.check_split_rule),
    "ablation_gsp_layers": Experiment(ablations.run_gsp_layers, ablations.check_gsp_layers),
}

__all__ = ["PAPER_EXPERIMENTS", "ABLATIONS", "Experiment", "ExperimentResult"]
