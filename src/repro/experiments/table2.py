"""Table 2 — end-to-end throughput of 1D / 3D / TAC at three absolute bounds.

Paper: on a 56-core Xeon node, the 1D baseline is fastest on Run 1 (no
pre-processing), TAC is close behind, and the 3D baseline collapses on
Run 2 — up-sampling a 99.8%-coarse dataset inflates the work 8–512×, so
TAC's throughput advantage over it reaches ~75×.  Absolute MB/s from a
NumPy implementation are not comparable to the paper's C numbers; the
*ordering* and the inflation-driven gaps are the reproduced quantities.

Throughput = original stored bytes / (compress + decompress wall time),
matching the paper's "overall" metric.
"""

from __future__ import annotations

from repro.analysis.metrics import throughput_mb_s
from repro.experiments.common import (
    Claims,
    ExperimentResult,
    Verdict,
    dataset,
    experiment_scale,
    make_methods,
)
from repro.sim.datasets import TABLE1
from repro.utils.timer import TimingRecord

#: The paper's absolute bounds (baryon density has mean ~1e9, as in Nyx).
PAPER_ERROR_BOUNDS = (1e8, 1e9, 1e10)

#: Methods in Table 2's column order.
METHOD_ORDER = ("baseline_1d", "baseline_3d", "tac")

#: Every Table 1 dataset, in declaration order.
ALL_DATASETS = tuple(TABLE1)

RUN1 = tuple(name for name in ALL_DATASETS if name.startswith("Run1"))

#: Run 2 datasets whose up-sampling inflation collapses the 3D baseline; on
#: Run2_T4, the paper's ~75x row, TAC must beat it by more than RUN2_T4_GAP.
INFLATED, RUN2_T4_GAP = ("Run2_T3", "Run2_T4"), 3.0

#: A cell moves by up to 30 % between runs: "1D is fastest" fails only when
#: missed by this factor, and a deviation stops only when its claim holds by it.
SPREAD = 1.3

#: "TAC within ~2x of 1D".
TAC_VS_1D = 2.0


def run(
    scale: int | None = None,
    error_bounds=PAPER_ERROR_BOUNDS,
    datasets=ALL_DATASETS,
) -> ExperimentResult:
    scale = experiment_scale(scale)
    result = ExperimentResult(
        experiment="table2",
        title="Overall throughput (MB/s), compress+decompress",
        paper_claim=(
            "1D fastest on Run1; TAC within ~2x of 1D; 3D baseline slowest, "
            "catastrophically so on Run2 (TAC up to ~75x faster)"
        ),
    )
    methods = {k: v for k, v in make_methods().items() if k in METHOD_ORDER}
    for eb in error_bounds:
        for name in datasets:
            ds = dataset(name, scale)
            row: dict = {"eb_abs": eb, "dataset": name}
            for label in METHOD_ORDER:
                compressor = methods[label]
                ct = TimingRecord()
                comp = compressor.compress(ds, eb, mode="abs", timings=ct)
                dt = TimingRecord()
                compressor.decompress(comp, timings=dt)
                row[label] = throughput_mb_s(ds.original_bytes(), ct.total() + dt.total())
            result.rows.append(row)
    return result


def check(result: ExperimentResult) -> Verdict:
    """Enforced — every throughput is positive, and TAC beats 3D on every
    :data:`INFLATED` row, by more than :data:`RUN2_T4_GAP` on Run2_T4.
    Judged once a result covers all of Run 1 — 1D is the fastest there
    (within :data:`SPREAD`), and two recorded deviations: TAC is
    not clearly (:data:`SPREAD`) ahead of 3D on Run 1 and Run2_T2
    (``tac_not_clearly_ahead_of_3d``), nor clearly within 2x of 1D
    (``tac_over_2x_behind_1d``).
    """
    claims = Claims([], {})
    for row in result.rows:
        claims.require(min(row[m] for m in METHOD_ORDER) > 0, f"{_cell(row)}: need all > 0")
        if row["dataset"] in INFLATED:
            need = RUN2_T4_GAP if row["dataset"] == "Run2_T4" else 1.0
            claims.require(row["tac"] > need * row["baseline_3d"], f"{_cell(row)} TAC/3D <= {need}")
    if set(RUN1) <= {r["dataset"] for r in result.rows}:
        rest = [r for r in result.rows if r["dataset"] not in INFLATED]
        for row in (r for r in rest if r["dataset"] in RUN1):
            fastest = max(row["tac"], row["baseline_3d"])
            claims.require(fastest <= SPREAD * row["baseline_1d"], f"{_cell(row)}: need 1D fastest")
        low = min(rest, key=lambda r: r["tac"] / r["baseline_3d"])
        claims.deviation(
            "tac_not_clearly_ahead_of_3d",
            low["tac"] < SPREAD * low["baseline_3d"],
            f"TAC slower on {sum(r['tac'] < r['baseline_3d'] for r in rest)} of {len(rest)} rows; "
            f"lowest TAC/3D {_cell(low)}",
        )
        high = max(result.rows, key=lambda r: r["baseline_1d"] / r["tac"])
        claims.deviation(
            "tac_over_2x_behind_1d",
            SPREAD * high["baseline_1d"] > TAC_VS_1D * high["tac"],
            f"highest 1D/TAC x{high['baseline_1d'] / high['tac']:.2f} {_cell(high)}",
        )
    return claims


def _cell(row: dict) -> str:
    return (
        f"{row['dataset']} @{row['eb_abs']:g} (1D {row['baseline_1d']:.3g}, "
        f"3D {row['baseline_3d']:.3g}, TAC {row['tac']:.3g} MB/s)"
    )
