"""Self-test of tacbench (``pytest benchmarks/tacbench -q``; not tier-1).

Runs every workload in ``--smoke`` mode (scale 8, two rounds), once untraced
and once traced, and checks the instrument itself: every declared metric is
emitted, spans nest, a vanished span target degrades to ``null`` instead of
a crash, the declaration stays inside the driver's limits, and a violated
error bound is counted as a failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def smoke():
    """(workload, trace) -> detail record, each combination run once."""
    cache = {}

    def get(name: str, trace: int) -> dict:
        if (name, trace) not in cache:
            cache[name, trace] = run.run_workload(name, 1, 1.0, trace, smoke=True)
        return cache[name, trace]

    return get


def test_declaration_matches_spec_and_limits():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == spec.benchmark_json()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["paths"] == ["benchmarks/tacbench"]
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in declared[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(row["unit"]) for key in ("end_to_end", "per_layer")
               for row in declared[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert all(0 < row["bound"] <= 0.25 for row in declared["end_to_end"])
    setup = [row for row in declared["end_to_end"] if row["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    assert set(workloads.REGISTRY) == set(spec.WORKLOADS)


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_smoke_emits_every_metric(smoke, name):
    untraced = smoke(name, 0)
    assert untraced["failed"] == 0 and untraced["attempted"] >= 1
    line = run.contract_line(untraced)
    assert line["correct"] and set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [row[0] for row in spec.END_TO_END]
    for metric, entry in line["metrics"].items():
        assert np.isfinite(entry["value"]) and entry["value"] > 0, metric

    traced = smoke(name, 1)
    assert traced["failed"] == 0 and traced["trace_missing"] == []
    assert list(run.contract_line(traced)["metrics"]) == [row[0] for row in spec.PER_LAYER]
    for metric, value in traced["metrics"].items():
        assert value is not None and np.isfinite(value), metric
    assert (run.RESULTS / f"trace_{name}.jsonl").is_file()


@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_spans_resolve_and_nest(smoke, name):
    smoke(name, 1)
    rows = [json.loads(line) for line in
            (run.RESULTS / f"trace_{name}.jsonl").read_text().splitlines()]
    by_id = {row["id"]: row for row in rows}
    assert any(row["name"].startswith("op.") for row in rows)
    for row in rows:
        assert row["end"] >= row["start"]
        if row["parent"] is None:
            continue
        parent = by_id[row["parent"]]  # KeyError: parent did not resolve
        assert parent["start"] <= row["start"] and row["end"] <= parent["end"], row
        assert row["request"] == parent["request"]


def test_layer_predictions_hold_in_smoke(smoke):
    dense, ingest = smoke("snap_dense", 1)["metrics"], smoke("ingest_series", 1)["metrics"]
    cold, warm = smoke("roi_cold", 1)["metrics"], smoke("roi_warm", 1)["metrics"]
    steps = workloads.IngestSeries.steps
    assert ingest["sz.compress.calls"] / steps >= 5 * dense["sz.compress.calls"]
    assert cold["serve.cache.hit_rate"] == 0 and cold["sz.decompress.calls"] > 0
    assert warm["serve.cache.hit_rate"] >= 0.95 and warm["sz.decompress.calls"] == 0
    assert dense["core.strategy.gsp_levels"] == dense["core.strategy.opst_levels"] == 1
    assert 0 <= dense["compress.unattributed_share"] < 1


def test_psnr_matches_library(smoke):
    from repro.analysis import psnr

    workload = workloads.SnapDense(1, True, run.RESULTS)
    workload.setup()
    workload.prepare()
    run.run_ops(workload.warmup_round(), run.Tally(), run.SpeedProbe())
    restored = workload.tac.decompress(workloads.CompressedDataset.from_bytes(workload.blob))
    original = np.concatenate([lvl.data[lvl.mask] for lvl in workload.dataset.levels])
    decoded = np.concatenate(
        [back.data[lvl.mask] for lvl, back in zip(workload.dataset.levels, restored.levels)]
    )
    assert workload.psnr_db() == pytest.approx(psnr(original, decoded), abs=1e-6)


def test_missing_span_target_yields_null_not_crash(monkeypatch):
    broken = [
        (name, "repro.sz.compressor:SZCompressor.gone" if name == "sz.compress" else target, env)
        for name, target, env in spec.SPANS
    ]
    monkeypatch.setattr(spec, "SPANS", broken)
    detail = run.run_workload("snap_dense", 1, 1.0, 1, smoke=True)
    assert detail["failed"] == 0 and detail["trace_missing"] == ["sz.compress"]
    assert detail["metrics"]["sz.compress.busy_ms"] is None
    assert detail["metrics"]["sz.decompress.busy_ms"] > 0
    line = run.contract_line(detail)
    assert line["correct"] and line["metrics"]["sz.compress.calls"]["value"] == -1.0


def test_injected_bound_violation_raises_fail_share(monkeypatch):
    make_series = workloads.Workload.make_series

    def stricter_gate(self):
        series = make_series(self)
        self.eb_abs *= 0.01  # the codec honours eb, the gate now demands eb/100
        return series

    monkeypatch.setattr(workloads.Workload, "make_series", stricter_gate)
    detail = run.run_workload("snap_dense", 1, 1.0, 0, smoke=True)
    assert detail["failed"] > 0
    assert not run.contract_line(detail)["correct"]


def _result_file(path: Path, write_mb_s: list) -> str:
    """A result file with steady values everywhere but ``write_mb_s``."""
    runs = []
    for i, value in enumerate(write_mb_s):
        metrics = {name: 100.0 + 0.1 * i for name, *_ in spec.END_TO_END}
        metrics["write_mb_s"] = value
        runs.append({"metrics": metrics})
    path.write_text(json.dumps({"workloads": {"snap_dense": {"runs": runs}}}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    a = _result_file(tmp_path / "a.json", [10.0, 10.1, 9.9, 10.0])
    noisy = _result_file(tmp_path / "b.json", [10.0, 14.0, 7.0, 10.2])
    slower = _result_file(tmp_path / "c.json", [7.0, 7.1, 6.9, 7.0])
    assert run.compare_main(a, noisy) == 0
    out = capsys.readouterr().out
    assert re.search(r"write_mb_s .*unresolved", out)
    assert re.search(r"read_ms_p50 .*unchanged", out)
    assert run.compare_main(a, slower) == 1
    assert re.search(r"write_mb_s .*REGRESSED", capsys.readouterr().out)


def test_exits_nonzero_where_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "tacbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/tacbench/run.py", "--workload", "snap_dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
