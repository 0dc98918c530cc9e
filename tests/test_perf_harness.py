"""``benchmarks/perf_harness.py::merge_write``: one scale per trajectory file."""

import json

from benchmarks import perf_harness


def test_rows_of_another_scale_go_to_their_own_file(tmp_path, monkeypatch):
    monkeypatch.setattr(perf_harness, "REPO_ROOT", tmp_path)
    target = tmp_path / "BENCH_hotpaths.json"
    row = {"seconds": 1.0, "mb_per_s": 2.0, "n_values": 3}
    assert perf_harness.merge_write({"a": row}, target, scale=4, repeats=5) == target
    committed = target.read_text()
    # `pytest benchmarks/` at REPRO_SCALE=8 must not plant rows in the scale-4 file.
    side = perf_harness.merge_write({"b": row}, target, scale=8)
    assert side == tmp_path / "benchmarks" / "results" / "BENCH_hotpaths.scale8.json"
    assert target.read_text() == committed
    assert set(json.loads(side.read_text())) == {"b", "_meta"}
    assert perf_harness.merge_write({"c": row}, target, scale=8) == side
    assert set(json.loads(side.read_text())) == {"b", "c", "_meta"}
    # Same scale (or none stated) merges in place and keeps the run's repeats.
    perf_harness.merge_write({"d": row}, target, scale=4)
    merged = json.loads(target.read_text())
    assert set(merged) == {"a", "d", "_meta"} and merged["_meta"]["repeats"] == 5
