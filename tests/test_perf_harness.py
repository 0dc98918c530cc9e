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


def test_memory_rows_are_not_timed_against_the_baseline():
    """A ``*_peak_mb`` row has no seconds: the slowdown gate skips it, even
    where the baseline holds a timed row of that name."""
    baseline = {"a_peak_mb": {"seconds": 1.0}, "b": {"seconds": 1.0}}
    results = {
        "a_peak_mb": {"peak_mb": {"threads_1": 9.0, "threads_2": 8.0}, "n_values": 1},
        "b": {"seconds": 5.0, "mb_per_s": None, "n_values": 1},
    }
    failures = perf_harness.compare_to_baseline(results, baseline, 2.0)
    assert [line.split(":")[0] for line in failures] == ["b"]


def test_peak_mb_restores_the_encode_threads():
    from repro.sz import compressor

    before = compressor.ENCODE_THREADS
    seen = []
    assert perf_harness.peak_mb(lambda: seen.append(compressor.ENCODE_THREADS), 2) >= 0
    assert seen == [2] and compressor.ENCODE_THREADS == before


def test_every_gated_op_is_one_the_suite_names():
    """CI's perf-smoke gate times what the baseline holds: each of its rows
    is an op of ``GROUP_OPS``, so ``--ops`` can select it and a renamed op
    cannot silently drop out of the gate."""
    baseline_path = perf_harness.REPO_ROOT / "benchmarks" / "baselines" / "perf_smoke_baseline.json"
    gated = set(json.loads(baseline_path.read_text())) - {perf_harness.META_KEY}
    known = {op for names in perf_harness.GROUP_OPS.values() for op in names}
    assert gated <= known
    assert perf_harness.GROUP_OPS["serve"] == (
        "serve_cold_roi", "serve_cold_roi_pool", "serve_chain_cold_roi", "serve_warm_roi"
    )
    assert {"serve_warm_roi", "serve_chain_cold_roi"} <= gated


def test_write_memory_rows_are_emitted_and_selectable():
    """``tac_compress_peak_mb`` (a snapshot write, default bricks) and
    ``ingest_keyframe_peak_mb`` (tacbench's peak ingest round) are memory
    rows of the groups ``--ops`` selects them through."""
    assert "tac_compress_peak_mb" in perf_harness.GROUP_OPS["codecs"]
    assert "ingest_keyframe_peak_mb" in perf_harness.GROUP_OPS["ingest"]
    rows = perf_harness.run_suite(
        scale=16, repeats=1, ops={"tac_compress_peak_mb", "ingest_keyframe_peak_mb"}
    )
    assert set(rows) == {"tac_compress_peak_mb", "ingest_keyframe_peak_mb"}
    for row in rows.values():
        assert "seconds" not in row and row["n_values"] > 0
        assert set(row["peak_mb"]) == {"threads_1", "threads_2"}
        assert all(mb > 0 for mb in row["peak_mb"].values())
