"""Streamed-ingest gate: bounded memory, delta ratio, masks stored once.

The CI gate for the in-situ ingest pipeline (``repro.ingest``):

* **memory** — the session's tracemalloc peak must stay under
  2x the peak of merely *draining* ``compress_iter`` on the largest
  snapshot (the codec's own working set, measured in-process — a
  self-calibrating bound, since the compressor working set, not the
  writer, dominates both numbers).  A session that buffered whole
  entries would blow well past it;
* **ratio** — with ``keyframe_interval=steps`` the temporal-delta
  archive must be smaller than the keyframe-only archive of the same
  series;
* **multi-field step** — the six Nyx fields of one step through
  ``submit_step`` store each level's mask once: the archive must be
  smaller than the same fields submitted one by one, and any one field
  must decode on its own.

Stats land in ``benchmarks/results/ingest_stream_stats.json`` (uploaded
as a CI artifact), and the shared perf-harness ops
(``tac_compress_iter``, ``ingest_session_delta``) merge into
``BENCH_hotpaths.json``.  Runs standalone with numpy only (``python
benchmarks/bench_ingest_stream.py`` in CI's ``ingest-smoke``) and as a
pytest-benchmark case when ``benchmarks/`` is targeted explicitly.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

try:  # imported as a package module (pytest) or run as a script (CI)
    from benchmarks.perf_harness import _ingest_ops, merge_write
except ImportError:
    from perf_harness import _ingest_ops, merge_write

from repro.core.tac import TACCompressor
from repro.engine import LazyBatchArchive
from repro.ingest import IngestConfig, IngestSession
from repro.sim.datasets import make_dataset
from repro.sim.nyx import NYX_FIELDS
from repro.sim.timesteps import make_timestep_series

#: Session peak memory vs the codec's own compress_iter peak.
MAX_PEAK_FACTOR = 2.0

STEPS = 4

RESULTS_DIR = Path(__file__).parent / "results"


def _session_bytes(head: Path, cfg: IngestConfig, series, step=None) -> tuple[int, float]:
    """Write ``series`` (and the multi-field ``step``, if given) through
    one session; (archive bytes, wall seconds)."""
    start = time.perf_counter()
    with IngestSession(head, cfg) as session:
        session.extend(series)
        if step is not None:
            session.submit_step(step)
    wall = time.perf_counter() - start
    total = head.stat().st_size + sum(
        p.stat().st_size for p in session.report.write.shard_paths
    )
    return total, wall


def _step_gate(workdir: Path, scale: int) -> dict:
    """Six fields, one structure: masks once beats masks six times."""
    fields = {f: make_dataset("Run1_Z10", scale=scale, field=f) for f in NYX_FIELDS}
    cfg = IngestConfig(error_bound=1e-4, mode="rel")
    step_bytes, _ = _session_bytes(workdir / "step.rpbt", cfg, [], step=fields)
    each_bytes, _ = _session_bytes(
        workdir / "each.rpbt", cfg, [fields[f] for f in sorted(fields)]
    )
    assert step_bytes < each_bytes, (
        f"six-field step ({step_bytes} B) not smaller than its fields one by "
        f"one ({each_bytes} B)"
    )
    with LazyBatchArchive.open(workdir / "step.rpbt") as archive:
        assert len(archive) == len(NYX_FIELDS)
        one = archive.decompress(f"Run1_Z10/{NYX_FIELDS[-1]}/t0000")
    assert one.field == NYX_FIELDS[-1] and one.n_levels == fields[NYX_FIELDS[-1]].n_levels
    return {
        "fields": len(fields),
        "step_bytes": step_bytes,
        "one_by_one_bytes": each_bytes,
        "mask_saving": round(1.0 - step_bytes / each_bytes, 4),
    }


def run_gate(scale: int) -> dict:
    series = list(
        make_timestep_series("Run1_Z10", steps=STEPS, scale=scale, sigma_step=0.05)
    )
    series_bytes = sum(ds.original_bytes() for ds in series)
    workdir = Path(tempfile.mkdtemp(prefix="ingest_gate_"))
    try:
        cfg = dict(error_bound=1e-4, mode="rel", keyframe_interval=STEPS)
        stream_bytes, stream_wall = _session_bytes(
            workdir / "stream.rpbt", IngestConfig(**cfg), series
        )

        # -- memory: session peak vs the codec's own working set --
        codec = TACCompressor()
        tracemalloc.start()
        for _chunk in codec.compress_iter(series[0], 1e-4, "rel"):
            pass
        _, codec_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        tracemalloc.start()
        with IngestSession(workdir / "mem.rpbt", IngestConfig(**cfg)) as session:
            session.extend(series)
        _, session_peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peak_factor = session_peak / codec_peak
        assert peak_factor < MAX_PEAK_FACTOR, (
            f"session peaks at {peak_factor:.2f}x the codec's own "
            f"compress_iter peak; the gate requires < {MAX_PEAK_FACTOR}x"
        )

        # -- ratio: temporal delta must beat keyframe-only --
        kf_bytes, _ = _session_bytes(
            workdir / "kf.rpbt",
            IngestConfig(error_bound=1e-4, mode="rel", keyframe_interval=1),
            series,
        )
        assert stream_bytes < kf_bytes, (
            f"delta archive ({stream_bytes} B) not smaller than keyframe-only "
            f"({kf_bytes} B)"
        )
        step = _step_gate(workdir, scale)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "dataset": "Run1_Z10",
        "scale": scale,
        "steps": STEPS,
        "series_bytes": series_bytes,
        "stream": {
            "wall_seconds": round(stream_wall, 6),
            "mb_per_s": round(series_bytes / 1e6 / stream_wall, 3),
            "archive_bytes": stream_bytes,
        },
        "codec_peak_bytes": codec_peak,
        "session_peak_bytes": session_peak,
        "peak_factor": round(peak_factor, 3),
        "max_peak_factor": MAX_PEAK_FACTOR,
        "keyframe_only_bytes": kf_bytes,
        "delta_saving": round(1.0 - stream_bytes / kf_bytes, 4),
        "step": step,
    }


def _write_stats(stats: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "ingest_stream_stats.json"
    path.write_text(json.dumps(stats, indent=2, sort_keys=True) + "\n")
    return path


def _summarize(stats: dict) -> str:
    return (
        f"== ingest_stream gate (Run1_Z10, scale {stats['scale']}, "
        f"{stats['steps']} steps) ==\n"
        f"throughput : {stats['stream']['mb_per_s']} MB/s (reported, not gated)\n"
        f"memory     : session peak {stats['session_peak_bytes']} B = "
        f"{stats['peak_factor']}x codec peak (gate {stats['max_peak_factor']}x)\n"
        f"delta      : {stats['stream']['archive_bytes']} B vs "
        f"{stats['keyframe_only_bytes']} B keyframe-only "
        f"({stats['delta_saving']:.1%} saved)\n"
        f"step       : {stats['step']['fields']} fields, masks once: "
        f"{stats['step']['step_bytes']} B vs {stats['step']['one_by_one_bytes']} B "
        f"one by one ({stats['step']['mask_saving']:.1%} saved)"
    )


def bench_ingest_stream_gate(benchmark, results_dir):
    """pytest-benchmark entry point (bench-figures-smoke)."""
    from benchmarks.conftest import SCALE

    stats = benchmark.pedantic(run_gate, args=(SCALE,), rounds=1, iterations=1)
    _write_stats(stats)
    benchmark.extra_info["peak_factor"] = stats["peak_factor"]
    print("\n" + _summarize(stats))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=8, help="grid divisor (power of two)")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats per harness op")
    args = parser.parse_args(argv)
    try:
        stats = run_gate(args.scale)
    except AssertionError as exc:
        print(f"GATE FAILED: {exc}", file=sys.stderr)
        return 1
    path = _write_stats(stats)
    print(_summarize(stats))
    print(f"wrote {path}")
    merged = merge_write(_ingest_ops(args.scale, args.repeats), scale=args.scale)
    print(f"merged ingest ops into {merged}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
