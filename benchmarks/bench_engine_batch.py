"""Session batch smoke benchmark: 1 vs 4 encoder workers.

Not a paper figure — measures the scaling seam built on TAC's level-wise
decomposition: a 4-field synthetic snapshot batch through one
:class:`repro.ingest.IngestSession` with 1 worker (synchronous) vs 4
workers (pipelined).  The session contract says the
pipelined path must write *byte-identical* entries, so this bench asserts
that too: any speedup that changes bytes is a bug, not a win.
"""

import os
import time

import pytest

from benchmarks.conftest import SCALE
from repro.engine import LazyBatchArchive
from repro.ingest import IngestSession
from repro.sim.datasets import make_dataset
from repro.sim.nyx import NYX_FIELDS

#: Four fields of one snapshot — the acceptance-criterion batch.
BATCH_FIELDS = tuple(NYX_FIELDS[:4])


@pytest.fixture(scope="module")
def batch_fields():
    return [make_dataset("Run1_Z2", scale=SCALE, field=field) for field in BATCH_FIELDS]


def run_session(head, datasets, workers: int):
    """Each field its own entry (one chain each, so they encode concurrently)."""
    with IngestSession(head, error_bound=1e-4, workers=workers) as session:
        session.extend(datasets)
    return session.report


def entry_bytes(head) -> dict[str, dict[str, bytes]]:
    out = {}
    with LazyBatchArchive.open(head) as archive:
        for key in archive.keys():
            entry = archive.entry(key)
            out[key] = {name: entry.parts[name] for name in entry.parts}
    return out


@pytest.mark.parametrize("workers", [1, 4])
def bench_engine_batch(benchmark, batch_fields, workers, tmp_path):
    report = benchmark.pedantic(
        run_session, args=(tmp_path / "batch.rpbt", batch_fields, workers),
        rounds=1, iterations=1,
    )
    assert report.n_entries == len(batch_fields)
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["jobs"] = len(batch_fields)
    benchmark.extra_info["ratio"] = round(report.ratio(), 2)


def bench_engine_serial_vs_parallel(benchmark, batch_fields, results_dir, tmp_path):
    """One record with both wall times, the speedup, and the identity check."""

    def compare():
        t0 = time.perf_counter()
        serial = run_session(tmp_path / "serial.rpbt", batch_fields, workers=1)
        t_serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        parallel = run_session(tmp_path / "parallel.rpbt", batch_fields, workers=4)
        t_parallel = time.perf_counter() - t0
        assert entry_bytes(serial.head_path) == entry_bytes(parallel.head_path), (
            "pipelined session wrote different entry bytes"
        )
        return t_serial, t_parallel

    t_serial, t_parallel = benchmark.pedantic(compare, rounds=1, iterations=1)
    speedup = t_serial / t_parallel if t_parallel else float("inf")
    benchmark.extra_info["serial_s"] = round(t_serial, 3)
    benchmark.extra_info["parallel_s"] = round(t_parallel, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    text = (
        f"== engine_batch: session workers 1 vs 4 (4 fields, scale {SCALE}) ==\n"
        f"serial  : {t_serial:.3f}s\n"
        f"parallel: {t_parallel:.3f}s (4 workers)\n"
        f"speedup : {speedup:.2f}x (entries byte-identical)\n"
    )
    print("\n" + text)
    (results_dir / "engine_batch.txt").write_text(text)
    # Acceptance: measurably faster than serial — on a node with cores to
    # spare AND enough per-entry work that pool overhead cannot dominate
    # (sub-second scale-8 batches can measure ~0.95x from overhead alone).
    # A single-core box can only interleave, so assert there only that
    # parallelism costs nothing catastrophic.
    if (os.cpu_count() or 1) >= 4 and t_serial >= 1.0:
        assert speedup > 1.05, f"parallel batch not faster: {speedup:.2f}x"
    else:
        assert speedup > 0.5, f"parallel batch pathologically slow: {speedup:.2f}x"
