"""Decode-path benchmark: full vs partial reads.

Not a paper figure — measures the read-side seam the container-v2/plan
refactor opened: one Run1_Z2 field compressed with TAC, then decompressed

* fully (``decompress``), the reference the partial reads are held to;
* one level only (``decompress_level``), with the lazy reader's
  part-access log proving *strictly less* SZ decode work than the full
  decode — the acceptance criterion of the partial-read API;
* a centered ROI (``decompress_region``), asserted equal to slicing the
  full reconstruction.

Results land in ``benchmarks/results/decode_parallel.txt``.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import SCALE
from repro.core.container import MASK_PREFIX, LazyCompressedDataset
from repro.core.tac import TACCompressor
from repro.sim.datasets import make_dataset


@pytest.fixture(scope="module")
def compressed_blob():
    dataset = make_dataset("Run1_Z2", scale=SCALE, field="baryon_density")
    tac = TACCompressor()
    comp = tac.compress(dataset, 1e-4, mode="rel")
    return tac, comp.to_bytes()


def _payload_parts(accessed):
    return {name for name in accessed if not name.startswith(MASK_PREFIX)}


def bench_decode_full_vs_partial(benchmark, compressed_blob, results_dir):
    tac, blob = compressed_blob

    def full_read():
        lazy = LazyCompressedDataset.open(blob)
        t0 = time.perf_counter()
        full = tac.decompress(lazy)
        return lazy, full, time.perf_counter() - t0

    lazy_full, full, t_full = benchmark.pedantic(full_read, rounds=1, iterations=1)
    benchmark.extra_info["full_s"] = round(t_full, 4)
    full_payloads = _payload_parts(lazy_full.parts.accessed())

    # -- partial reads, with access-count proof of less decode work ------
    lazy_level = LazyCompressedDataset.open(blob)
    t0 = time.perf_counter()
    level0 = tac.decompress_level(lazy_level, 0)
    t_level = time.perf_counter() - t0
    level_payloads = _payload_parts(lazy_level.parts.accessed())
    assert level_payloads < full_payloads, (
        "single-level decode must decode strictly fewer SZ streams: "
        f"{sorted(level_payloads)} vs {sorted(full_payloads)}"
    )
    assert np.array_equal(level0.data, full.levels[0].data)

    n = full.levels[0].n
    roi = tuple(slice(n // 4, 3 * n // 4) for _ in range(3))
    lazy_roi = LazyCompressedDataset.open(blob)
    t0 = time.perf_counter()
    region = tac.decompress_region(lazy_roi, 0, roi)
    t_roi = time.perf_counter() - t0
    roi_payloads = _payload_parts(lazy_roi.parts.accessed())
    assert roi_payloads <= level_payloads
    assert np.array_equal(region, full.levels[0].data[roi])

    text = (
        f"== decode_parallel: TAC read path (Run1_Z2, scale {SCALE}) ==\n"
        f"full           : {t_full:.4f}s ({len(full_payloads)} payload parts)\n"
        f"level 0 only   : {t_level:.4f}s ({len(level_payloads)} payload parts"
        f" — strict subset of full)\n"
        f"ROI {n // 4}:{3 * n // 4}^3     : {t_roi:.4f}s"
        f" ({len(roi_payloads)} payload parts)\n"
        f"bytes read     : full {lazy_full.parts.bytes_read}"
        f" / level {lazy_level.parts.bytes_read}"
        f" / roi {lazy_roi.parts.bytes_read}\n"
    )
    print("\n" + text)
    (results_dir / "decode_parallel.txt").write_text(text)
