"""The five tacbench workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned and been checked.  A workload offers

* ``setup()`` — synthesize the input and build whatever archive the reads
  need (timed by the runner as ``setup_s``; repeated, last result kept);
* ``prepare()`` — untimed references for the correctness gate;
* ``warmup_round()`` / ``rounds()`` / ``peak_round()`` — lists of
  :class:`Op`; the runner times the op's stages and then calls ``op.check``
  outside the timed region.

Stability rule (later PRs may not edit this file): only the public entry
points imported below are used.  An operation *fails* when it raises, when
a valid cell is further than the error bound from the original, when an ROI
differs from the same slice of the full decode, when
``from_bytes(to_bytes())`` is not byte-stable, or when a shard fails its
CRC on open (``verify_shards=True``).
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core import CompressedDataset, TACCompressor, TACConfig
from repro.ingest import IngestConfig, IngestSession
from repro.ingest.delta import read_timestep_region
from repro.serve import ArchiveReader
from repro.sim import make_dataset
from repro.sim.timesteps import make_timestep_series

ERROR_BOUND = 1e-4  # value-range relative, as in the paper's Table 2
ROI_EDGE = 32
BRICK = 16  # archive brick edge: 512 bricks on the finest level (64^3 at paper scale)
#: Dataset shifts are multiples of this many coarsest-level cells, so unit
#: blocks keep their alignment and the exact metrics move < 0.5 % per seed.
SHIFT_STEP = 8


@dataclass
class Op:
    """One client operation.  A long one is cut into ``stages`` (an ingest
    session: one per submit) so the runner can read its speed probe between
    them; the operation's time is the sum, its result the last stage's."""

    kind: str  # "write" or "read"
    stages: list[Callable[[], object]]
    check: Callable[[object], bool]
    nbytes: int  # original bytes written / bytes served


def shift_box(dataset, offsets) -> None:
    """Periodic shift of the simulation box, in place.

    The synthetic Nyx field is periodic, so every shift is an equally valid
    snapshot with the same statistics; level ``l`` moves by
    ``offsets * ratio**(L-1-l)`` cells so the levels keep tiling the domain.
    """
    top = len(dataset.levels) - 1
    for lvl in dataset.levels:
        shift = tuple(int(o) * dataset.ratio ** (top - lvl.level) for o in offsets)
        lvl.data = np.ascontiguousarray(np.roll(lvl.data, shift, axis=(0, 1, 2)))
        lvl.mask = np.ascontiguousarray(np.roll(lvl.mask, shift, axis=(0, 1, 2)))


def value_range(dataset) -> float:
    """Range of the stored values: what a ``rel`` bound and PSNR refer to.
    Computed here so the gate does not trust the program's own meta."""
    stored = [lvl.data[lvl.mask] for lvl in dataset.levels if lvl.mask.any()]
    return max(float(v.max()) for v in stored) - min(float(v.min()) for v in stored)


class Workload:
    """Shared plumbing: seed-derived inputs, archives, the cell-level gate."""

    setup_repeats = 3
    dataset_name = "Run1_Z3"
    scale = 4
    steps = 1
    report = None  # IngestReport of the archive currently on disk

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        if smoke:
            self.scale *= 2
        self.rng = np.random.default_rng([seed, sorted(REGISTRY).index(self.name)])
        self.sim_seconds = 0.0
        #: ingests timed inside set-up: (s at reference speed, s measured, bytes)
        self.setup_writes: list[tuple[float, float, int]] = []
        self.ratio = 0.0
        self.counters: dict[str, float] = {}
        self.timings = None  # the traced pass puts a TimingRecord here
        self.timed = None  # the runner's stopwatch: fn -> (result, ref s, raw s)
        self._sq_err = 0.0
        self._n_cells = 0
        self._n_archives = 0

    # -- inputs ---------------------------------------------------------
    def make_series(self) -> list:
        """``steps`` snapshots, shifted by the seed (seed 0: registry data)."""
        start = time.perf_counter()
        if self.steps == 1:
            series = [make_dataset(self.dataset_name, scale=self.scale)]
        else:
            series = list(
                make_timestep_series(self.dataset_name, steps=self.steps, scale=self.scale)
            )
        if self.seed:
            n_coarse = series[0].levels[-1].n
            # A fresh generator, so repeated set-ups build the same input.
            offsets = SHIFT_STEP * np.random.default_rng(self.seed).integers(
                0, max(1, n_coarse // SHIFT_STEP), 3
            )
            for dataset in series:
                shift_box(dataset, offsets)
        self.sim_seconds = time.perf_counter() - start
        # The chain keyframe's range fixes the bound of every later step.
        self.value_range = value_range(series[0])
        self.eb_abs = ERROR_BOUND * self.value_range
        return series

    def draw_rois(self, n: int, extent: int) -> list[tuple]:
        """``n`` ROIs of ROI_EDGE^3, unaligned to the bricks on every axis, so
        each touches the same 27 bricks' worth of work (an aligned axis would
        touch 2 bricks instead of 3 and make latency depend on the draw)."""
        slots = (extent - ROI_EDGE) // BRICK
        origins = BRICK * self.rng.integers(0, slots, size=(n, 3)) + self.rng.integers(
            1, BRICK, size=(n, 3)
        )
        return [tuple((int(o), int(o) + ROI_EDGE) for o in row) for row in origins]

    # -- bricked archive (ingest_series, roi_cold, roi_warm) ---------------
    def ingest_stages(self, series) -> list[Callable[[], object]]:
        """One sync/streaming session over ``series``, a stage per submit;
        the last stage closes it and returns the report.  (A failing submit
        or close aborts the session itself and removes its files.)"""
        config = IngestConfig(
            error_bound=ERROR_BOUND,
            keyframe_interval=3,
            codec_options={"brick_size": BRICK},
        )
        self._n_archives += 1
        archive_dir = self.workdir / f"a{self._n_archives}"
        session = []

        def open_and_submit():
            archive_dir.mkdir(parents=True)
            session.append(IngestSession(archive_dir / "series.rpbt", config))
            return session[0].submit(series[0])  # the entry key

        return (
            [open_and_submit]
            + [lambda d=dataset: session[0].submit(d) for dataset in series[1:]]
            + [lambda: session[0].close()]
        )

    def keep_archive(self, report, series) -> None:
        """``report`` replaces the archive on disk (the old one is removed)."""
        self.drop_archive()
        self.report = report
        self.ratio = sum(d.original_bytes() for d in series) / report.write.total_bytes()

    def drop_archive(self) -> None:
        if self.report is not None:
            shutil.rmtree(Path(self.report.head_path).parent, ignore_errors=True)
            self.report = None

    # -- quality ----------------------------------------------------------
    def cells_ok(self, original, restored, mask) -> bool:
        """Error-bound gate on the valid cells; also feeds the PSNR sums."""
        if not mask.any():
            return True
        err = original[mask].astype(np.float64) - restored[mask]
        # Not ``err @ err``: a BLAS call leaves OpenBLAS's worker spinning on
        # the sibling hardware thread, which slows the next operation 1.7x.
        self._sq_err += float(np.square(err).sum())
        self._n_cells += err.size
        return float(np.abs(err).max()) <= self.eb_abs * 1.001 + 1e-9

    def psnr_db(self) -> float:
        """PSNR of every checked cell against the dataset's value range."""
        mse = self._sq_err / self._n_cells
        return 20.0 * math.log10(self.value_range) - 10.0 * math.log10(mse)

    # -- defaults ---------------------------------------------------------
    def prepare(self) -> None:
        pass

    def warmup_round(self) -> list[Op]:
        return next(iter(self.rounds()))

    def peak_round(self) -> list[Op]:
        return self.warmup_round()

    def close(self) -> None:
        self.drop_archive()


class Snapshot(Workload):
    """compress -> to_bytes, then from_bytes -> decompress (twice: the reads
    allocate their 23-67 MB outputs afresh, and page-fault cost on the
    sandbox is erratic enough that their median needs the samples)."""

    def setup(self) -> None:
        (self.dataset,) = self.make_series()

    def prepare(self) -> None:
        self.tac = TACCompressor(TACConfig())
        self.blob = b""

    def _write(self):
        return self.tac.compress(self.dataset, ERROR_BOUND, "rel").to_bytes()

    def _check_write(self, blob) -> bool:
        self.blob = blob
        self.ratio = self.dataset.original_bytes() / len(blob)
        return CompressedDataset.from_bytes(blob).to_bytes() == blob

    def _read(self):
        return self.tac.decompress(
            CompressedDataset.from_bytes(self.blob), timings=self.timings
        )

    def _check_read(self, restored) -> bool:
        return all(
            [
                self.cells_ok(orig.data, back.data, orig.mask)
                for orig, back in zip(self.dataset.levels, restored.levels)
            ]
        )

    def rounds(self):
        nbytes = self.dataset.original_bytes()
        write = Op("write", [self._write], self._check_write, nbytes)
        read = Op("read", [self._read], self._check_read, nbytes)
        while True:
            yield [write, read, read]

    def peak_round(self) -> list[Op]:
        return self.warmup_round()[:2]


class SnapDense(Snapshot):
    name = "snap_dense"


class SnapSparse(Snapshot):
    name = "snap_sparse"
    dataset_name = "Run2_T2"
    scale = 1
    setup_repeats = 2  # one synthesis of the 256^3 field is ~5 s


class IngestSeries(Workload):
    """Write the series as a delta chain, then read ROIs of its latest step
    back through fresh readers (those reads are the correctness gate too)."""

    name = "ingest_series"
    steps = 3
    readbacks = 10

    def setup(self) -> None:
        self.series = self.make_series()

    def _check_session(self, series) -> Callable[[object], bool]:
        def check(report) -> bool:
            self.keep_archive(report, series)
            self.written = series
            rows = report.manifest()
            modes = [(e["temporal"] or {}).get("mode") for e in report.entries]
            total = sum(r["compressed_bytes"] for r in rows)
            delta = sum(r["compressed_bytes"] for r, m in zip(rows, modes) if m == "delta")
            self.counters.update(
                archive_bytes=report.write.total_bytes(),
                archive_shards=len(report.write.shard_paths),
                delta_bytes_share=delta / total,
                chain_len=len(series),
            )
            # Every shard must pass its CRC when first opened.
            with ArchiveReader(report.head_path, verify_shards=True) as reader:
                for key in reader.keys():
                    reader.read_region(key, 0, ((0, 4), (0, 4), (0, 4)))
            return len(report.entries) == len(series)

        return check

    def _readback(self, roi) -> Op:
        slices = tuple(slice(lo, hi) for lo, hi in roi)

        def run():
            with ArchiveReader(self.report.head_path) as reader:
                key = self.report.entries[-1]["key"]
                return read_timestep_region(reader, key, 0, roi)[0]

        def check(data) -> bool:
            level = self.written[-1].levels[0]
            return self.cells_ok(level.data[slices], data, level.mask[slices])

        return Op("read", [run], check, 4 * ROI_EDGE**3)

    def _round(self, series, readbacks: int) -> list[Op]:
        nbytes = sum(d.original_bytes() for d in series)
        session = Op(
            "write", self.ingest_stages(series), self._check_session(series), nbytes
        )
        rois = self.draw_rois(readbacks, series[0].levels[0].n)
        return [session] + [self._readback(roi) for roi in rois]

    def rounds(self):
        while True:
            yield self._round(self.series, self.readbacks)

    def warmup_round(self) -> list[Op]:
        # A shortened pass (keyframe only, two read-backs): a full session is
        # ~5 s and its later steps run the same code on residuals.  It is the
        # peak_alloc round as well: tracemalloc slows this allocation-heavy
        # path 3.4x, so a delta step (which also holds the running
        # reconstruction and the residual) would add ~8 s to every run.
        return self._round(self.series[:1], 2)


class RoiRead(Workload):
    """Set-up ingests the series; the timed operations only read."""

    n_rois = 34
    full = None  # full decode of level 0, where the workload affords one

    def setup(self) -> None:
        self.series = self.make_series()
        at_reference = as_measured = 0.0
        for stage in self.ingest_stages(self.series):
            report, ref, raw = self.timed(stage)
            at_reference += ref
            as_measured += raw
        nbytes = sum(d.original_bytes() for d in self.series)
        self.setup_writes.append((at_reference, as_measured, nbytes))
        self.keep_archive(report, self.series)

    def prepare(self) -> None:
        self.key = self.report.entries[-1]["key"]
        self.level = self.series[-1].levels[0]
        self.rois = self.draw_rois(self.n_rois, self.level.n)
        self.first_read: dict[tuple, np.ndarray] = {}

    def roi_ok(self, roi, data) -> bool:
        """Within the bound of the original, equal to the slice of the full
        decode (where there is one) and to every other read of this ROI."""
        slices = tuple(slice(lo, hi) for lo, hi in roi)
        return bool(
            (self.full is None or np.array_equal(data, self.full[slices]))
            and np.array_equal(data, self.first_read.setdefault(roi, data))
            and self.cells_ok(self.level.data[slices], data, self.level.mask[slices])
        )


class RoiCold(RoiRead):
    """Every request: fresh ``ArchiveReader(path)`` (all defaults) ->
    ``read_region``; timed from the constructor to the data returned."""

    name = "roi_cold"
    _reader = None

    def prepare(self) -> None:
        super().prepare()
        # Registry-routed full decode, opened with shard CRC verification.
        with ArchiveReader(self.report.head_path, verify_shards=True) as reader:
            self.full = reader.decompress(self.key).levels[0].data

    def _op(self, roi) -> Op:
        def run():
            self._reader = ArchiveReader(self.report.head_path)
            return self._reader.read_region(self.key, 0, roi)

        def check(result) -> bool:
            self._reader.close()  # outside the timed region
            return self.roi_ok(roi, result[0])

        return Op("read", [run], check, 4 * ROI_EDGE**3)

    def rounds(self):
        ops = [self._op(roi) for roi in self.rois]
        while True:
            yield ops

    def peak_round(self) -> list[Op]:
        return self.warmup_round()[:2]

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()  # idempotent; only open after a failed read
        super().close()


class RoiWarm(RoiRead):
    """One long-lived default reader (256 MB cache >> 16 MB working set);
    the untimed pool pass fills the cache, timed draws then hit it.

    A full decode of the 3-entry chain costs several seconds, so a warm read is
    checked against the pool pass's decoding read of the same ROI (and the
    original); the slice-of-full-decode identity is gated in ``roi_cold``,
    which decodes and assembles through the same code."""

    name = "roi_warm"
    steps = 3
    n_rois = 24
    setup_repeats = 2  # one set-up is a full 3-step bricked ingest (~6 s)
    draws_per_round = 100
    chain_cold_warmup = True  # the runner reports the pool pass's median
    reader = None

    def prepare(self) -> None:
        super().prepare()
        self.reader = ArchiveReader(self.report.head_path, verify_shards=True)

    def _op(self, roi) -> Op:
        return Op(
            "read",
            [lambda: read_timestep_region(self.reader, self.key, 0, roi)[0]],
            lambda data: self.roi_ok(roi, data),
            4 * ROI_EDGE**3,
        )

    def warmup_round(self) -> list[Op]:
        return [self._op(roi) for roi in self.rois]  # chain-cold pool pass

    def rounds(self):
        while True:
            picks = self.rng.integers(0, len(self.rois), self.draws_per_round)
            yield [self._op(self.rois[i]) for i in picks]

    def peak_round(self) -> list[Op]:
        return self.warmup_round()[:5]

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
        super().close()


REGISTRY = {
    cls.name: cls for cls in (SnapDense, SnapSparse, IngestSeries, RoiCold, RoiWarm)
}
