"""Parallel batch-compression engine over the codec registry.

TAC's level-wise decomposition (paper §3.4) makes AMR compression
embarrassingly parallel along two axes: *between* jobs (each snapshot ×
field × codec is independent) and *within* a TAC job (each AMR level is
independent).  :class:`CompressionEngine` exploits both with
``concurrent.futures`` pools while keeping the results deterministic:

* results come back in submission order regardless of completion order;
* every job's output is bit-identical to what the serial path produces
  (workers never share mutable state, and per-level parts merge in level
  order inside :meth:`repro.core.tac.TACCompressor.compress`);
* a failing job captures its exception in its :class:`JobResult` instead
  of poisoning the batch — the other jobs still complete.

``executor="thread"`` is the default and usually the right choice: the
hot loops release the GIL inside NumPy/zlib, threads share the input
arrays for free, and custom codecs registered at runtime stay visible.
``executor="process"`` sidesteps the interpreter entirely for
Python-bound codecs, at the cost of pickling datasets to the workers and
requiring the codec to be registered at ``repro.engine`` import time.
"""

from __future__ import annotations

import copy
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.amr.hierarchy import AMRDataset
from repro.amr.io import load_dataset
from repro.core.container import CompressedDataset
from repro.engine import registry
from repro.engine.archive import BatchArchive
from repro.engine.registry import supports_kwarg
from repro.utils.timer import TimingRecord
from repro.utils.validation import check_positive_int

_EXECUTORS = ("thread", "process")


@dataclass
class CompressionJob:
    """One unit of batch work: compress ``dataset`` with ``codec``.

    Attributes
    ----------
    dataset:
        The AMR snapshot/field to compress — either an in-memory
        :class:`AMRDataset` or a path to a saved ``.npz``.  Paths are
        loaded *inside the worker*, so a many-file batch parallelizes
        its I/O too and process pools ship a filename instead of
        pickling whole arrays.
    codec:
        Any spelling the registry accepts (``"tac"``, ``"baseline_1d"``…).
    error_bound / mode / per_level_scale:
        Forwarded to the codec's ``compress``.
    label:
        Stable identifier for results and archive manifests; defaults to
        ``"<dataset>/<field>/<codec>"`` (``"<stem>/<codec>"`` for path
        inputs, whose field is unknown before loading).
    codec_options:
        Keyword arguments for the codec factory (e.g. ``unit_block=8``).
    """

    dataset: AMRDataset | str | Path
    codec: str = "tac"
    error_bound: float = 1e-4
    mode: str = "rel"
    per_level_scale: Sequence[float] | None = None
    label: str | None = None
    codec_options: dict = field(default_factory=dict)

    def resolved_label(self) -> str:
        if self.label is not None:
            return self.label
        if isinstance(self.dataset, (str, Path)):
            return f"{Path(self.dataset).stem}/{self.codec}"
        return f"{self.dataset.name}/{self.dataset.field}/{self.codec}"


@dataclass
class JobResult:
    """Outcome of one job: exactly one of ``compressed``/``error`` is set."""

    label: str
    codec: str
    index: int
    compressed: CompressedDataset | None = None
    error: BaseException | None = None
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def timings(self) -> TimingRecord:
        """Per-stage spans recorded by the codec (empty for failed jobs)."""
        if self.compressed is None:
            return TimingRecord()
        return self.compressed.timings


@dataclass
class BatchResult:
    """All job results, in submission order, plus batch-level accounting."""

    results: list[JobResult]
    wall_seconds: float = 0.0
    max_workers: int = 1
    executor: str = "thread"

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def ok(self) -> list[JobResult]:
        return [r for r in self.results if r.ok]

    @property
    def failures(self) -> list[JobResult]:
        return [r for r in self.results if not r.ok]

    def raise_errors(self) -> None:
        """Re-raise the first failure (chained), if any job failed."""
        for result in self.results:
            if not result.ok:
                raise RuntimeError(
                    f"job {result.label!r} (#{result.index}) failed: {result.error}"
                ) from result.error

    def timings(self) -> TimingRecord:
        """Per-stage spans summed over every successful job.

        Spans are CPU-side accumulations: with parallel workers their sum
        exceeds :attr:`wall_seconds` — that headroom *is* the speedup.
        """
        merged = TimingRecord()
        for result in self.ok:
            merged = merged.merge(result.timings)
        return merged

    def to_archive(self, **meta) -> BatchArchive:
        """Pack every successful result into a :class:`BatchArchive`.

        Raises if any job failed — a partially-populated archive would
        silently drop data; filter or handle :attr:`failures` first.
        """
        self.raise_errors()
        archive = BatchArchive(meta=dict(meta))
        for result in self.results:
            archive.add(result.label, result.compressed)
        return archive

    def summary_rows(self) -> list[dict]:
        """Plain-dict rows (one per job) for tables and reports."""
        rows = []
        for result in self.results:
            row: dict = {
                "label": result.label,
                "codec": result.codec,
                "seconds": round(result.wall_seconds, 4),
            }
            if result.ok:
                comp = result.compressed
                row["ratio"] = round(comp.ratio(), 3)
                row["bytes"] = comp.compressed_bytes()
                row["error"] = None
            else:
                row["ratio"] = None
                row["bytes"] = None
                row["error"] = f"{type(result.error).__name__}: {result.error}"
            rows.append(row)
        return rows


def _execute_job(job: CompressionJob, level_workers: int) -> tuple[CompressedDataset, float]:
    """Run one job to completion (top-level so process pools can pickle it)."""
    # Jobs are often built from one shared options dict; hand the factory
    # its own deep copy so a codec that mutates (or lazily normalizes) its
    # kwargs can never corrupt a sibling job's configuration.
    codec = registry.get_codec(job.codec, **copy.deepcopy(job.codec_options))
    kwargs: dict = {}
    if job.per_level_scale is not None:
        kwargs["per_level_scale"] = job.per_level_scale
    if level_workers > 1 and supports_kwarg(codec.compress, "level_workers"):
        kwargs["level_workers"] = level_workers
    start = time.perf_counter()
    dataset = job.dataset
    if isinstance(dataset, (str, Path)):
        dataset = load_dataset(dataset)
    compressed = codec.compress(dataset, job.error_bound, mode=job.mode, **kwargs)
    return compressed, time.perf_counter() - start


class CompressionEngine:
    """Fan a batch of :class:`CompressionJob`\\ s out over a worker pool.

    Example
    -------
    >>> from repro.engine import CompressionEngine, CompressionJob
    >>> from repro.sim import make_dataset
    >>> jobs = [CompressionJob(make_dataset("Run2_T2", scale=16, field=f), error_bound=1e-3)
    ...         for f in ("baryon_density", "temperature")]
    >>> batch = CompressionEngine(max_workers=2).run(jobs)
    >>> [r.ok for r in batch]
    [True, True]

    Parameters
    ----------
    max_workers:
        Pool width for the between-jobs axis; ``1`` runs inline (no pool).
    executor:
        ``"thread"`` (default) or ``"process"``; see the module docstring
        for the trade-off.
    level_workers:
        Within-job parallelism for codecs that support it (TAC compresses
        its AMR levels concurrently).  ``1`` disables the inner pool.
    """

    def __init__(
        self,
        max_workers: int = 1,
        executor: str = "thread",
        level_workers: int = 1,
    ):
        self.max_workers = check_positive_int(max_workers, name="max_workers")
        self.level_workers = check_positive_int(level_workers, name="level_workers")
        if executor not in _EXECUTORS:
            raise ValueError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
        self.executor = executor

    # ------------------------------------------------------------------
    def run(self, jobs: Iterable[CompressionJob], raise_errors: bool = False) -> BatchResult:
        """Execute every job and return results in submission order
        (in memory; :class:`repro.ingest.IngestSession` is the
        bounded-memory path to a sharded archive).

        With ``raise_errors=False`` (default) a failing job is reported in
        its :class:`JobResult` and the rest of the batch completes; with
        ``raise_errors=True`` the first failure re-raises after the batch
        finishes (never mid-flight, so no sibling work is wasted).
        """
        jobs = list(jobs)
        labels = self._unique_labels(jobs)
        results = [
            JobResult(label=labels[i], codec=job.codec, index=i)
            for i, job in enumerate(jobs)
        ]
        start = time.perf_counter()
        if self.max_workers == 1 or len(jobs) <= 1:
            for i, job in enumerate(jobs):
                self._fill(results[i], job)
        else:
            with self._make_pool() as pool:
                futures = [pool.submit(_execute_job, job, self.level_workers) for job in jobs]
                for i, future in enumerate(futures):
                    self._fill(results[i], jobs[i], future)
        batch = BatchResult(
            results=results,
            wall_seconds=time.perf_counter() - start,
            max_workers=self.max_workers,
            executor=self.executor,
        )
        if raise_errors:
            batch.raise_errors()
        return batch

    def run_to_archive(self, jobs: Iterable[CompressionJob], **meta) -> BatchArchive:
        """``run`` + pack into one :class:`BatchArchive` (all jobs must succeed)."""
        return self.run(jobs).to_archive(**meta)

    # ------------------------------------------------------------------
    def _make_pool(self) -> Executor:
        if self.executor == "process":
            return ProcessPoolExecutor(max_workers=self.max_workers)
        return ThreadPoolExecutor(max_workers=self.max_workers)

    def _fill(self, result: JobResult, job: CompressionJob, future=None) -> None:
        try:
            if future is None:
                compressed, wall = _execute_job(job, self.level_workers)
            else:
                compressed, wall = future.result()
        except Exception as exc:  # job isolation: record, don't propagate
            result.error = exc
        else:
            result.compressed = compressed
            result.wall_seconds = wall

    @staticmethod
    def _unique_labels(jobs: list[CompressionJob]) -> list[str]:
        """Resolve labels, suffixing duplicates so archive keys stay unique."""
        seen: dict[str, int] = {}
        labels = []
        for job in jobs:
            label = job.resolved_label()
            count = seen.get(label, 0)
            seen[label] = count + 1
            labels.append(label if count == 0 else f"{label}#{count}")
        return labels
