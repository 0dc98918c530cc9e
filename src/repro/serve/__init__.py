"""Read-side serving layer for batch archives.

Production plumbing on top of :class:`~repro.engine.LazyBatchArchive`:

* :mod:`repro.serve.opener` — retrying shard openers with fetch
  accounting (:func:`retrying_opener`, :class:`RetryPolicy`,
  :class:`FetchStats`, :class:`RetryingSource`);
* :mod:`repro.serve.cache` — bounded thread-safe LRU of decoded bricks
  (:class:`DecodedBrickCache`);
* :mod:`repro.serve.prefetch` — coalesced fetch windows feeding decode
  with per-request deadlines (:class:`PrefetchPipeline`,
  :class:`PipelineStats`, :class:`Deadline`, :class:`DeadlineExceeded`):
  local files and blobs are read on the request's thread, any other
  source on a fixed I/O pool (``prefetch.IO_WORKERS``) that a deadline
  can abandon;
* :mod:`repro.serve.reader` — the :class:`ArchiveReader` front-end
  serving concurrent ROI requests with per-request stats
  (:class:`RequestStats`), including ``degraded=True`` fill-on-failure
  reads.
"""

from repro.serve.cache import DecodedBrickCache
from repro.serve.opener import FetchStats, RetryingSource, RetryPolicy, retrying_opener
from repro.serve.prefetch import Deadline, DeadlineExceeded, PipelineStats, PrefetchPipeline
from repro.serve.reader import ArchiveReader, RequestStats

__all__ = [
    "ArchiveReader",
    "Deadline",
    "DeadlineExceeded",
    "DecodedBrickCache",
    "FetchStats",
    "PipelineStats",
    "PrefetchPipeline",
    "RequestStats",
    "RetryPolicy",
    "RetryingSource",
    "retrying_opener",
]
