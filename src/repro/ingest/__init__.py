"""In-situ ingest pipeline: one front-end from snapshot stream to archive.

:class:`IngestSession` is the single entry point to a sharded archive:
per-level streamed container writes (bounded memory) and temporal delta
coding across timesteps (:mod:`repro.ingest.delta`).  Every read of an
archive key — :meth:`LazyBatchArchive.decompress
<repro.engine.archive.LazyBatchArchive.decompress>` and the read service's
:class:`~repro.serve.reader.ArchiveReader` alike — returns that key's
timestep, its delta chain summed.
"""

from repro.ingest.config import IngestConfig
from repro.ingest.delta import accumulate, hierarchy_signature, residual_dataset
from repro.ingest.session import IngestError, IngestReport, IngestSession

__all__ = [
    "IngestConfig",
    "IngestError",
    "IngestReport",
    "IngestSession",
    "accumulate",
    "hierarchy_signature",
    "residual_dataset",
]
