"""In-situ ingest pipeline: one front-end from snapshot stream to archive.

:class:`IngestSession` is the single entry point to a sharded archive:
per-level streamed container writes (bounded memory) and temporal delta
coding across timesteps.  :mod:`repro.ingest.delta` holds
the read-side helpers that reconstruct delta-coded timesteps through the
read service.
"""

from repro.ingest.config import IngestConfig
from repro.ingest.delta import (
    accumulate,
    hierarchy_signature,
    read_timestep_level,
    read_timestep_region,
    residual_dataset,
    temporal_chain,
)
from repro.ingest.session import IngestError, IngestReport, IngestSession

__all__ = [
    "IngestConfig",
    "IngestError",
    "IngestReport",
    "IngestSession",
    "accumulate",
    "hierarchy_signature",
    "read_timestep_level",
    "read_timestep_region",
    "residual_dataset",
    "temporal_chain",
]
