"""Typed configuration for the in-situ ingest pipeline.

One dataclass carries every knob of a session.  Validation happens at construction:
codec options are checked against the registered codec's schema
(:func:`repro.engine.registry.validate_codec_options`) and deep-copied,
so a bad key fails before the first snapshot is submitted — not deep
inside a worker thread — and mutating the caller's dict afterwards
cannot reconfigure the session.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine import registry
from repro.engine.archive import DEFAULT_SHARD_SIZE
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class IngestConfig:
    """Everything an :class:`~repro.ingest.IngestSession` needs to run.

    Attributes
    ----------
    codec:
        Registry spelling of the codec every entry is written with.
    codec_options:
        Keyword options for the codec factory, validated against the
        codec's config schema here (unknown keys raise ``ValueError``).
    error_bound / mode:
        Compression parameters, forwarded to the codec.
    shard_size:
        Payload-shard roll-over threshold in bytes.
    keyframe_interval:
        Temporal delta cadence per (name, field) chain: ``1`` writes
        every snapshot as an independent keyframe (delta coding off);
        ``k > 1`` writes a keyframe every ``k`` steps and residuals
        against the running reconstruction in between.  A hierarchy
        change forces a keyframe regardless.
    workers:
        Encoder thread-pool width.  ``1`` runs the pipeline synchronously
        on the caller's thread — the strict one-level memory bound.
        ``w > 1`` starts a pool of ``w`` encoders that overlaps snapshot
        production with encode/write, buffering at most ``2 * w`` encoded
        entries; independent chains encode concurrently, one chain stays
        serial.
    """

    codec: str = "tac"
    codec_options: dict = field(default_factory=dict)
    error_bound: float = 1e-4
    mode: str = "rel"
    shard_size: int = DEFAULT_SHARD_SIZE
    keyframe_interval: int = 1
    workers: int = 1

    def __post_init__(self):
        check_positive_int(self.shard_size, name="shard_size")
        check_positive_int(self.keyframe_interval, name="keyframe_interval")
        check_positive_int(self.workers, name="workers")
        validated = registry.validate_codec_options(self.codec, self.codec_options)
        object.__setattr__(self, "codec_options", validated)
