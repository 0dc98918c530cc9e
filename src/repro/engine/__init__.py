"""Codec registry and batch archive.

* :mod:`repro.engine.registry` — every dataset-level compressor behind
  one ``Codec`` protocol with ``register()`` / ``get_codec(name)``;
* :mod:`repro.engine.archive` — many compressed datasets in one
  manifest-carrying archive: ``ShardedArchiveWriter`` writes it (a head
  plus payload shards), ``LazyBatchArchive`` reads every version.

Many datasets become one archive through
:class:`repro.ingest.IngestSession`.
"""

from repro.engine.archive import (
    DEFAULT_SHARD_SIZE,
    LazyBatchArchive,
    ShardedArchiveWriter,
    ShardedWriteReport,
    default_shard_opener,
    is_batch_archive,
)
from repro.engine.registry import (
    Codec,
    CodecSpec,
    PartialCodec,
    all_specs,
    codec_for_method,
    codec_names,
    get_codec,
    get_spec,
    register,
    supports_kwarg,
    supports_partial_decode,
)

#: Top-level-friendly alias (``from repro import register_codec``).
register_codec = register

__all__ = [
    "Codec",
    "CodecSpec",
    "DEFAULT_SHARD_SIZE",
    "LazyBatchArchive",
    "PartialCodec",
    "ShardedArchiveWriter",
    "ShardedWriteReport",
    "all_specs",
    "codec_for_method",
    "codec_names",
    "default_shard_opener",
    "get_codec",
    "get_spec",
    "is_batch_archive",
    "register",
    "register_codec",
    "supports_kwarg",
    "supports_partial_decode",
]
