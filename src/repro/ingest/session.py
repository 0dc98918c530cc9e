"""The one ingest front-end: submit snapshots, get a sharded archive.

:class:`IngestSession` is the one way to a sharded archive — for the
Python API and the CLI alike::

    with IngestSession("out.rpbt", IngestConfig(keyframe_interval=4)) as s:
        for snapshot in make_timestep_series("Run1_Z10", steps=16):
            s.submit(snapshot)
    report = s.report

Pipeline shape
--------------
Each submitted snapshot becomes one archive entry.  Entries belonging to
the same ``(name, field)`` chain are encoded strictly in submission
order (temporal delta coding makes step *t* depend on the running
reconstruction after step *t−1*); independent chains encode concurrently
on the worker pool.  The caller's thread drains finished entries — again
in global submission order — into a
:class:`~repro.engine.archive.ShardedArchiveWriter`, so shard layout and
manifest are deterministic for a given submission sequence.

Multi-field steps
-----------------
:meth:`IngestSession.submit_step` takes the fields of one step as a
``{field: AMRDataset}`` mapping.  They share one AMR structure, so only
the first field (sorted order) stores the masks; every other entry is
written mask-less with ``meta["structure"]`` naming that first entry, and
the read side (:func:`repro.engine.archive.with_structure`) follows the
reference.  Each field still joins its own ``(name, field)`` chain.

Temporal loop
-------------
A delta step encodes ``cur_t − rec_{t−1}`` (:mod:`repro.ingest.delta`).
``rec`` is what a reader will decode, and the session gets it without
decoding: an error-bounded predictor already computes its reconstruction
(it predicts from it), so ``compress_iter(want_recon=True)`` hands each
level's out (``LevelChunk.rec``, its stored-cell values) bit-identical to
the decode of the parts written.  Encoders without ``want_recon`` have the finished entry decoded
whole instead.  A step followed by a forced keyframe tracks nothing.
The running reconstruction is the session's own: ``submit`` never writes
the caller's arrays, and the chain never keeps them.

Memory
------
``workers=1`` (default) runs synchronously: each entry's parts flow
level-by-level from ``compress_iter`` straight into its container entry,
so the writer-side peak is one *level's* parts, never one entry's.
``workers=w > 1`` overlaps snapshot production, encode, and shard write
across timesteps on a pool of ``w`` encoders, buffering at most ``2 * w``
encoded entries.

Beyond the codec's own working set (one level's strategy arrays and the
SZ batches in flight), a step holds at most one level set of its own: a
chain keeps its running reconstruction as stored-cell values (less than
a level set), a delta step makes its residual one level at a time and
drops it once the strategy has gathered from it, and each level's
encoder reconstruction is added into the chain's values as its chunk
streams by, then dropped.  A keyframe drops the chain's old values
before it encodes.  ``benchmarks/bench_ingest_stream.py`` gates the
session peak at under 2x the codec's own (Run1_Z10, scale 8: about
2.2–2.5 MB against 1.7–2.1 MB).

Failure
-------
Any failure — encoder exception, writer error, bad submission — aborts
the session: in-flight work is cancelled, every file staged so far is
removed (an archive already published at the head path survives whole —
the writer only replaces it at ``close()``), and an :class:`IngestError`
naming the failed entry is raised with the original exception chained.
"""

from __future__ import annotations

import copy
import time
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

from repro.amr.hierarchy import AMRDataset
from repro.amr.io import load_dataset
from repro.amr.reconstruct import check_same_structure
from repro.core.container import (
    CompressedDataset,
    StreamingCompression,
    resolve_global_eb,
)
from repro.engine import registry
from repro.engine.archive import (
    STRUCTURE_META_KEY,
    ShardedArchiveWriter,
    ShardedWriteReport,
)
from repro.engine.registry import supports_kwarg
from repro.ingest.config import IngestConfig
from repro.ingest.delta import (
    accumulate,
    hierarchy_signature,
    residual_dataset,
    stored_values,
)


class IngestError(RuntimeError):
    """One submitted snapshot failed; the session has been aborted."""

    def __init__(self, message: str, *, key: str | None = None, index: int | None = None):
        super().__init__(message)
        self.key = key
        self.index = index


@dataclass
class IngestReport:
    """What a completed session produced: files, entries, accounting."""

    head_path: Path
    write: ShardedWriteReport
    entries: list[dict]
    wall_seconds: float = 0.0

    @property
    def n_entries(self) -> int:
        return len(self.entries)

    @property
    def n_keyframes(self) -> int:
        return sum(
            1
            for row in self.entries
            if row["temporal"] is None or row["temporal"]["mode"] == "keyframe"
        )

    @property
    def n_deltas(self) -> int:
        return self.n_entries - self.n_keyframes

    def manifest(self) -> list[dict]:
        """Per-entry manifest rows, read back from the head shard alone
        (cached — the head is immutable once written)."""
        if getattr(self, "_manifest_rows", None) is None:
            from repro.engine.archive import LazyBatchArchive

            with LazyBatchArchive.open(self.head_path) as archive:
                self._manifest_rows = archive.manifest()
        return self._manifest_rows

    def ratio(self) -> float:
        rows = self.manifest()
        original = sum(row["original_bytes"] for row in rows)
        compressed = sum(row["compressed_bytes"] for row in rows)
        return original / compressed if compressed else float("inf")


@dataclass
class _Chain:
    """Per-(name, field) temporal state; jobs of one chain are serialized."""

    ident: tuple
    step: int = 0
    since_keyframe: int = 0
    signature: tuple | None = None
    last_key: str | None = None
    keyframe_key: str | None = None
    eb_abs: float | None = None
    #: The running reconstruction, one array of stored-cell values per level.
    rec: list | None = None
    tail: object | None = None  # last scheduled Future of this chain


@dataclass
class _Entry:
    """One encoded entry on its way to the writer."""

    key: str
    index: int
    temporal: dict | None
    stream: object | None = None  # StreamingCompression-like
    chain: _Chain | None = None
    is_keyframe: bool = True
    wall_seconds: float = 0.0


class _TemporalStream:
    """Chunk-stream adapter: stamps temporal metadata, collects the rec loop.

    With ``track`` (the codec, the submitted dataset, and the running
    reconstruction a delta entry advances — ``None`` for a keyframe), each
    chunk's ``rec`` — the encoder's own reconstruction of that level, as
    its stored-cell values — is detached as the chunk streams by: a
    keyframe keeps it as it is, a delta adds it into the running
    reconstruction's values in place.
    Chunks of an encoder that hands none out have their parts collected
    instead, for one whole-entry decode at the end.
    """

    def __init__(
        self, inner, temporal: dict | None, *, delta: bool, track=None, structure=None
    ):
        self._inner = inner
        self._temporal = temporal
        self._delta = delta
        self._track = track
        self._base = None if track is None else track[2]
        self._structure = structure
        self._levels: list = []
        self._parts: dict[str, bytes] = {}
        self.method = inner.method
        self.dataset_name = inner.dataset_name
        self.original_bytes = inner.original_bytes
        self.n_values = inner.n_values

    def __iter__(self):
        return self

    def __next__(self):
        chunk = next(self._inner)
        if self._track is not None:
            if chunk.rec is None:
                self._parts.update(chunk.parts)
            elif self._base is None:
                self._levels.append(chunk.rec)
            else:
                self._base[chunk.level] = accumulate(self._base[chunk.level], chunk.rec)
            chunk.rec = None
        return chunk

    def reconstruction(self) -> list | None:
        """What a reader decodes from the chain up to the exhausted stream's
        entry, as each level's stored-cell values (``None`` when not
        tracking)."""
        if self._track is None:
            return None
        codec, structure, base = self._track
        if self._parts:
            comp = CompressedDataset(
                method=self.method,
                dataset_name=self.dataset_name,
                parts=self._parts,
                meta=self.meta,
            )
            decoded = codec.decompress(comp, structure=structure).levels
            if base is None:
                return [stored_values(level) for level in decoded]
            for index, level in enumerate(decoded):
                base[index] = accumulate(base[index], stored_values(level))
        return self._levels if base is None else base

    @property
    def exhausted(self) -> bool:
        return self._inner.exhausted

    @property
    def meta(self) -> dict:
        meta = dict(self._inner.meta)
        if self._structure is not None:
            meta[STRUCTURE_META_KEY] = self._structure
        if self._temporal is not None:
            meta["temporal"] = self._temporal
        if self._delta:
            for level_meta in meta.get("levels", []):
                level_meta["temporal"] = "delta"
        return meta


class IngestSession:
    """Submit snapshots; get a sharded archive (see module docstring).

    Parameters
    ----------
    head_path:
        Where the v3 archive head lands; payload shards go next to it.
    config:
        An :class:`IngestConfig`, or pass its fields as keyword overrides
        (``IngestSession(path, keyframe_interval=4)``) — not both.
    meta:
        Archive-level metadata recorded in the head.
    """

    def __init__(
        self,
        head_path,
        config: IngestConfig | None = None,
        *,
        meta: dict | None = None,
        **overrides,
    ):
        if config is not None and overrides:
            raise TypeError("pass either an IngestConfig or keyword overrides, not both")
        self.config = config if config is not None else IngestConfig(**overrides)
        self._writer = ShardedArchiveWriter(
            head_path, shard_size=self.config.shard_size, meta=dict(meta or {})
        )
        try:
            self._chains: dict[tuple, _Chain] = {}
            self._keys: set[str] = set()
            self._pending: deque = deque()  # (Future[_Entry], key, index)
            self._entries: list[dict] = []
            self._n_submitted = 0
            self._closed = False
            self._start = time.perf_counter()
            self._pool = None
            if self.config.workers > 1:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(max_workers=self.config.workers)
        except BaseException:
            # Pool construction can fail (thread limits, interrupts); the
            # caller never sees the session, so the writer's head/shard
            # state must be torn down here or it leaks.
            self._writer.abort()
            raise
        #: Set by :meth:`close`.
        self.report: IngestReport | None = None

    # -- public surface ----------------------------------------------------
    def submit(self, dataset, *, key: str | None = None) -> str:
        """Queue one snapshot (an :class:`AMRDataset` or an ``.npz`` path)
        for compression and return its archive key.

        Every entry is written with the session config's codec, codec
        options, error bound and mode.  Path submissions load inside the
        worker and are always written as independent keyframes (no
        temporal state to diff against); in-memory submissions join their
        ``(name, field)`` chain and participate in delta coding when the
        session's ``keyframe_interval > 1``.
        """
        self._check_open()
        return self._submit(dataset, key)

    def submit_step(self, fields: Mapping) -> list[str]:
        """Queue one step's fields — a ``{field: AMRDataset}`` mapping on
        one AMR structure — and return their keys in sorted field order.

        The masks are stored once, in the first entry; the others
        reference it (see the module docstring).  Every field is written
        with the session config, as in :meth:`submit`.  A step that is
        empty, or whose fields do not share one structure, fails before
        any of it is encoded.
        """
        self._check_open()
        names = sorted(fields)
        try:
            if not names:
                raise ValueError("a step needs at least one field")
            for name in names:
                if not isinstance(fields[name], AMRDataset):
                    raise TypeError(
                        f"field {name!r} must be an AMRDataset, got {type(fields[name])!r}"
                    )
            for name in names[1:]:
                try:
                    check_same_structure(fields[names[0]], fields[name])
                except ValueError as exc:
                    raise ValueError(
                        f"field {name!r} does not share the structure of "
                        f"{names[0]!r}: {exc}"
                    ) from exc
        except Exception as exc:
            self._fail(exc, index=self._n_submitted)
        keys: list[str] = []
        for name in names:
            keys.append(self._submit(fields[name], None, structure=keys[0] if keys else None))
        return keys

    def _submit(self, dataset, key, structure: str | None = None) -> str:
        cfg = self.config
        try:
            options = copy.deepcopy(cfg.codec_options)
            if structure is not None:
                # Entry ``structure`` holds this step's masks.
                options = registry.validate_codec_options(
                    cfg.codec, {**options, "store_masks": False}
                )
            entry_args = self._plan_entry(dataset, key, cfg)
        except Exception as exc:
            self._fail(exc, key=key, index=self._n_submitted)
        key, chain, is_keyframe, temporal, track_rec = entry_args
        index = self._n_submitted
        self._n_submitted += 1
        self._keys.add(key)

        args = (
            dataset, key, index, chain, is_keyframe, temporal, track_rec, options, structure,
            chain.tail if chain is not None else None,
        )
        if self._pool is None:
            try:
                entry = self._encode(*args)
                self._write(entry)
            except Exception as exc:
                self._fail(exc, key=key, index=index)
        else:
            future = self._pool.submit(self._encode, *args)
            if chain is not None:
                chain.tail = future
            self._pending.append((future, key, index))
            self._drain(max_pending=2 * self.config.workers)
        return key

    def extend(self, snapshots) -> list[str]:
        """Submit every snapshot of an iterable; returns their keys."""
        return [self.submit(snapshot) for snapshot in snapshots]

    # reprolint: disable=RL006  (parked seam: the async producer entry point)
    async def extend_async(self, snapshots) -> list[str]:
        """Submit every snapshot of an async iterator; returns their keys.

        Each (possibly blocking) ``submit`` runs in the event loop's
        default executor, so a producer coroutine keeps control while
        the pipeline back-pressures.
        """
        import asyncio

        loop = asyncio.get_running_loop()
        keys = []
        async for snapshot in snapshots:
            keys.append(await loop.run_in_executor(None, self.submit, snapshot))
        return keys

    def close(self) -> IngestReport:
        """Drain the pipeline, seal the archive, return the report."""
        self._check_open()
        try:
            self._drain(max_pending=0)
            write_report = self._writer.close()
        except Exception as exc:
            self._fail(exc)
        self._closed = True
        self._shutdown_pool()
        self.report = IngestReport(
            head_path=write_report.head_path,
            write=write_report,
            entries=self._entries,
            wall_seconds=time.perf_counter() - self._start,
        )
        return self.report

    def abort(self) -> None:
        """Cancel in-flight work and remove every file written (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for future, _key, _index in self._pending:
            future.cancel()
        self._pending.clear()
        self._shutdown_pool()
        self._writer.abort()

    def __enter__(self) -> "IngestSession":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.abort()
        elif not self._closed:
            self.close()

    # -- planning ----------------------------------------------------------
    def _plan_entry(self, dataset, key, cfg):
        """Submission-order bookkeeping: key, chain, keyframe decision."""
        if isinstance(dataset, (str, Path)):
            key = key if key is not None else Path(dataset).stem
            self._check_key(key)
            return key, None, True, None, False
        if not isinstance(dataset, AMRDataset):
            raise TypeError(
                f"submit() takes an AMRDataset or a dataset path, got {type(dataset)!r}"
            )
        chain = self._chains.setdefault(
            (dataset.name, dataset.field), _Chain(ident=(dataset.name, dataset.field))
        )
        delta_on = cfg.keyframe_interval > 1
        signature = hierarchy_signature(dataset) if delta_on else None
        is_keyframe = (
            not delta_on
            or chain.step == 0
            or chain.since_keyframe + 1 >= cfg.keyframe_interval
            or signature != chain.signature
        )
        key = key if key is not None else f"{dataset.name}/{dataset.field}/t{chain.step:04d}"
        self._check_key(key)
        if delta_on:
            temporal = (
                {"mode": "keyframe", "step": chain.step}
                if is_keyframe
                else {
                    "mode": "delta",
                    "base": chain.last_key,
                    "keyframe": chain.keyframe_key,
                    "step": chain.step,
                }
            )
        else:
            # Delta off: leave metadata untouched so entries stay
            # byte-identical to the pre-session batch writers.
            temporal = None
        chain.step += 1
        chain.since_keyframe = 0 if is_keyframe else chain.since_keyframe + 1
        chain.signature = signature
        chain.last_key = key
        if is_keyframe:
            chain.keyframe_key = key
        # The reconstruction is only for the next step's residual: a step
        # whose successor is a forced keyframe needs none.
        track_rec = delta_on and chain.since_keyframe + 1 < cfg.keyframe_interval
        return key, chain, is_keyframe, temporal, track_rec

    def _check_key(self, key: str) -> None:
        if not key:
            raise ValueError("entry key must be a non-empty string")
        if key in self._keys:
            raise ValueError(f"duplicate ingest key {key!r}")

    # -- encode (worker side) ----------------------------------------------
    def _encode(
        self, dataset, key, index, chain, is_keyframe, temporal, track_rec, options, structure,
        wait_for,
    ) -> _Entry:
        if wait_for is not None:
            # Chain serialization: step t needs the reconstruction after
            # step t-1; a failed predecessor re-raises here.
            wait_for.result()
        start = time.perf_counter()
        if isinstance(dataset, (str, Path)):
            dataset = load_dataset(dataset)
        cfg = self.config
        codec = registry.get_codec(cfg.codec, **options)
        base = None
        if is_keyframe:
            source, use_eb, use_mode = dataset, cfg.error_bound, cfg.mode
            if track_rec:
                chain.eb_abs = resolve_global_eb(dataset, cfg.error_bound, cfg.mode)
        else:
            source = residual_dataset(dataset, chain.rec)
            use_eb, use_mode = chain.eb_abs, "abs"
            base = chain.rec if track_rec else None
        if chain is not None and base is None:
            # A keyframe starts the loop afresh, and a step nobody reads the
            # reconstruction of ends it: stop pinning a level set here.
            chain.rec = None
        entry = _Entry(
            key=key, index=index, temporal=temporal, chain=chain, is_keyframe=is_keyframe
        )
        level_wise = hasattr(codec, "compress_iter")
        encode = codec.compress_iter if level_wise else codec.compress
        want_recon = track_rec and supports_kwarg(encode, "want_recon")
        kwargs = {"want_recon": True} if want_recon else {}
        inner = encode(source, use_eb, mode=use_mode, **kwargs)
        if not level_wise:
            inner = StreamingCompression.from_dataset(inner)
        stream = _TemporalStream(
            inner, temporal, delta=not is_keyframe,
            track=(codec, dataset, base) if track_rec else None, structure=structure,
        )
        if self._pool is not None:
            # Pipelined mode: do the encode work *here*, in the
            # worker, trading the one-level bound for overlap.
            chunks = list(stream)
            meta = stream.meta
            self._finish_rec(entry, stream)
            stream = StreamingCompression(
                method=stream.method,
                dataset_name=stream.dataset_name,
                original_bytes=stream.original_bytes,
                n_values=stream.n_values,
                chunks=chunks,
                final_meta=meta,
            )
        entry.stream = stream
        entry.wall_seconds = time.perf_counter() - start
        return entry

    def _finish_rec(self, entry: _Entry, stream: _TemporalStream) -> None:
        """Advance the chain's running reconstruction past ``entry``."""
        rec = stream.reconstruction()
        if rec is not None:
            entry.chain.rec = rec

    # -- write (caller side) -----------------------------------------------
    def _write(self, entry: _Entry) -> None:
        # In sync mode the encode work happens *here*, as the writer
        # drains the chunk stream — fold it into the entry's wall.
        start = time.perf_counter()
        self._writer.add_entry_stream(entry.key, entry.stream)
        if self._pool is None:
            # Sync mode encoded during the drain above; seal the rec now.
            self._finish_rec(entry, entry.stream)
        entry.stream = None
        entry.wall_seconds += time.perf_counter() - start
        self._entries.append(
            {
                "key": entry.key,
                "index": entry.index,
                "codec": self.config.codec,
                "temporal": entry.temporal,
                "wall_seconds": entry.wall_seconds,
            }
        )

    def _drain(self, max_pending: int) -> None:
        while self._pending and (
            len(self._pending) > max_pending or self._pending[0][0].done()
        ):
            future, key, index = self._pending.popleft()
            try:
                entry = future.result()
                self._write(entry)
            except Exception as exc:
                self._fail(exc, key=key, index=index)

    # -- failure -----------------------------------------------------------
    def _fail(
        self, exc: Exception, key: str | None = None, index: int | None = None
    ) -> NoReturn:
        self.abort()
        if isinstance(exc, IngestError):
            raise exc
        raise IngestError(
            f"ingest entry {key!r} (#{index}) failed: {exc}"
            if key is not None
            else f"ingest session failed: {exc}",
            key=key,
            index=index,
        ) from exc

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("IngestSession is closed")

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
