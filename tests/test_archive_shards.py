"""Sharded (v3) archive and streaming-writer contracts.

The write-path counterpart of ``tests/test_container_v2.py``:

* property-based round-trip — a random batch written through
  :class:`ShardedArchiveWriter` (head shard + N payload shards) reads
  back entry-identical via :class:`LazyBatchArchive`, in any access
  order, for any shard-roll size;
* the sharded form is bit-identical to the read-only monolithic archive
  and to the in-memory entries (same part names, same part bytes, same
  decompressed values);
* error contracts — a missing payload shard, a truncated shard, and a
  checksum mismatch all fail loudly with the shard name, the entry key,
  and the archive in the message;
* the streaming writer's peak memory is bounded by the largest single
  part (asserted with ``tracemalloc``), not the dataset;
* concurrent reads of one file-backed entry, and racing ``entry()``
  calls on one archive, serve the stored bytes and open each shard once.
"""

from __future__ import annotations

import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.container import (
    CompressedDataset,
    ContainerIOError,
    LazyCompressedDataset,
    StreamingContainerWriter,
    stream_dataset,
)
from repro.engine import (
    LazyBatchArchive,
    ShardedArchiveWriter,
    codec_for_method,
    get_codec,
)
from repro.ingest import IngestConfig, IngestError, IngestSession
from tests.helpers import legacy_archive_bytes, two_level_dataset, write_archive


def make_entry(key: str, parts: dict[str, bytes]) -> CompressedDataset:
    comp = CompressedDataset(
        method="tac",
        dataset_name=key,
        meta={"origin": key},
        original_bytes=sum(len(p) for p in parts.values()) * 4,
        n_values=max(1, len(parts)),
    )
    comp.parts.update(parts)
    return comp


part_names = st.lists(
    st.text(alphabet="abcdefgh/_0123456789", min_size=1, max_size=12),
    min_size=1,
    max_size=6,
    unique=True,
)
payloads = st.binary(min_size=0, max_size=80)


@st.composite
def batches(draw):
    """A handful of entries with random part names/payloads."""
    keys = draw(
        st.lists(
            st.text(alphabet="abcdefgh/_0123456789", min_size=1, max_size=16),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    entries = {}
    for key in keys:
        names = draw(part_names)
        entries[key] = {name: draw(payloads) for name in names}
    return entries


class TestShardedRoundtripProperty:
    @settings(max_examples=30, deadline=None)
    @given(entries=batches(), shard_size=st.integers(1, 400), data=st.data())
    def test_roundtrip_any_shard_size_any_order(self, entries, shard_size, data):
        with tempfile.TemporaryDirectory() as tmp:
            head = Path(tmp) / "prop.rpbt"
            with ShardedArchiveWriter(head, shard_size=shard_size) as writer:
                for key, parts in entries.items():
                    writer.add_entry(key, make_entry(key, parts))
            report = writer.report
            assert report.n_entries == len(entries)
            assert len(report.shard_paths) >= 1
            order = data.draw(st.permutations(sorted(entries)))
            with LazyBatchArchive.open(head, verify_shards=True) as lazy:
                assert lazy.version == 3
                assert sorted(lazy.keys()) == sorted(entries)
                for key in order:
                    entry = lazy.entry(key)
                    assert {n: entry.parts[n] for n in entry.parts} == entries[key]
                    assert entry.meta == {"origin": key}

    @settings(max_examples=15, deadline=None)
    @given(entries=batches(), shard_size=st.integers(1, 200))
    def test_sharded_matches_monolithic(self, entries, shard_size):
        comps = {key: make_entry(key, parts) for key, parts in entries.items()}
        blobs = {key: comp.to_bytes() for key, comp in comps.items()}
        with tempfile.TemporaryDirectory() as tmp:
            head = write_archive(Path(tmp) / "prop.rpbt", comps, shard_size=shard_size)
            with LazyBatchArchive.open(head) as back, LazyBatchArchive.open(
                legacy_archive_bytes(blobs, 2)
            ) as mono:
                assert back.keys() == mono.keys()
                for key in mono.keys():
                    a, b = back.entry(key), mono.entry(key)
                    assert {n: a.parts[n] for n in a.parts} == {n: b.parts[n] for n in b.parts}
                    assert a.meta == b.meta


@pytest.fixture(scope="module")
def compressed_batch() -> dict:
    """Two real codec outputs — the shard contents exercised below."""
    ds = two_level_dataset(n=16, fine_fraction=0.3, seed=7)
    return {f"toy/{c}": get_codec(c).compress(ds, 1e-3, mode="abs") for c in ("tac", "1d")}


@pytest.fixture
def sharded(tmp_path, compressed_batch):
    """One head + one-entry-per-shard layout on disk."""
    head = tmp_path / "batch.rpbt"
    with ShardedArchiveWriter(head, shard_size=1, meta={"suite": "shards"}) as writer:
        for key in sorted(compressed_batch):
            writer.add_entry(key, compressed_batch[key])
    assert len(writer.report.shard_paths) == len(compressed_batch)
    return head, writer.report


class TestShardErrorContracts:
    def test_missing_shard_names_itself(self, sharded):
        head, report = sharded
        with LazyBatchArchive.open(head) as lazy:
            victim_name = lazy.entry_shards()["toy/tac"]
        (head.parent / victim_name).unlink()
        with LazyBatchArchive.open(head) as lazy:
            with pytest.raises(ContainerIOError) as excinfo:
                lazy.entry("toy/tac")
        message = str(excinfo.value)
        assert victim_name in message
        assert "toy/tac" in message
        assert head.name in message

    def test_checksum_mismatch_detected(self, sharded):
        head, report = sharded
        victim = report.shard_paths[0]
        raw = bytearray(victim.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        victim.write_bytes(bytes(raw))
        with LazyBatchArchive.open(head, verify_shards=True) as lazy:
            key = next(
                k for k, s in lazy.entry_shards().items() if s == victim.name
            )
            with pytest.raises(ContainerIOError, match="checksum"):
                lazy.entry(key)

    def test_truncated_shard_detected(self, sharded):
        head, report = sharded
        victim = report.shard_paths[0]
        victim.write_bytes(victim.read_bytes()[:-20])
        with LazyBatchArchive.open(head, verify_shards=True) as lazy:
            key = next(
                k for k, s in lazy.entry_shards().items() if s == victim.name
            )
            with pytest.raises(ContainerIOError, match="short"):
                lazy.entry(key)

    def test_unverified_open_defers_shard_reads(self, sharded):
        """Without verify_shards, opening the head touches no shard at all
        (manifest-only inspection of a batch whose shards are elsewhere)."""
        head, report = sharded
        for path in report.shard_paths:
            path.unlink()
        with LazyBatchArchive.open(head) as lazy:
            assert len(lazy.manifest()) == 2
            assert sorted(lazy.entry_shards()) == lazy.keys()
            assert len(lazy.shards()) == 2

    def test_head_from_bytes_needs_shard_opener(self, sharded):
        head, _report = sharded
        blob = head.read_bytes()
        with pytest.raises(ValueError, match="shard_opener"):
            LazyBatchArchive.open(blob)

    def test_custom_shard_opener_resolves_relocated_shards(self, sharded):
        """The object-storage seam: shards can live anywhere the opener
        can reach — here, a different directory, opened from raw bytes."""
        from repro.core.container import make_source

        head, report = sharded
        blob = head.read_bytes()
        with tempfile.TemporaryDirectory() as elsewhere:
            for path in report.shard_paths:
                (Path(elsewhere) / path.name).write_bytes(path.read_bytes())
                path.unlink()
            opener = lambda name: make_source(Path(elsewhere) / name)  # noqa: E731
            with LazyBatchArchive.open(blob, shard_opener=opener) as lazy:
                restored = lazy.decompress("toy/tac")
                assert restored.n_levels == 2

    def test_non_local_shard_names_rejected(self, tmp_path, sharded):
        head, _report = sharded
        import json
        import struct

        blob = head.read_bytes()
        version, head_len = struct.unpack_from("<BQ", blob, 4)
        record = json.loads(blob[13 : 13 + head_len].decode("utf-8"))
        record["shards"][0]["name"] = "../evil.rpsh"
        new_head = json.dumps(record, sort_keys=True).encode("utf-8")
        evil = tmp_path / "evil_head.rpbt"
        evil.write_bytes(blob[:5] + struct.pack("<Q", len(new_head)) + new_head)
        first_key = record["keys"][0]
        target = next(
            k for k in record["keys"] if record["index"][k][0] == 0
        ) or first_key
        with LazyBatchArchive.open(evil) as lazy:
            with pytest.raises(ContainerIOError, match="non-local"):
                lazy.entry(target)


class TestShardedBitIdentity:
    def test_parts_and_values_match_the_entries_written(self, sharded, compressed_batch):
        head, _report = sharded
        with LazyBatchArchive.open(head, verify_shards=True) as lazy:
            for key, reference in compressed_batch.items():
                entry = lazy.entry(key)
                assert list(entry.parts) == list(reference.parts)
                for name in reference.parts:
                    assert entry.parts[name] == reference.parts[name]
                a = lazy.decompress(key)
                b = codec_for_method(reference.method).decompress(reference)
                for la, lb in zip(a.levels, b.levels):
                    assert np.array_equal(la.data, lb.data)
                    assert np.array_equal(la.mask, lb.mask)

    def test_deterministic_regeneration(self, tmp_path, compressed_batch):
        """Equal archives produce byte-equal shard sets (golden-fixture
        prerequisite)."""
        head_a = tmp_path / "a" / "batch.rpbt"
        head_b = tmp_path / "b" / "batch.rpbt"
        head_a.parent.mkdir()
        head_b.parent.mkdir()
        write_archive(head_a, compressed_batch, shard_size=4096)
        write_archive(head_b, dict(reversed(compressed_batch.items())), shard_size=4096)
        assert head_a.read_bytes() == head_b.read_bytes()
        shards_a = sorted(head_a.parent.glob("*.rpsh"))
        shards_b = sorted(head_b.parent.glob("*.rpsh"))
        assert shards_a and [p.name for p in shards_a] == [p.name for p in shards_b]
        for pa, pb in zip(shards_a, shards_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_partial_decode_reads_one_shard(self, sharded):
        head, _report = sharded
        with LazyBatchArchive.open(head) as lazy:
            entry = lazy.entry("toy/tac")
            level = codec_for_method(entry.method).decompress_level(entry, 1)
            assert level.n_points() > 0


class TestStreamingWriterMemory:
    def test_peak_memory_bounded_by_largest_part(self, tmp_path):
        """The tentpole contract: streaming a multi-part dataset allocates
        at most ~2x the largest single part, never the sum of parts."""
        rng = np.random.default_rng(11)
        n_parts, part_size = 8, 4 << 20
        path = tmp_path / "big.rpam"

        def parts():
            for i in range(n_parts):
                yield f"L{i}/payload", rng.bytes(part_size)

        tracemalloc.start()
        writer = StreamingContainerWriter(path, "tac", "big", meta={"levels": []})
        for name, payload in parts():
            writer.add_part(name, payload)
            del payload  # released before the next part is generated
        total = writer.close()
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert total > n_parts * part_size
        assert writer.largest_part == part_size
        # One part in flight (generator) + one being written + slack; an
        # eager to_bytes() would have needed > n_parts * part_size here.
        assert peak < 2 * part_size + (1 << 20), (
            f"peak {peak / 2**20:.1f} MiB vs largest part {part_size / 2**20:.1f} MiB"
        )
        lazy = LazyCompressedDataset.open(path)
        assert len(lazy.parts) == n_parts
        lazy.close()

    def test_streamed_bytes_equal_eager(self, tmp_path, compressed_batch):
        comp = compressed_batch["toy/tac"]
        path = tmp_path / "entry.rpam"
        total = stream_dataset(comp, path)
        assert path.read_bytes() == comp.to_bytes()
        assert total == path.stat().st_size
        with LazyCompressedDataset.open(path) as lazy:
            assert lazy.container_version == 5
            assert lazy.parts.verifies_integrity

    def test_writer_rejects_duplicates_and_use_after_close(self, tmp_path):
        writer = StreamingContainerWriter(tmp_path / "x.rpam", "tac", "x")
        writer.add_part("a", b"one")
        with pytest.raises(ValueError, match="duplicate"):
            writer.add_part("a", b"two")
        writer.close()
        with pytest.raises(ValueError, match="closed"):
            writer.add_part("b", b"three")

    def test_aborted_writer_leaves_unreadable_partial(self, tmp_path):
        path = tmp_path / "partial.rpam"
        with pytest.raises(RuntimeError, match="boom"):
            with StreamingContainerWriter(path, "tac", "x") as writer:
                writer.add_part("a", b"payload")
                raise RuntimeError("boom")
        # Header was never patched: the zero index slot refuses to parse
        # as a complete blob instead of serving half a dataset.
        with pytest.raises(ValueError):
            CompressedDataset.from_bytes(path.read_bytes())


class TestConcurrentReads:
    def test_concurrent_file_reads(self, tmp_path, compressed_batch):
        comp = compressed_batch["toy/tac"]
        path = tmp_path / "entry.rpam"
        path.write_bytes(comp.to_bytes())
        with LazyCompressedDataset.open(path) as lazy:
            names = list(comp.parts) * 8
            with ThreadPoolExecutor(max_workers=8) as pool:
                fetched = list(pool.map(lambda n: lazy.parts[n], names))
            for name, payload in zip(names, fetched):
                assert payload == comp.parts[name]

    def test_concurrent_entry_calls_open_each_shard_once(self, sharded):
        """Racing entry() calls must not double-open (and leak) a shard."""
        from repro.core.container import make_source

        head, report = sharded
        opens: list[str] = []

        def opener(name):
            opens.append(name)
            return make_source(head.parent / name)

        with LazyBatchArchive.open(head.read_bytes(), shard_opener=opener) as lazy:
            keys = lazy.keys() * 8
            with ThreadPoolExecutor(max_workers=8) as pool:
                entries = list(pool.map(lazy.entry, keys))
            assert all(entry.n_values > 0 for entry in entries)
        assert sorted(opens) == sorted(set(opens)), f"shard double-opened: {opens}"
        assert len(opens) == len(report.shard_paths)


class TestSessionStreamedBatch:
    def test_session_matches_codec_compress(self, tmp_path):
        datasets = [two_level_dataset(n=16, fine_fraction=0.25, seed=s) for s in range(3)]
        reference = {
            f"f{i}/tac": get_codec("tac").compress(ds, 1e-3) for i, ds in enumerate(datasets)
        }
        head = tmp_path / "streamed.rpbt"
        config = IngestConfig(error_bound=1e-3, shard_size=1, workers=3)
        with IngestSession(head, config, meta={"batch": "ref"}) as session:
            for i, ds in enumerate(datasets):
                session.submit(ds, key=f"f{i}/tac")
        assert session.report.n_entries == len(datasets)
        assert len(session.report.write.shard_paths) == len(datasets)
        with LazyBatchArchive.open(head, verify_shards=True) as lazy:
            assert lazy.meta == {"batch": "ref"}
            for key, comp in reference.items():
                entry = lazy.entry(key)
                for name, payload in comp.parts.items():
                    assert entry.parts[name] == payload

    def test_failed_entry_aborts_and_cleans_up(self, tmp_path):
        good = two_level_dataset(n=16, fine_fraction=0.25, seed=0)
        head = tmp_path / "doomed.rpbt"
        config = IngestConfig(error_bound=1e-3, shard_size=1, workers=2)
        with pytest.raises(IngestError, match="bad/tac"):
            with IngestSession(head, config) as session:
                session.submit(good, key="good/tac")
                session.submit(str(tmp_path / "missing.npz"), key="bad/tac")
        leftovers = sorted(p.name for p in tmp_path.iterdir() if p.suffix != ".npz")
        assert leftovers == [], f"half-written archive left behind: {leftovers}"

    def test_failed_rerun_preserves_existing_archive(self, tmp_path):
        """A re-run that fails before writing anything must not delete
        the previously written archive."""
        ds = two_level_dataset(n=16, fine_fraction=0.25, seed=2)
        head = tmp_path / "arch.rpbt"
        with IngestSession(head, codec="1d", error_bound=1e-3) as session:
            session.submit(ds, key="a/1d")
        before = head.read_bytes()
        with pytest.raises(IngestError, match="bad/1d"):
            with IngestSession(head, codec="1d") as session:
                session.submit(str(tmp_path / "missing.npz"), key="bad/1d")
        assert head.read_bytes() == before
        with LazyBatchArchive.open(head) as lazy:
            assert lazy.decompress("a/1d").n_levels == 2


    def test_failed_rerun_midway_leaves_the_old_archive_whole(self, tmp_path, capsys):
        """A re-run that dies after it began writing shards must not have
        overwritten the shards the surviving head points at."""
        from repro.cli import main
        from tests.test_ingest import archive_entries

        datasets = [two_level_dataset(n=16, fine_fraction=0.25, seed=s) for s in range(3)]
        head = tmp_path / "arch.rpbt"
        config = IngestConfig(error_bound=1e-3, shard_size=1)
        with IngestSession(head, config) as session:
            for i, ds in enumerate(datasets):
                session.submit(ds, key=f"f{i}")
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        before = archive_entries(head)
        with pytest.raises(IngestError, match="bad"):
            with IngestSession(head, config) as session:
                session.submit(datasets[2], key="other")  # shard 0 of the re-run
                session.submit(str(tmp_path / "missing.npz"), key="bad")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files
        assert main(["scrub", str(head)]) == 0
        assert "scrub clean" in capsys.readouterr().out
        assert archive_entries(head) == before

    def test_successful_rerun_replaces_the_archive_completely(self, tmp_path):
        datasets = [two_level_dataset(n=16, fine_fraction=0.25, seed=s) for s in range(3)]
        head = tmp_path / "arch.rpbt"
        with IngestSession(head, error_bound=1e-3, shard_size=1) as session:
            for i, ds in enumerate(datasets):
                session.submit(ds, key=f"f{i}")
        assert len(list(tmp_path.iterdir())) == 4
        with IngestSession(head, error_bound=1e-3, shard_size=1) as session:
            session.submit(datasets[1], key="only")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "arch.rpbt", "arch.shard-0000.rpsh",
        ]
        with LazyBatchArchive.open(head, verify_shards=True) as lazy:
            assert lazy.keys() == ["only"]
            assert lazy.decompress("only").n_levels == 2


class _FailingSink:
    """Seekable sink whose first write fails (ENOSPC on the header)."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        raise OSError("no space left on device")

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestStreamingWriterInitFailure:
    def test_head_write_failure_closes_owned_handle(self, tmp_path, monkeypatch):
        """RL002: a failed head write in __init__ must close the file the
        writer itself opened — the caller never gets an object to close."""
        import builtins

        opened = []
        real_open = builtins.open

        def spy_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            opened.append(fh)
            return _FailingSink(fh)

        monkeypatch.setattr(builtins, "open", spy_open)
        with pytest.raises(OSError, match="no space left"):
            StreamingContainerWriter(tmp_path / "x.rpam", "tac", "d")
        assert opened, "writer never opened its sink"
        assert all(fh.closed for fh in opened), "sink handle leaked on init failure"

    def test_borrowed_handle_stays_open_on_init_failure(self, tmp_path):
        with open(tmp_path / "x.rpam", "wb") as fh:
            with pytest.raises(OSError, match="no space left"):
                StreamingContainerWriter(_FailingSink(fh), "tac", "d")
            assert not fh.closed, "writer closed a handle it does not own"
