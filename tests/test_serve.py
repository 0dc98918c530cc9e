"""Read-service layer: lifecycle bugfixes and the serving stack.

Three regression suites for bugs fixed in this change set:

* ``LazyBatchArchive.open`` must close the source it just opened when
  head parsing fails (bad magic, unsupported version, corrupt head,
  v3-from-bytes without an opener) — previously it leaked;
* ``_ShardStore.close()`` vs a concurrent first-open: the late opener
  must not insert (and leak) a source into a swept store, and any
  post-close access must raise instead of silently reopening shards;
* negative ``read_at`` spans must be rejected by every byte source —
  Python's buffer slicing would otherwise serve plausible garbage from
  the end of the blob.

Plus contracts for the serving stack built on top: span coalescing,
prefetch staging, the decoded-brick LRU, retrying openers, the prefetch
pipeline (local stores read on the request thread, any other store on
its I/O pool), and the ``ArchiveReader`` front-end (bit-identical to direct
decode, cache hits on repeats, correct under concurrency, monolithic
codecs through the same path).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

import repro.engine.archive as archive_mod
from repro.core.container import (
    ContainerIOError,
    LazyPartStore,
    coalesce_spans,
    make_source,
)
from repro.core.plan import DecodeUnit, execute_plan
from repro.core.tac import TACCompressor
from repro.baselines.zmesh import ZMeshCompressor
from repro.engine import LazyBatchArchive, default_shard_opener
from repro.serve import (
    ArchiveReader,
    DeadlineExceeded,
    DecodedBrickCache,
    FetchStats,
    PrefetchPipeline,
    RetryPolicy,
    retrying_opener,
)
from repro.serve import opener as opener_mod
from repro.serve import prefetch
from repro.serve.opener import MAX_DELAY
from repro.serve.prefetch import DECODE_SLOTS
from repro.sim.datasets import make_dataset
from repro.sz.compressor import SZCompressor
from tests.helpers import two_level_dataset, write_archive

EB = 1e-3


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


class CountingSource:
    """In-memory byte source that logs every read_at call."""

    label = "<counting>"

    def __init__(self, payload: bytes, fail_first: int = 0, delay: float = 0.0):
        self.payload = payload
        self.reads: list[tuple[int, int]] = []
        self.closed = False
        self.fail_first = fail_first
        self.delay = delay
        self._lock = threading.Lock()

    def read_at(self, offset: int, length: int) -> bytes:
        with self._lock:
            if self.fail_first > 0:
                self.fail_first -= 1
                raise OSError("simulated transient failure")
            self.reads.append((offset, length))
        if self.delay:
            time.sleep(self.delay)
        if offset < 0 or length < 0 or offset + length > len(self.payload):
            raise ValueError("read past end")
        return self.payload[offset : offset + length]

    def close(self) -> None:
        self.closed = True


@pytest.fixture(scope="module")
def tac_blob():
    codec = TACCompressor(brick_size=8)
    comp = codec.compress(two_level_dataset(seed=3), EB, mode="abs")
    return codec, comp


# ---------------------------------------------------------------------------
# coalesce_spans
# ---------------------------------------------------------------------------


class TestCoalesceSpans:
    def test_empty(self):
        assert coalesce_spans([]) == []

    def test_disjoint_spans_stay_separate(self):
        assert coalesce_spans([(0, 4), (10, 4)]) == [(0, 4), (10, 4)]

    def test_adjacent_spans_merge(self):
        assert coalesce_spans([(0, 4), (4, 4)]) == [(0, 8)]

    def test_unsorted_input_is_sorted_first(self):
        assert coalesce_spans([(10, 2), (0, 4), (4, 6)]) == [(0, 12)]

    def test_overlapping_spans_merge_to_hull(self):
        assert coalesce_spans([(0, 10), (2, 3)]) == [(0, 10)]

    def test_gap_bridged_only_up_to_max_gap(self):
        assert coalesce_spans([(0, 4), (7, 4)], max_gap=2) == [(0, 4), (7, 4)]
        assert coalesce_spans([(0, 4), (7, 4)], max_gap=3) == [(0, 11)]

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError, match="max_gap"):
            coalesce_spans([(0, 4)], max_gap=-1)


# ---------------------------------------------------------------------------
# negative-span rejection (bugfix)
# ---------------------------------------------------------------------------


class TestNegativeSpanRejection:
    """read_at(offset<0) must fail loudly, not slice from the buffer end."""

    payload = bytes(range(64))

    def _check(self, src):
        try:
            with pytest.raises(ValueError, match="corrupt or truncated"):
                src.read_at(-8, 4)
            with pytest.raises(ValueError, match="corrupt or truncated"):
                src.read_at(0, -4)
            # Sanity: valid spans still work.
            assert src.read_at(8, 4) == self.payload[8:12]
        finally:
            src.close()

    def test_bytes_source(self):
        self._check(make_source(self.payload))

    def test_file_source(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(self.payload)
        self._check(make_source(path))


# ---------------------------------------------------------------------------
# LazyPartStore.prefetch
# ---------------------------------------------------------------------------


class TestPartStorePrefetch:
    def make_store(self, **kwargs):
        payload = bytes(range(256)) * 4
        src = CountingSource(payload, **kwargs)
        index = {"a": (0, 16), "b": (16, 16), "c": (64, 16), "d": (200, 8)}
        return src, LazyPartStore(src, index)

    def test_adjacent_parts_coalesce_into_one_read(self):
        src, store = self.make_store()
        n_reads, nbytes = store.prefetch(["a", "b"])
        assert (n_reads, nbytes) == (1, 32)
        assert src.reads == [(0, 32)]

    def test_gap_bridging_counts_bridged_bytes(self):
        src, store = self.make_store()
        n_reads, nbytes = store.prefetch(["a", "b", "c"], max_gap=32)
        assert n_reads == 1
        assert nbytes == 80  # [0, 80): bridged gap bytes are honest cost

    def test_staged_parts_serve_without_source_reads(self):
        src, store = self.make_store()
        store.prefetch(["a", "b"])
        reads_after_prefetch = list(src.reads)
        assert store["a"] == src.payload[0:16]
        assert store["b"] == src.payload[16:32]
        assert src.reads == reads_after_prefetch  # no extra I/O
        assert store.access_counts == {"a": 1, "b": 1}
        assert store.bytes_read == 32  # counted at fetch time, once

    def test_staged_handoff_is_one_shot(self):
        src, store = self.make_store()
        store.prefetch(["a"])
        store["a"]
        store["a"]  # second access goes back to the source
        assert (0, 16) in src.reads

    def test_already_staged_parts_not_refetched(self):
        src, store = self.make_store()
        store.prefetch(["a"])
        assert store.prefetch(["a"]) == (0, 0)
        assert len(src.reads) == 1

    def test_discard_staged(self):
        src, store = self.make_store()
        store.prefetch(["a"])
        store.discard_staged()
        store["a"]
        assert src.reads == [(0, 16), (0, 16)]

    def test_failed_prefetch_raises_container_error(self):
        src, store = self.make_store(fail_first=1)
        with pytest.raises(ContainerIOError, match="failed prefetching"):
            store.prefetch(["a"])

    def test_spans_view_reads_no_payload(self):
        src, store = self.make_store()
        assert store.spans()["c"] == (64, 16)
        assert src.reads == []


# ---------------------------------------------------------------------------
# DecodedBrickCache
# ---------------------------------------------------------------------------


class TestDecodedBrickCache:
    def test_hit_miss_counters(self):
        cache = DecodedBrickCache(max_bytes=1 << 20)
        key = ("e", 0, "L0/b0")
        assert cache.get(key) is None
        value = np.arange(8)
        cache.put(key, value)
        assert cache.get(key) is value
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert stats["hit_rate"] == 0.5

    def test_byte_bound_evicts_lru(self):
        block = np.zeros(128, dtype=np.uint8)  # 128 bytes each
        cache = DecodedBrickCache(max_bytes=3 * block.nbytes)
        for i in range(3):
            cache.put(("e", 0, f"b{i}"), block.copy())
        cache.get(("e", 0, "b0"))  # refresh b0 → b1 is now LRU
        cache.put(("e", 0, "b3"), block.copy())
        assert cache.get(("e", 0, "b1")) is None  # evicted
        assert cache.get(("e", 0, "b0")) is not None
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["current_bytes"] <= stats["max_bytes"]

    def test_oversized_value_not_cached(self):
        cache = DecodedBrickCache(max_bytes=64)
        cache.put(("e", 0, "big"), np.zeros(1024, dtype=np.uint8))
        assert len(cache) == 0
        assert cache.get(("e", 0, "big")) is None

    def test_replacing_key_updates_bytes(self):
        cache = DecodedBrickCache(max_bytes=1 << 20)
        cache.put(("e", 0, "b"), np.zeros(512, dtype=np.uint8))
        cache.put(("e", 0, "b"), np.zeros(16, dtype=np.uint8))
        assert cache.stats()["current_bytes"] == 16
        assert len(cache) == 1

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            DecodedBrickCache(max_bytes=0)

    def test_thread_hammer_stays_within_budget(self):
        block = np.zeros(256, dtype=np.uint8)
        cache = DecodedBrickCache(max_bytes=8 * block.nbytes)

        def worker(seed: int) -> None:
            for i in range(200):
                key = ("e", 0, f"b{(seed * 7 + i) % 32}")
                if cache.get(key) is None:
                    cache.put(key, block)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(8)))
        stats = cache.stats()
        assert stats["current_bytes"] <= stats["max_bytes"]
        assert stats["entries"] <= 8
        assert stats["hits"] + stats["misses"] == 8 * 200


# ---------------------------------------------------------------------------
# retrying opener
# ---------------------------------------------------------------------------


class TestRetryingOpener:
    def recording_policy(self, attempts=4):
        waits: list[float] = []
        policy = RetryPolicy(attempts=attempts, base_delay=0.01, sleep=waits.append)
        return policy, waits

    def test_flaky_open_recovers_with_backoff(self):
        policy, waits = self.recording_policy()
        failures = {"n": 2}

        def opener(name):
            if failures["n"] > 0:
                failures["n"] -= 1
                raise OSError("connection reset")
            return CountingSource(b"shard-bytes")

        wrapped = retrying_opener(opener, policy=policy)
        src = wrapped("shard_000.rpsh")
        assert src.read_at(0, 5) == b"shard"
        assert waits == [0.01, 0.02]  # geometric backoff, no real sleeping
        assert wrapped.stats.snapshot()["open_retries"] == 2

    def test_flaky_read_recovers(self):
        policy, _ = self.recording_policy()
        inner = CountingSource(b"x" * 64, fail_first=1)
        wrapped = retrying_opener(lambda name: inner, policy=policy)
        src = wrapped("s")
        assert src.read_at(0, 8) == b"x" * 8
        stats = wrapped.stats.snapshot()
        assert stats["read_retries"] == 1
        assert stats["bytes_fetched"] == 8

    def test_exhaustion_wraps_in_container_error(self):
        policy, waits = self.recording_policy(attempts=3)

        def opener(name):
            raise OSError("still down")

        wrapped = retrying_opener(opener, policy=policy)
        with pytest.raises(ContainerIOError, match="after 3 attempt"):
            wrapped("shard_000.rpsh")
        assert len(waits) == 2

    def test_value_errors_never_retried(self):
        policy, waits = self.recording_policy()
        calls = {"n": 0}

        def opener(name):
            calls["n"] += 1
            raise ValueError("bad shard name")

        wrapped = retrying_opener(opener, policy=policy)
        with pytest.raises(ValueError, match="bad shard name"):
            wrapped("../escape")
        assert calls["n"] == 1 and waits == []

    def test_container_errors_never_retried(self):
        """ContainerIOError is an OSError *and* a ValueError: integrity
        failures must not be retried as if they were transport blips."""
        policy, waits = self.recording_policy()

        def opener(name):
            raise ContainerIOError("checksum mismatch")

        wrapped = retrying_opener(opener, policy=policy)
        with pytest.raises(ContainerIOError, match="checksum"):
            wrapped("s")
        assert waits == []

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError, match="base_delay"):
            RetryPolicy(base_delay=-0.1)

    def test_backoff_doubles_up_to_max_delay(self):
        policy = RetryPolicy(attempts=4, base_delay=0.01)
        assert list(policy.delays()) == pytest.approx([0.01, 0.02, 0.04])
        policy = RetryPolicy(attempts=5, base_delay=1.0)
        assert list(policy.delays()) == [1.0, MAX_DELAY, MAX_DELAY, MAX_DELAY]

    def test_many_attempts_wait_at_the_cap(self):
        """Past ~1024 doublings the nominal wait overflows to inf; the
        cap still holds (and a zero base stays zero)."""
        waits = list(RetryPolicy(attempts=2000, base_delay=0.01).delays())
        assert len(waits) == 1999 and waits[-1] == MAX_DELAY
        assert set(RetryPolicy(attempts=2000, base_delay=0.0).delays()) == {0.0}

    def test_max_delay_is_read_when_waits_are_drawn(self, monkeypatch):
        policy = RetryPolicy(attempts=5, base_delay=0.01)
        monkeypatch.setattr(opener_mod, "MAX_DELAY", 0.03)
        assert list(policy.delays()) == pytest.approx([0.01, 0.02, 0.03, 0.03])


# ---------------------------------------------------------------------------
# open-failure leak regression (bugfix)
# ---------------------------------------------------------------------------


class TestOpenClosesSourceOnFailure:
    """LazyBatchArchive.open must not leak the source when parsing fails."""

    def _tracking_make_source(self, monkeypatch, module=archive_mod):
        opened: list[object] = []
        real = module.make_source

        def tracked(source):
            src = real(source)
            opened.append(src)
            src_close = src.close

            def close():
                src.tracked_closed = True
                src_close()

            src.close = close
            return src

        monkeypatch.setattr(module, "make_source", tracked)
        return opened

    def _assert_all_closed(self, opened):
        assert opened, "make_source was never called"
        for src in opened:
            assert getattr(src, "tracked_closed", False), "leaked byte source"

    def test_bad_magic(self, monkeypatch):
        opened = self._tracking_make_source(monkeypatch)
        with pytest.raises(ValueError, match="not a batch archive"):
            LazyBatchArchive.open(b"XXXX" + b"\0" * 32)
        self._assert_all_closed(opened)

    def test_unsupported_version(self, monkeypatch):
        opened = self._tracking_make_source(monkeypatch)
        blob = archive_mod._MAGIC + archive_mod._HEAD.pack(99, 2) + b"{}"
        with pytest.raises(ValueError, match="version 99"):
            LazyBatchArchive.open(blob)
        self._assert_all_closed(opened)

    def test_truncated_head(self, monkeypatch):
        opened = self._tracking_make_source(monkeypatch)
        blob = archive_mod._MAGIC + archive_mod._HEAD.pack(2, 500) + b'{"ke'
        with pytest.raises(ValueError):
            LazyBatchArchive.open(blob)
        self._assert_all_closed(opened)

    def test_corrupt_head_json(self, monkeypatch):
        opened = self._tracking_make_source(monkeypatch)
        head = b'{"keys": [broken'
        blob = archive_mod._MAGIC + archive_mod._HEAD.pack(2, len(head)) + head
        with pytest.raises(ValueError):
            LazyBatchArchive.open(blob)
        self._assert_all_closed(opened)

    def test_v3_bytes_without_opener(self, monkeypatch, tmp_path, tac_blob):
        codec, comp = tac_blob
        head_path = write_archive(tmp_path / "batch.rpbt", {"k": comp})
        opened = self._tracking_make_source(monkeypatch)
        with pytest.raises(ValueError, match="shard_opener"):
            LazyBatchArchive.open(head_path.read_bytes())
        self._assert_all_closed(opened)

    @pytest.mark.parametrize("damage", ["magic", "truncated"])
    def test_lazy_dataset_open_of_a_file_that_does_not_parse(
        self, monkeypatch, tmp_path, tac_blob, damage
    ):
        """``LazyCompressedDataset.open(path)`` opened the file inline in
        ``_parse``'s argument list, so a blob that failed to parse kept its
        handle open with nobody to close it."""
        import repro.core.container as container_mod

        _codec, comp = tac_blob
        blob = comp.to_bytes()
        path = tmp_path / "bad.tac"
        path.write_bytes(b"XXXX" + blob[4:] if damage == "magic" else blob[:40])
        opened = self._tracking_make_source(monkeypatch, container_mod)
        with pytest.raises((ValueError, ContainerIOError)):
            container_mod.LazyCompressedDataset.open(path)
        self._assert_all_closed(opened)

    def test_successful_open_keeps_source(self, monkeypatch, tmp_path, tac_blob):
        codec, comp = tac_blob
        head_path = write_archive(tmp_path / "batch.rpbt", {"k": comp})
        opened = self._tracking_make_source(monkeypatch)
        with LazyBatchArchive.open(head_path) as arch:
            assert arch.keys() == ["k"]
            assert not getattr(opened[0], "tracked_closed", False)
        self._assert_all_closed(opened)


# ---------------------------------------------------------------------------
# shard-store close()/first-open race (bugfix)
# ---------------------------------------------------------------------------


class TestShardStoreCloseRace:
    def test_entry_after_close_raises(self, tmp_path, tac_blob):
        codec, comp = tac_blob
        head = write_archive(tmp_path / "batch.rpbt", {"k": comp})
        arch = LazyBatchArchive.open(head)
        arch.close()
        with pytest.raises(ContainerIOError, match="closed"):
            arch.entry("k")

    def test_close_is_idempotent(self, tmp_path, tac_blob):
        codec, comp = tac_blob
        head = write_archive(tmp_path / "batch.rpbt", {"k": comp})
        arch = LazyBatchArchive.open(head)
        arch.entry("k")
        arch.close()
        arch.close()  # second close must be a no-op, not a double-close

    def test_close_winning_the_open_race_leaks_nothing(self, tmp_path, tac_blob):
        """Deterministic reproduction of the race: a thread past the
        closed-check blocks inside the opener while close() sweeps the
        store; its freshly opened source must be closed, not inserted."""
        codec, comp = tac_blob
        head = write_archive(tmp_path / "batch.rpbt", {"k": comp})
        inner = default_shard_opener(head.parent)
        in_opener = threading.Event()
        release = threading.Event()
        opened: list[object] = []

        def blocking_opener(name):
            in_opener.set()
            assert release.wait(timeout=10)
            src = inner(name)
            opened.append(src)
            return src

        arch = LazyBatchArchive.open(head, shard_opener=blocking_opener)
        result: dict = {}

        def reader():
            try:
                arch.entry("k")
            except Exception as exc:  # expected: store closed under us
                result["exc"] = exc

        thread = threading.Thread(target=reader)
        thread.start()
        assert in_opener.wait(timeout=10)
        arch.close()  # wins the race: sweeps the (empty) source dict
        release.set()
        thread.join(timeout=10)
        assert isinstance(result.get("exc"), ContainerIOError)
        assert opened, "opener never produced a source"
        # The bug: this source used to be inserted into the swept dict
        # and leak; now the late opener closes it and raises.
        assert all(getattr(src, "closed", None) or _source_closed(src) for src in opened)

    def test_threaded_source_vs_close_stress(self, tmp_path, tac_blob):
        """Hammer entry() from many threads while close() lands midway:
        every opened source ends up closed and every post-close access
        raises instead of reopening."""
        codec, comp = tac_blob
        head = write_archive(
            tmp_path / "batch.rpbt", {f"k{i}": comp for i in range(4)}, shard_size=1
        )
        for _round in range(5):
            inner = default_shard_opener(head.parent)
            opened: list[object] = []
            lock = threading.Lock()

            def tracking_opener(name):
                src = inner(name)
                with lock:
                    opened.append(src)
                return src

            arch = LazyBatchArchive.open(head, shard_opener=tracking_opener)
            start = threading.Barrier(9)
            errors: list[Exception] = []

            def reader(seed: int):
                start.wait()
                for i in range(50):
                    key = f"k{(seed + i) % 4}"
                    try:
                        arch.entry(key).parts.sizes()
                    except ContainerIOError:
                        pass  # store closed under us: the contract
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

            threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            start.wait()
            arch.close()
            for thread in threads:
                thread.join(timeout=30)
            assert errors == []
            assert all(_source_closed(src) for src in opened), "leaked shard source"
            with pytest.raises(ContainerIOError, match="closed"):
                arch.entry("k0")


def _source_closed(src) -> bool:
    """Whether a file-backed source has released its handle."""
    fh = getattr(src, "_fh", None)
    if fh is not None:
        return fh.closed
    closed = getattr(src, "closed", None)
    return bool(closed)


# ---------------------------------------------------------------------------
# PrefetchPipeline
# ---------------------------------------------------------------------------


class TestPrefetchPipeline:
    def make_lazy_comp(self, tmp_path, codec, comp, key="k"):
        head = write_archive(tmp_path / "batch.rpbt", {key: comp})
        arch = LazyBatchArchive.open(head)
        return arch, arch.entry(key)

    def test_matches_plain_execute(self, tmp_path, tac_blob, monkeypatch):
        monkeypatch.setattr(prefetch, "IO_WORKERS", 2)
        codec, comp = tac_blob
        arch, lazy = self.make_lazy_comp(tmp_path, codec, comp)
        plan = codec.build_decode_plan(lazy, levels=[1])
        expected = execute_plan(codec.build_decode_plan(comp, levels=[1]))
        with PrefetchPipeline() as pipeline:
            results, stats = pipeline.execute(lazy.parts, plan.units)
        assert set(results) == set(expected)
        for unit_key, value in expected.items():
            got = results[unit_key]
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(got, value)
        assert stats.n_decoded == len(plan.units)
        assert stats.n_fetches >= 1
        assert stats.bytes_fetched > 0
        arch.close()

    def test_preloaded_units_fetch_nothing(self, tmp_path, tac_blob):
        codec, comp = tac_blob
        arch, lazy = self.make_lazy_comp(tmp_path, codec, comp)
        plan = codec.build_decode_plan(lazy, levels=[1])
        full = execute_plan(codec.build_decode_plan(comp, levels=[1]))
        with PrefetchPipeline() as pipeline:
            results, stats = pipeline.execute(lazy.parts, plan.units, preloaded=full)
        assert stats.n_preloaded == len(plan.units)
        assert stats.bytes_fetched == 0 and stats.n_fetches == 0
        assert set(results) == set(full)
        arch.close()

    @staticmethod
    def closure_units(calls):
        def unit(key):
            return DecodeUnit(
                key=key,
                level=0,
                part_names=(key,),
                decode=lambda key=key: calls.append(key) or key.upper(),
            )

        return [unit("a"), unit("b"), unit("c")]

    def test_preloaded_units_skip_decode(self):
        calls: list[str] = []
        with PrefetchPipeline() as pipeline:
            results, stats = pipeline.execute(
                {}, self.closure_units(calls), preloaded={"b": "cached"}
            )
        assert results == {"a": "A", "b": "cached", "c": "C"}
        assert calls == ["a", "c"]
        assert stats.n_preloaded == 1 and stats.n_decoded == 2

    def test_preloaded_keys_outside_plan_ignored(self):
        calls: list[str] = []
        with PrefetchPipeline() as pipeline:
            results, stats = pipeline.execute(
                {}, self.closure_units(calls), preloaded={"zz": "stale"}
            )
        assert "zz" not in results
        assert sorted(calls) == ["a", "b", "c"]
        assert stats.n_preloaded == 0

    def test_all_preloaded_decodes_nothing(self):
        calls: list[str] = []
        with PrefetchPipeline() as pipeline:
            results, stats = pipeline.execute(
                {}, self.closure_units(calls), preloaded={"a": 1, "b": 2, "c": 3}
            )
        assert results == {"a": 1, "b": 2, "c": 3}
        assert calls == [] and stats.n_decoded == 0

    def test_eager_parts_degrade_to_plain_decode(self, tac_blob):
        codec, comp = tac_blob  # eager dict-backed parts
        plan = codec.build_decode_plan(comp, levels=[0])
        with PrefetchPipeline() as pipeline:
            results, stats = pipeline.execute(comp.parts, plan.units)
        assert stats.n_fetches == 0 and stats.bytes_fetched == 0
        assert set(results) == {unit.key for unit in plan.units}

    def test_decode_overlaps_inflight_fetches(self, monkeypatch):
        """With several slow windows and instant decodes, the first decode
        must start before the last window lands."""
        monkeypatch.setattr(prefetch, "IO_WORKERS", 2)
        monkeypatch.setattr(prefetch, "COALESCE_GAP", 0)
        payload = bytes(1024)
        src = CountingSource(payload, delay=0.03)
        # Four well-separated parts → four windows.
        index = {f"p{i}": (i * 256, 64) for i in range(4)}
        store = LazyPartStore(src, index)
        units = [
            DecodeUnit(
                key=f"p{i}",
                level=0,
                part_names=(f"p{i}",),
                decode=lambda i=i: store[f"p{i}"],
            )
            for i in range(4)
        ]
        with PrefetchPipeline() as pipeline:
            results, stats = pipeline.execute(store, units)
        assert len(results) == 4
        assert stats.n_fetches == 4
        assert stats.overlapped(), "decode never overlapped in-flight fetches"

    @staticmethod
    def _four_separated_parts(delay: float = 0.0):
        """A non-local store of four 64-byte parts 192 bytes apart, and one
        decode unit per part."""
        store = LazyPartStore(
            CountingSource(bytes(1024), delay=delay),
            {f"p{i}": (i * 256, 64) for i in range(4)},
        )
        units = [
            DecodeUnit(key=f"p{i}", level=0, part_names=(f"p{i}",),
                       decode=lambda i=i: store[f"p{i}"])
            for i in range(4)
        ]
        return store, units

    def test_pool_size_is_read_when_the_pipeline_is_built(self, monkeypatch):
        """IO_WORKERS sizes the pool once: raising it afterwards starts no
        second fetch thread for the pipeline already built."""
        monkeypatch.setattr(prefetch, "IO_WORKERS", 1)
        monkeypatch.setattr(prefetch, "COALESCE_GAP", 0)
        store, units = self._four_separated_parts(delay=0.02)
        before = set(threading.enumerate())
        with PrefetchPipeline() as pipeline:
            monkeypatch.setattr(prefetch, "IO_WORKERS", 4)
            results, stats = pipeline.execute(store, units)
            started = _new_threads(before)
        assert results == {f"p{i}": bytes(64) for i in range(4)}
        assert stats.n_fetches == 4
        assert started == ["serve-io_0"]

    def test_coalescing_gap_is_read_per_request(self, monkeypatch):
        """One pipeline, two requests: the gap in force when each request
        plans its windows decides how many windows it fetches."""
        store, units = self._four_separated_parts()
        with PrefetchPipeline() as pipeline:
            counts = []
            for gap in (0, 192, 191):
                monkeypatch.setattr(prefetch, "COALESCE_GAP", gap)
                results, stats = pipeline.execute(store, units)
                assert results == {f"p{i}": bytes(64) for i in range(4)}
                counts.append(stats.n_fetches)
        assert counts == [4, 1, 4]

    def test_each_stream_batch_decodes_on_the_calling_thread(self, monkeypatch):
        """A landing's SZ streams decode batch by batch on the request's own
        thread — their blobs are taken there too — while the I/O pool only
        fetches windows."""
        monkeypatch.setattr(prefetch, "IO_WORKERS", 1)
        sz = SZCompressor()
        rng = np.random.default_rng(7)
        blobs = {
            "big0": sz.compress(rng.random((8, 8, 8)), 1e-3),
            "big1": sz.compress(rng.random((8, 8, 8)), 1e-3),
            "small0": sz.compress(rng.random((4, 4, 4)), 1e-3),
            "small1": sz.compress(rng.random((4, 4, 4)), 1e-3),
        }
        index, offset = {}, 0
        for name, blob in blobs.items():
            index[name] = (offset, len(blob))
            offset += len(blob)
        store = LazyPartStore(CountingSource(b"".join(blobs.values())), index)
        taken_on = []

        def getter(name):
            def take():
                taken_on.append(threading.get_ident())
                return store[name]

            return take

        units = [
            DecodeUnit(
                name, 0, (name,), None, sz_blob=getter(name),
                sz_shape=(8, 8, 8) if name.startswith("big") else (4, 4, 4),
            )
            for name in blobs
        ]
        with PrefetchPipeline() as pipeline:
            results, stats = pipeline.execute(store, units)
        assert taken_on == [threading.get_ident()] * len(blobs)
        assert stats.n_fetches == 1 and stats.unit_errors == {}
        for name, blob in blobs.items():
            np.testing.assert_array_equal(results[name], sz.decompress(blob))

    def test_concurrent_requests_share_the_decode_slots(self, monkeypatch):
        """Requests decode on their own threads, but no more than
        DECODE_SLOTS of one pipeline's requests decode at once."""
        monkeypatch.setattr(prefetch, "IO_WORKERS", 2)
        lock = threading.Lock()
        active, peak = [0], [0]

        def decode():
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
            time.sleep(0.03)
            with lock:
                active[0] -= 1
            return threading.get_ident()

        with PrefetchPipeline() as pipeline:

            def request(i):
                store = LazyPartStore(CountingSource(bytes(64)), {"p": (0, 32)})
                unit = DecodeUnit(key=f"u{i}", level=0, part_names=("p",), decode=decode)
                return threading.get_ident(), pipeline.execute(store, [unit])[0]

            n = 4 * DECODE_SLOTS
            with ThreadPoolExecutor(max_workers=2 * DECODE_SLOTS) as clients:
                outs = list(clients.map(request, range(n)))
        assert [results for _ident, results in outs] == [
            {f"u{i}": ident} for i, (ident, _results) in enumerate(outs)
        ]
        assert 1 <= peak[0] <= DECODE_SLOTS

    def test_waiting_for_a_decode_slot_respects_the_deadline(self, monkeypatch):
        monkeypatch.setattr(prefetch, "IO_WORKERS", 1)
        store = LazyPartStore(CountingSource(bytes(64)), {"a": (0, 32)})
        units = [DecodeUnit(key="a", level=0, part_names=("a",), decode=lambda: store["a"])]
        with PrefetchPipeline() as pipeline:
            for _ in range(DECODE_SLOTS):  # other requests hold every slot
                pipeline._decode_slots.acquire()
            t0 = time.perf_counter()
            results, stats = pipeline.execute(store, units, deadline=0.2, allow_partial=True)
            wall = time.perf_counter() - t0
            for _ in range(DECODE_SLOTS):
                pipeline._decode_slots.release()
        assert results == {} and stats.deadline_hit
        assert isinstance(stats.unit_errors["a"], DeadlineExceeded)
        assert 0.15 < wall < 0.8
        assert store._staged == {}

    @staticmethod
    def _windowed_streams(per_window: int = 3, n_windows: int = 4):
        """SZ brick streams laid out in ``n_windows`` runs separated by gaps
        (one fetch window each at a coalescing gap of 0), their units, and the
        offset of every window."""
        sz = SZCompressor()
        rng = np.random.default_rng(11)
        arrays = {f"b{i}": rng.random((8, 8, 8)) for i in range(per_window * n_windows)}
        payload, index, starts = b"", {}, []
        for i, (name, arr) in enumerate(arrays.items()):
            if i % per_window == 0:
                payload += bytes(64)
                starts.append(len(payload))
            blob = sz.compress(arr, 1e-3)
            index[name] = (len(payload), len(blob))
            payload += blob
        return sz, arrays, payload, index, starts

    def test_work_items_come_from_the_plan_not_from_landing_order(self, monkeypatch):
        """Windows landing in any order, any distance apart: the streams
        are cut into the same decode batches, once, before anything lands,
        and the results are bit-identical."""
        from repro.core.plan import decode_jobs

        monkeypatch.setattr(prefetch, "IO_WORKERS", 4)
        monkeypatch.setattr(prefetch, "COALESCE_GAP", 0)

        sz, arrays, payload, index, starts = self._windowed_streams()

        class ShuffledSource(CountingSource):
            """Delays each window by its rank in this trial's shuffle."""

            def __init__(self, payload, order):
                super().__init__(payload)
                self.rank = {start: order.index(i) for i, start in enumerate(starts)}

            def read_at(self, offset, length):
                time.sleep(0.01 * self.rank[offset])
                return super().read_at(offset, length)

        planned, ran = [], []

        def recording_jobs(units, errors=None):
            jobs = decode_jobs(units, errors)
            planned.append([[u.key for u in members] for members, _run in jobs])

            def recorded(members, run):
                ran.append([u.key for u in members])
                return run()

            return [(members, partial(recorded, members, run)) for members, run in jobs]

        monkeypatch.setattr(prefetch, "decode_jobs", recording_jobs)
        expected = None
        for seed in range(4):
            order = list(np.random.default_rng(seed).permutation(len(starts)))
            store = LazyPartStore(ShuffledSource(payload, order), index)
            units = [
                DecodeUnit(
                    name, 0, (name,), None,
                    sz_blob=lambda name=name: store[name], sz_shape=(8, 8, 8),
                )
                for name in arrays
            ]
            if expected is None:
                expected = [[u.key for u in members] for members, _run in decode_jobs(units)]
                assert [len(item) for item in expected] == [len(arrays)]  # one batch
            planned.clear(), ran.clear()
            with PrefetchPipeline() as pipeline:
                results, stats = pipeline.execute(store, units)
            assert stats.n_fetches == len(starts)
            assert planned == [expected] and ran == expected
            for name, arr in arrays.items():
                np.testing.assert_array_equal(results[name], sz.decompress(sz.compress(arr, 1e-3)))

    def test_item_with_a_lost_window_decodes_its_surviving_members(self, monkeypatch):
        monkeypatch.setattr(prefetch, "IO_WORKERS", 4)
        monkeypatch.setattr(prefetch, "COALESCE_GAP", 0)
        sz, arrays, payload, index, starts = self._windowed_streams()

        class OneBadWindow(CountingSource):
            def read_at(self, offset, length):
                if offset == starts[1]:
                    raise OSError("window lost")
                return super().read_at(offset, length)

        store = LazyPartStore(OneBadWindow(payload), index)
        units = [
            DecodeUnit(
                name, 0, (name,), None, box=((0, 8),) * 3,
                sz_blob=lambda name=name: store[name], sz_shape=(8, 8, 8),
            )
            for name in arrays
        ]
        with PrefetchPipeline() as pipeline:
            results, stats = pipeline.execute(store, units, allow_partial=True)
        lost = {"b3", "b4", "b5"}
        assert set(stats.unit_errors) == lost
        assert set(results) == set(arrays) - lost
        np.testing.assert_array_equal(
            results["b6"], sz.decompress(sz.compress(arrays["b6"], 1e-3))
        )
        assert store._staged == {}

    def test_failed_fetch_discards_staged(self, monkeypatch):
        monkeypatch.setattr(prefetch, "IO_WORKERS", 1)
        src = CountingSource(bytes(512), fail_first=0)
        index = {"a": (0, 32), "b": (256, 32)}
        store = LazyPartStore(src, index)

        def fail():
            raise RuntimeError("decode blew up")

        units = [
            DecodeUnit(key="a", level=0, part_names=("a",), decode=lambda: store["a"]),
            DecodeUnit(key="b", level=0, part_names=("b",), decode=fail),
        ]
        with PrefetchPipeline() as pipeline:
            with pytest.raises(RuntimeError, match="blew up"):
                pipeline.execute(store, units)
        assert store._staged == {}  # nothing left behind for the next request

    def test_closed_pipeline_rejects_work(self):
        pipeline = PrefetchPipeline()
        pipeline.close()
        with pytest.raises(RuntimeError, match="closed"):
            pipeline.execute({}, [])


# ---------------------------------------------------------------------------
# ArchiveReader
# ---------------------------------------------------------------------------


class TestArchiveReader:
    def test_region_reads_match_direct_decode(self, tmp_path, tac_blob):
        codec, comp = tac_blob
        head = write_archive(tmp_path / "batch.rpbt", {"run/rho/tac": comp})
        shape1 = tuple(comp.meta["shapes"][1])
        rois = [
            tuple((0, min(6, s)) for s in shape1),
            tuple((s // 2, s) for s in shape1),
            ((1, 5), (0, shape1[1]), (3, 7)),
        ]
        with ArchiveReader(head) as reader:
            for roi in rois:
                data, stats = reader.read_region("run/rho/tac", 1, roi)
                expected = codec.decompress_region(comp, 1, roi)
                np.testing.assert_array_equal(data, expected)
                assert stats.bytes_served == expected.nbytes
                assert data.flags["C_CONTIGUOUS"]

    def test_repeat_reads_hit_cache_and_fetch_less(self, tmp_path, tac_blob):
        codec, comp = tac_blob
        head = write_archive(tmp_path / "batch.rpbt", {"k": comp})
        shape1 = tuple(comp.meta["shapes"][1])
        roi = tuple((0, min(8, s)) for s in shape1)
        with ArchiveReader(head) as reader:
            _, cold = reader.read_region("k", 1, roi)
            _, warm = reader.read_region("k", 1, roi)
            assert cold.cache_hits == 0 and cold.cache_misses > 0
            assert warm.cache_hits > 0 and warm.cache_misses == 0
            assert warm.bytes_fetched < cold.bytes_fetched
            assert reader.cache.hit_rate() > 0

    def test_read_level_matches_full_decompress(self, tmp_path, tac_blob):
        codec, comp = tac_blob
        head = write_archive(tmp_path / "batch.rpbt", {"k": comp})
        full = codec.decompress(comp)
        with ArchiveReader(head) as reader:
            for level in range(len(full.levels)):
                lvl, stats = reader.read_level("k", level)
                np.testing.assert_array_equal(lvl.data, full.levels[level].data)
                assert stats.bytes_served == full.levels[level].data.nbytes

    def test_concurrent_overlapping_requests(self, tmp_path, tac_blob):
        codec, comp = tac_blob
        head = write_archive(tmp_path / "batch.rpbt", {"k": comp})
        shape1 = tuple(comp.meta["shapes"][1])
        roi_a = tuple((0, min(8, s)) for s in shape1)
        roi_b = tuple((2, min(10, s)) for s in shape1)
        requests = [("k", 1, roi_a), ("k", 1, roi_b)] * 6
        with ArchiveReader(head, request_workers=4) as reader:
            results = reader.read_many(requests)
            expected_a = codec.decompress_region(comp, 1, roi_a)
            expected_b = codec.decompress_region(comp, 1, roi_b)
            for (data, _stats), (_k, _lvl, roi) in zip(results, requests):
                expected = expected_a if roi is roi_a else expected_b
                np.testing.assert_array_equal(data, expected)
            agg = reader.stats()
            assert agg["n_requests"] == len(requests)
            assert agg["cache"]["hits"] > 0
            assert agg["bytes_fetched"] < agg["bytes_served"]

    def test_cache_disabled_still_correct(self, tmp_path, tac_blob):
        codec, comp = tac_blob
        head = write_archive(tmp_path / "batch.rpbt", {"k": comp})
        shape1 = tuple(comp.meta["shapes"][1])
        roi = tuple((0, min(6, s)) for s in shape1)
        with ArchiveReader(head, cache_bytes=0) as reader:
            assert reader.cache is None
            data, _ = reader.read_region("k", 1, roi)
            _, warm = reader.read_region("k", 1, roi)
            np.testing.assert_array_equal(data, codec.decompress_region(comp, 1, roi))
            assert warm.cache_hits == 0
            assert reader.stats()["cache"] is None

    def test_flaky_shard_reads_recover(self, tmp_path, tac_blob):
        """Transient OSErrors from the transport are retried invisibly."""
        codec, comp = tac_blob
        head = write_archive(tmp_path / "batch.rpbt", {"k": comp})
        inner = default_shard_opener(head.parent)

        class Flaky:
            def __init__(self, src):
                self._src = src
                self._fail_next = True
                self.label = src.label

            def read_at(self, offset, length):
                if self._fail_next:
                    self._fail_next = False
                    raise OSError("connection reset by peer")
                return self._src.read_at(offset, length)

            def close(self):
                self._src.close()

        shape1 = tuple(comp.meta["shapes"][1])
        roi = tuple((0, min(6, s)) for s in shape1)
        policy = RetryPolicy(attempts=3, base_delay=0.0)
        with ArchiveReader(
            head, shard_opener=lambda name: Flaky(inner(name)), retry=policy
        ) as reader:
            data, _ = reader.read_region("k", 1, roi)
            np.testing.assert_array_equal(data, codec.decompress_region(comp, 1, roi))
            assert reader.fetch_stats.snapshot()["read_retries"] >= 1

    def test_monolithic_codec_is_served_and_accounted_like_any_other(self, tmp_path):
        """zMesh's single interleaved stream is one box-less unit of the
        same serving path: fetched through the pipeline, accounted, and
        cached like a brick — a repeat fetches nothing."""
        codec = ZMeshCompressor()
        ds = two_level_dataset(seed=5)
        comp = codec.compress(ds, EB)
        head = write_archive(tmp_path / "batch.rpbt", {"k": comp})
        shape1 = tuple(comp.meta["shapes"][1])
        roi = tuple((0, min(6, s)) for s in shape1)
        with ArchiveReader(head) as reader:
            data, stats = reader.read_region("k", 1, roi)
            np.testing.assert_array_equal(data, codec.decompress_region(comp, 1, roi))
            assert stats.cache_hits == 0 and stats.cache_misses == len(comp.parts)
            assert stats.bytes_fetched >= len(comp.parts["stream"])
            assert stats.n_fetches >= 1 and stats.n_parts_fetched == len(comp.parts)
            data, stats = reader.read_region("k", 1, roi)
            np.testing.assert_array_equal(data, codec.decompress_region(comp, 1, roi))
            assert stats.cache_hits == len(comp.parts) and stats.bytes_fetched == 0

    def test_closed_reader_rejects_requests(self, tmp_path, tac_blob):
        codec, comp = tac_blob
        head = write_archive(tmp_path / "batch.rpbt", {"k": comp})
        reader = ArchiveReader(head)
        reader.close()
        reader.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            reader.read_region("k", 1, ((0, 4), (0, 4), (0, 4)))

    def test_fetch_stats_shared_with_opener(self, tmp_path, tac_blob):
        codec, comp = tac_blob
        head = write_archive(tmp_path / "batch.rpbt", {"k": comp})
        with ArchiveReader(head) as reader:
            assert isinstance(reader.fetch_stats, FetchStats)
            reader.read_level("k", 0)
            snap = reader.fetch_stats.snapshot()
            assert snap["opens"] == 1
            assert snap["bytes_fetched"] > 0


# ---------------------------------------------------------------------------
# local sources are read on the request thread, others on the I/O pool
# ---------------------------------------------------------------------------


class PassThroughSource:
    """Forwards reads to a local source but does not declare itself local,
    as an object-storage source would not."""

    def __init__(self, inner, delay: float = 0.0):
        self._inner = inner
        self._delay = delay
        self.label = inner.label

    def read_at(self, offset: int, length: int) -> bytes:
        time.sleep(self._delay)
        return self._inner.read_at(offset, length)

    def close(self) -> None:
        self._inner.close()


def _new_threads(before: set) -> list[str]:
    return sorted(t.name for t in set(threading.enumerate()) - before)


class TestLocalFetchesInline:
    #: Unaligned to the 8³ bricks on every axis: 27 bricks in several windows.
    ROI = ((3, 19), (5, 21), (9, 25))

    @pytest.fixture(scope="class")
    def bricked(self, tmp_path_factory):
        comp = TACCompressor(brick_size=8).compress(
            make_dataset("Run1_Z3", scale=16), EB, mode="abs"
        )
        head = write_archive(tmp_path_factory.mktemp("inline") / "batch.rpbt", {"k": comp})
        return head, TACCompressor(brick_size=8).decompress_region(comp, 0, self.ROI)

    def read(self, head, shard_opener=None, **options):
        before = set(threading.enumerate())
        with ArchiveReader(head, shard_opener=shard_opener, **options) as reader:
            data, stats = reader.read_region("k", 0, self.ROI)
            return data, stats, _new_threads(before)

    def pass_through(self, head, delay: float = 0.0):
        inner = default_shard_opener(head.parent)
        return lambda name: PassThroughSource(inner(name), delay)

    def test_local_sources_declare_it_and_wrappers_pass_it_through(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(64))
        sources = [make_source(bytes(64)), make_source(path)]
        for src in sources:
            wrapped = retrying_opener(lambda _name, src=src: src, stats=FetchStats())("s")
            assert src.local and wrapped.local and LazyPartStore(wrapped, {}).local
            src.close()
        assert not LazyPartStore(PassThroughSource(make_source(bytes(8))), {}).local
        assert not LazyPartStore(CountingSource(bytes(8)), {}).local

    def test_default_reader_fetches_on_the_request_thread(self, bricked):
        head, expected = bricked
        data, stats, started = self.read(head)
        np.testing.assert_array_equal(data, expected)
        assert not [name for name in started if name.startswith("serve-io")]
        assert stats.n_fetches > 1 and not stats.overlapped

    def test_inline_and_pooled_reads_fetch_the_same(self, bricked, monkeypatch):
        head, expected = bricked
        for gap in (0, 4096):
            monkeypatch.setattr(prefetch, "COALESCE_GAP", gap)
            local, local_stats, _ = self.read(head)
            pooled, pooled_stats, _ = self.read(head, self.pass_through(head))
            np.testing.assert_array_equal(local, pooled)
            np.testing.assert_array_equal(local, expected)
            for field_name in ("n_fetches", "bytes_fetched", "n_parts_fetched"):
                assert getattr(local_stats, field_name) == getattr(pooled_stats, field_name)

    def test_pass_through_reader_fetches_on_the_pool_and_overlaps(self, bricked, monkeypatch):
        monkeypatch.setattr(prefetch, "IO_WORKERS", 1)
        monkeypatch.setattr(prefetch, "COALESCE_GAP", 0)
        head, expected = bricked
        data, stats, started = self.read(head, self.pass_through(head, delay=0.01))
        np.testing.assert_array_equal(data, expected)
        assert started == ["serve-io_0"]
        assert stats.n_fetches > 1 and stats.overlapped

    def test_deadline_expiring_mid_request_fails_unstarted_items(self, monkeypatch):
        """A local store checks the deadline before every window too: the
        windows after a slow item are never read, and their items fail."""
        monkeypatch.setattr(prefetch, "IO_WORKERS", 2)
        monkeypatch.setattr(prefetch, "COALESCE_GAP", 0)
        store = LazyPartStore(
            make_source(bytes(1024)), {"a": (0, 32), "b": (256, 32), "c": (512, 32)}
        )

        def slow_a():
            time.sleep(0.3)
            return store["a"]

        units = [DecodeUnit(key="a", level=0, part_names=("a",), decode=slow_a)] + [
            DecodeUnit(key=k, level=0, part_names=(k,), decode=lambda k=k: store[k])
            for k in "bc"
        ]
        before = set(threading.enumerate())
        with PrefetchPipeline() as pipeline:
            results, stats = pipeline.execute(store, units, deadline=0.1, allow_partial=True)
            started = _new_threads(before)
            with pytest.raises(DeadlineExceeded, match="2 fetch window"):
                pipeline.execute(store, units, deadline=0.1)
        assert results == {"a": bytes(32)} and stats.deadline_hit
        assert set(stats.unit_errors) == {"b", "c"}
        assert all(isinstance(e, DeadlineExceeded) for e in stats.unit_errors.values())
        assert stats.n_fetches == 1 and store.bytes_read == 64  # `a`, once per request
        assert started == [] and store._staged == {}


# ---------------------------------------------------------------------------
# lifecycle regressions surfaced by reprolint (RL001/RL002/RL004)
# ---------------------------------------------------------------------------


class TestArchiveReaderInitFailure:
    def test_failed_init_closes_opened_archive(self, tmp_path, tac_blob, monkeypatch):
        """RL002: ArchiveReader.__init__ opens the archive first; a bad
        request-pool parameter afterwards must not leak its shard handles."""
        codec, comp = tac_blob
        head = write_archive(tmp_path / "batch.rpbt", {"k": comp})
        closed: list[int] = []
        real_close = LazyBatchArchive.close

        def spy_close(self):
            closed.append(id(self))
            return real_close(self)

        monkeypatch.setattr(LazyBatchArchive, "close", spy_close)
        with pytest.raises(ValueError, match="request_workers"):
            ArchiveReader(head, request_workers=0)
        assert closed, "archive opened by __init__ was not closed on failure"

    @pytest.mark.parametrize("deadline", [-1, 0])
    def test_non_positive_default_deadline_is_rejected(
        self, tmp_path, tac_blob, monkeypatch, deadline
    ):
        """It used to be accepted, and then every request failed."""
        codec, comp = tac_blob
        head = write_archive(tmp_path / "batch.rpbt", {"k": comp})
        closed: list[int] = []
        real_close = LazyBatchArchive.close
        monkeypatch.setattr(
            LazyBatchArchive, "close", lambda self: closed.append(id(self)) or real_close(self)
        )
        with pytest.raises(ValueError, match="default_deadline"):
            ArchiveReader(head, default_deadline=deadline)
        assert closed, "archive opened by __init__ was not closed on failure"


class TestAccessLogLocking:
    def test_n_reads_and_accessed_take_the_log_lock(self):
        """RL001: access_counts is mutated under _log_lock by readers on
        other threads; the accounting views must snapshot under it too."""
        src = CountingSource(bytes(256))
        store = LazyPartStore(src, {"a": (0, 16)})

        class RecordingLock:
            def __init__(self, inner):
                self._inner = inner
                self.entries = 0

            def __enter__(self):
                self.entries += 1
                return self._inner.__enter__()

            def __exit__(self, *exc):
                return self._inner.__exit__(*exc)

        recording = RecordingLock(store._log_lock)
        store._log_lock = recording
        _ = store["a"]
        before = recording.entries
        assert store.n_reads == 1
        assert store.accessed() == {"a"}
        assert recording.entries >= before + 2, (
            "n_reads/accessed read access_counts without holding _log_lock"
        )


class TestDeadlineStragglers:
    def _gated_store(self, gate: threading.Event, started: threading.Event):
        payload = bytes(512)

        class GatedSource:
            label = "<gated>"

            def read_at(self, offset: int, length: int) -> bytes:
                started.set()
                if not gate.wait(timeout=10):
                    raise RuntimeError("test gate never opened")
                return payload[offset : offset + length]

            def close(self) -> None:
                pass

        return LazyPartStore(GatedSource(), {"a": (0, 32)})

    def test_fetch_straggler_is_reaped_after_deadline(self, monkeypatch):
        """RL004 shape: cancel() on a running fetch is a no-op — the
        straggler must still have its exception retrieved and its
        late-staged payloads discarded once it lands."""
        monkeypatch.setattr(prefetch, "IO_WORKERS", 1)
        monkeypatch.setattr(prefetch, "COALESCE_GAP", 0)
        gate = threading.Event()
        started = threading.Event()
        store = self._gated_store(gate, started)
        units = [
            DecodeUnit(key="a", level=0, part_names=("a",), decode=lambda: store["a"])
        ]
        with PrefetchPipeline() as pipeline:
            results, stats = pipeline.execute(
                store, units, deadline=0.3, allow_partial=True
            )
            assert started.is_set(), "fetch never started before the deadline"
            assert results == {}
            assert stats.deadline_hit
            assert "a" in stats.unit_errors
            gate.set()
        # close() joins the pools, so the straggler (and its done-callback)
        # has finished by here.
        assert stats.n_stragglers == 1
        assert store._staged == {}, "straggler left staged payloads behind"

    DEADLINE = 0.2

    def _slow_first_item(self):
        """Three one-part windows: ``a`` lands at once and its item decodes
        for 0.5 s; ``b`` and ``c`` land 0.1 s in, while ``a`` is running."""

        class LaterWindowsLag(CountingSource):
            def read_at(self, offset, length):
                if offset:
                    time.sleep(0.1)
                return super().read_at(offset, length)

        store = LazyPartStore(
            LaterWindowsLag(bytes(1024)), {"a": (0, 32), "b": (256, 32), "c": (512, 32)}
        )
        span = {}

        def slow_a():
            span["start"] = time.perf_counter()
            time.sleep(0.5)
            span["end"] = time.perf_counter()
            return store["a"]

        units = [DecodeUnit(key="a", level=0, part_names=("a",), decode=slow_a)] + [
            DecodeUnit(key=k, level=0, part_names=(k,), decode=lambda k=k: store[k])
            for k in "bc"
        ]
        return store, units, span

    def test_running_item_finishes_and_the_rest_fail_when_partial(self, monkeypatch):
        """A deadline cannot interrupt a running item: it finishes and keeps
        its result, every item not yet started fails with DeadlineExceeded,
        and the request overruns the deadline by at most that one item."""
        monkeypatch.setattr(prefetch, "IO_WORKERS", 3)
        monkeypatch.setattr(prefetch, "COALESCE_GAP", 0)
        store, units, span = self._slow_first_item()
        with PrefetchPipeline() as pipeline:
            t0 = time.perf_counter()
            results, stats = pipeline.execute(
                store, units, deadline=self.DEADLINE, allow_partial=True
            )
            wall = time.perf_counter() - t0
        assert span["start"] - t0 < self.DEADLINE, "slow item never started in time"
        assert results == {"a": bytes(32)}
        assert stats.deadline_hit
        assert set(stats.unit_errors) == {"b", "c"}
        assert all(isinstance(e, DeadlineExceeded) for e in stats.unit_errors.values())
        assert wall <= self.DEADLINE + (span["end"] - span["start"]) + 0.1
        assert store._staged == {}

    def test_running_item_finishes_then_the_request_raises(self, monkeypatch):
        monkeypatch.setattr(prefetch, "IO_WORKERS", 3)
        monkeypatch.setattr(prefetch, "COALESCE_GAP", 0)
        store, units, span = self._slow_first_item()
        with PrefetchPipeline() as pipeline:
            t0 = time.perf_counter()
            with pytest.raises(DeadlineExceeded, match="1 of 3 decode"):
                pipeline.execute(store, units, deadline=self.DEADLINE)
            raised = time.perf_counter()
        assert span["start"] - t0 < self.DEADLINE, "slow item never started in time"
        assert raised >= span["end"], "raised while the running item was interrupted"
        assert raised - t0 <= self.DEADLINE + (span["end"] - span["start"]) + 0.1
        assert store._staged == {}
