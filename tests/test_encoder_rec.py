"""Encoder-side reconstruction ≡ decode, at the TAC and the session layer.

``compress_iter(want_recon=True)`` hands out, per level, the stored-cell
values a reader decodes from the parts just written — taken from the SZ
encoder's own reconstruction, with nothing decoded — and
:class:`IngestSession` closes its temporal loop on that.  Bit-identity with
the decode is what keeps every golden in place and makes a chain readable
the same whichever way its ``rec`` was obtained.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.container import CompressedDataset
from repro.core.tac import TACCompressor
from repro.engine.archive import ShardedArchiveWriter
from repro.ingest import IngestConfig, IngestSession
from repro.sz import compressor as sz_compressor
from repro.sz.compressor import SZCompressor
from tests.test_ingest import EB, archive_entries, timestep_series
from tests.test_partial_decode import READ_CASES, RETIRED_LAYOUTS

#: The ``TestOneReadPath`` cases TAC writes level-wise today.
TAC_CASES = sorted(
    name for name, (_c, _d, codec) in READ_CASES.items()
    if codec == "tac" and name not in RETIRED_LAYOUTS
)


def assert_same_values(chunk, decoded):
    """``chunk.rec`` is the decoded level's stored-cell values, bit for bit."""
    assert chunk.level == decoded.level
    want = decoded.data[decoded.mask]
    assert chunk.rec.dtype == want.dtype and chunk.rec.shape == want.shape
    assert chunk.rec.tobytes() == want.tobytes()


class TestLevelChunkRec:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "variant", [{}, {"per_level_scale": (0.5, 2.0)}, {"store_masks": False}],
        ids=["default", "per-level-scale", "no-stored-masks"],
    )
    @pytest.mark.parametrize("name", TAC_CASES)
    def test_rec_is_the_decode_of_the_chunk(self, name, variant, threads, monkeypatch):
        monkeypatch.setattr(sz_compressor, "ENCODE_THREADS", threads)
        make_codec, make_dataset, _registry = READ_CASES[name]
        variant = dict(variant)
        codec = make_codec()
        if "store_masks" in variant:
            config = dataclasses.replace(codec.config, store_masks=variant.pop("store_masks"))
            codec = TACCompressor(config)
        dataset = make_dataset()
        kwargs = dict(mode="abs", **variant)

        plain = list(codec.compress_iter(dataset, EB, **kwargs))
        stream = codec.compress_iter(dataset, EB, want_recon=True, **kwargs)
        chunks = list(stream)
        comp = CompressedDataset(
            method=stream.method,
            dataset_name=stream.dataset_name,
            parts={name: blob for chunk in chunks for name, blob in chunk.parts.items()},
            meta=stream.meta,
        )
        assert [c.level for c in chunks] == list(range(dataset.n_levels))
        for chunk, reference in zip(chunks, plain):
            assert reference.rec is None
            assert chunk.parts == reference.parts and chunk.meta == reference.meta
            assert list(chunk.parts) == list(reference.parts)  # wire order
            assert_same_values(
                chunk, codec.decompress_level(comp, chunk.level, structure=dataset)
            )

    def test_delegated_entry_has_no_rec(self):
        make_codec, make_dataset, _registry = READ_CASES["delegate"]
        (chunk,) = make_codec().compress_iter(make_dataset(), EB, mode="abs", want_recon=True)
        assert chunk.level is None and chunk.rec is None

    def test_source_dataset_is_left_alone(self):
        make_codec, make_dataset, _registry = READ_CASES["gsp-bricks"]
        dataset, pristine = make_dataset(), make_dataset()
        list(make_codec().compress_iter(dataset, EB, mode="abs", want_recon=True))
        for lvl, want in zip(dataset.levels, pristine.levels):
            assert np.array_equal(lvl.data, want.data) and np.array_equal(lvl.mask, want.mask)


class TestSessionClosesTheLoopOnTheEncoder:
    def test_tac_delta_session_never_decodes(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a TAC ingest session must not decode what it wrote")

        monkeypatch.setattr(SZCompressor, "decompress_many", refuse)
        cfg = IngestConfig(error_bound=EB, keyframe_interval=3)
        with IngestSession(tmp_path / "series.rpbt", cfg) as session:
            session.extend(timestep_series(3))
        modes = [row["temporal"]["mode"] for row in session.report.entries]
        assert modes == ["keyframe", "delta", "delta"]

    def test_no_rec_reaches_the_writer_and_bytes_do_not_depend_on_the_mode(
        self, tmp_path, monkeypatch
    ):
        """Each chunk's ``rec`` is detached as it streams by: buffered
        (pipelined) entries hold parts only, and sync / pipelined archives
        stay byte-identical."""
        seen = []
        real = ShardedArchiveWriter.add_entry_stream

        def spy(self, key, stream):
            def chunks():
                for chunk in stream:
                    seen.append(chunk.rec)
                    yield chunk

            proxy = _StreamProxy(stream, chunks())
            return real(self, key, proxy)

        monkeypatch.setattr(ShardedArchiveWriter, "add_entry_stream", spy)
        series = timestep_series(6)  # more than 2 * workers: submits block
        entries = {}
        for label, overrides in (("sync", {}), ("async", {"workers": 2})):
            head = tmp_path / f"{label}.rpbt"
            cfg = IngestConfig(error_bound=EB, keyframe_interval=3, **overrides)
            with IngestSession(head, cfg) as session:
                session.extend(series)
            entries[label] = archive_entries(head)
        assert entries["sync"] == entries["async"]
        assert len(seen) == 2 * 6 * series[0].n_levels and all(rec is None for rec in seen)


class _StreamProxy:
    """A chunk stream whose iteration is replaced, everything else passed on."""

    def __init__(self, stream, chunks):
        self._stream = stream
        self._chunks = chunks

    def __iter__(self):
        return self._chunks

    def __getattr__(self, name):
        return getattr(self._stream, name)
