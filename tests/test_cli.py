"""Unit tests for the command-line interface."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro.amr.io import load_dataset
from repro.cli import _percentile, main


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "z10.npz"
    code = main(["make", "Run1_Z10", "-o", str(path), "--scale", "8"])
    assert code == 0
    return path


#: A wrong-kind input per verb: what it cannot read.
WRONG_KIND = {
    "batch": "tac", "decompress": "npz", "info": "tac", "ingest": "tac", "inspect": "npz",
    "scrub": "npz", "serve": "tac",
}
READ_VERBS = ["decompress", "info", "inspect", "scrub", "serve"]


def output_args(verb, out):
    return ["-o", str(out)] if verb in ("batch", "decompress", "ingest") else []


@pytest.mark.parametrize("case", ["missing", "wrong kind"])
@pytest.mark.parametrize("verb", sorted(WRONG_KIND))
def test_missing_or_wrong_kind_input_is_one_error_line(verb, case, dataset_file, tmp_path, capsys):
    """Exit 2 and one ``error:`` line, never a traceback — so exit 1 keeps
    its meaning (``scrub`` found damage)."""
    blob = tmp_path / "z10.tac"
    assert main(["compress", str(dataset_file), "-o", str(blob)]) == 0
    inputs = {"npz": dataset_file, "tac": blob}
    path = tmp_path / "nope.rpbt" if case == "missing" else inputs[WRONG_KIND[verb]]
    out = tmp_path / "out.npz"
    capsys.readouterr()
    assert main([verb, str(path), *output_args(verb, out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(path) in err
    assert not out.exists()


def test_an_npz_that_is_no_amr_dataset_is_a_wrong_kind(dataset_file, tmp_path, capsys):
    """A level subset written by ``decompress --level`` is a zip, but has
    no dataset record: ``info`` names it, exit 2."""
    blob, levels = tmp_path / "z10.tac", tmp_path / "l0.npz"
    assert main(["compress", str(dataset_file), "-o", str(blob)]) == 0
    assert main(["decompress", str(blob), "-o", str(levels), "--level", "0"]) == 0
    capsys.readouterr()
    assert main(["info", str(levels)]) == 2
    assert capsys.readouterr().err == f"error: {levels} is a zip file, not an AMR .npz dataset\n"


BAD_OPTIONS = {
    "compress --eb -1": "--eb: error bound must be >= 0, got -1.0",
    "compress --eb inf": "--eb: error bound must be finite, got inf",
    "batch --eb -1": "--eb: error bound must be >= 0, got -1.0",
    "batch --eb nan": "--eb: error bound must be finite, got nan",
    "ingest --eb -1": "--eb: error bound must be >= 0, got -1.0",
    "ingest --eb nan": "--eb: error bound must be finite, got nan",
    "batch --workers 0": "workers must be a positive integer, got 0",
    "ingest --workers 0": "workers must be a positive integer, got 0",
    "ingest --keyframe-interval 0": "keyframe_interval must be a positive integer, got 0",
}


@pytest.mark.parametrize("command", list(BAD_OPTIONS))
def test_a_bad_option_value_is_one_error_line(command, dataset_file, tmp_path, capsys, monkeypatch):
    """The value as typed (not a ``rel`` bound's resolved absolute one),
    told before any dataset loads or encodes: exit 2, nothing written."""

    def no_load(*_args, **_kwargs):
        raise AssertionError("the dataset loaded before the option was checked")

    monkeypatch.setattr("repro.cli.load_dataset", no_load)
    monkeypatch.setattr("repro.cli.peek_meta", no_load)
    verb, *option = command.split()
    out = tmp_path / ("out.tac" if verb == "compress" else "out.rpbt")
    assert main([verb, str(dataset_file), "-o", str(out), *option]) == 2
    assert capsys.readouterr().err == f"error: {BAD_OPTIONS[command]}\n"
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("verb, kind", [
    (verb, kind) for verb in READ_VERBS for kind in ("archive", "blob")
    if kind == "archive" or verb not in ("info", "serve")  # they read no blobs
])
def test_a_truncated_input_is_damage_in_one_error_line(verb, kind, dataset_file, tmp_path, capsys):
    """The right kind whose head does not parse: exit 1, as for any failed
    work (for ``scrub``: damage found), and one ``error:`` line."""
    whole = tmp_path / ("z10.rpbt" if kind == "archive" else "z10.tac")
    assert main(["batch" if kind == "archive" else "compress",
                 str(dataset_file), "-o", str(whole)]) == 0
    path = tmp_path / f"cut-{whole.name}"
    path.write_bytes(whole.read_bytes()[:20])
    out = tmp_path / "out.npz"
    capsys.readouterr()
    assert main([verb, str(path), *output_args(verb, out)]) == 1
    assert capsys.readouterr().err == f"error: {path} is damaged: short read (corrupt or truncated file)\n"
    assert not out.exists()


class TestMakeInfo:
    def test_make_writes_loadable_dataset(self, dataset_file):
        ds = load_dataset(dataset_file)
        assert ds.name == "Run1_Z10"
        ds.validate()

    def test_make_rejects_unknown_dataset(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["make", "NotADataset", "-o", str(tmp_path / "x.npz")])

    def test_info_prints_summary(self, dataset_file, capsys):
        assert main(["info", str(dataset_file)]) == 0
        out = capsys.readouterr().out
        assert "Run1_Z10" in out
        assert "level 0" in out and "level 1" in out
        assert "density" in out

    def test_make_with_field_and_seed(self, tmp_path):
        path = tmp_path / "temp.npz"
        assert main([
            "make", "Run2_T2", "-o", str(path), "--scale", "8",
            "--field", "temperature", "--seed", "5",
        ]) == 0
        assert load_dataset(path).field == "temperature"


class TestCompressDecompress:
    @pytest.mark.parametrize("method", ["tac", "1d", "zmesh", "3d"])
    def test_roundtrip_every_method(self, dataset_file, tmp_path, method, capsys):
        archive = tmp_path / f"{method}.tac"
        restored_path = tmp_path / f"{method}.npz"
        assert main([
            "compress", str(dataset_file), "-o", str(archive),
            "--eb", "1e-3", "--method", method,
        ]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        assert main(["decompress", str(archive), "-o", str(restored_path)]) == 0

        original = load_dataset(dataset_file)
        restored = load_dataset(restored_path)
        assert restored.n_levels == original.n_levels
        for a, b in zip(original.levels, restored.levels):
            assert np.array_equal(a.mask, b.mask)
            vals = np.concatenate([l.values() for l in original.levels])
            eb_abs = 1e-3 * (vals.max() - vals.min())
            assert np.max(np.abs(a.values() - b.values())) <= eb_abs * 1.001

    def test_per_level_scales(self, dataset_file, tmp_path):
        archive = tmp_path / "scaled.tac"
        assert main([
            "compress", str(dataset_file), "-o", str(archive),
            "--eb", "1e-3", "--level-scale", "3", "1",
        ]) == 0

    def test_lorenzo_predictor_option(self, dataset_file, tmp_path):
        archive = tmp_path / "lor.tac"
        assert main([
            "compress", str(dataset_file), "-o", str(archive),
            "--predictor", "lorenzo",
        ]) == 0

    def test_hybrid_method(self, dataset_file, tmp_path):
        archive = tmp_path / "hyb.tac"
        assert main([
            "compress", str(dataset_file), "-o", str(archive),
            "--method", "tac-hybrid",
        ]) == 0

    @pytest.mark.parametrize("size", ["0", "-4"])
    def test_retired_brick_size_spelling_fails_before_the_dataset_loads(
        self, size, tmp_path, capsys
    ):
        """``--brick-size 0`` selected the retired single-stream writer:
        one ``error:`` line, exit 2 — and no attempt to read the input."""
        code = main([
            "compress", str(tmp_path / "never-read.npz"), "-o", str(tmp_path / "x.tac"),
            "--brick-size", size,
        ])
        err = capsys.readouterr().err
        assert code == 2 and not (tmp_path / "x.tac").exists()
        assert err.startswith("error: --brick-size") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["compress", "batch"])
    def test_shared_tables_flag_is_gone(self, verb, dataset_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, str(dataset_file), "-o", str(tmp_path / "x"), "--shared-tables"])
        assert exit_info.value.code == 2
        assert "--shared-tables" in capsys.readouterr().err

    def test_decompress_garbage_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.tac"
        bad.write_bytes(b"junk")
        assert main(["decompress", str(bad), "-o", str(tmp_path / "out.npz")]) == 2
        assert "is of no known kind" in capsys.readouterr().err


class TestBatchCommand:
    @pytest.fixture
    def second_file(self, tmp_path):
        path = tmp_path / "t2.npz"
        assert main(["make", "Run2_T2", "-o", str(path), "--scale", "16"]) == 0
        return path

    def test_level_workers_flag_is_gone(self, dataset_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", str(dataset_file), "-o", str(tmp_path / "x.rpbt"),
                  "--level-workers", "2"])
        assert exit_info.value.code == 2
        assert "--level-workers" in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_batch_compress_info_extract(self, dataset_file, second_file, tmp_path, capsys):
        archive = tmp_path / "batch.rpbt"
        assert main([
            "batch", str(dataset_file), str(second_file), "-o", str(archive),
            "--eb", "1e-3", "--workers", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 entries" in out and "ratio" in out

        assert main(["info", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "batch archive" in out and "z10/baryon_density/tac" in out

        restored_path = tmp_path / "back.npz"
        assert main([
            "decompress", str(archive), "-o", str(restored_path),
            "--key", "z10/baryon_density/tac",
        ]) == 0
        original = load_dataset(dataset_file)
        restored = load_dataset(restored_path)
        assert restored.n_levels == original.n_levels
        vals = np.concatenate([l.values() for l in original.levels])
        eb_abs = 1e-3 * (vals.max() - vals.min())
        for a, b in zip(original.levels, restored.levels):
            assert np.array_equal(a.mask, b.mask)
            assert np.max(np.abs(a.values() - b.values())) <= eb_abs * 1.001

    def test_batch_matches_single_compress_bitwise(self, dataset_file, tmp_path):
        from repro.engine import LazyBatchArchive
        from repro.core.container import CompressedDataset

        single = tmp_path / "single.tac"
        archive = tmp_path / "batch.rpbt"
        assert main([
            "compress", str(dataset_file), "-o", str(single), "--eb", "1e-3",
        ]) == 0
        assert main([
            "batch", str(dataset_file), "-o", str(archive),
            "--eb", "1e-3", "--workers", "2",
        ]) == 0
        with LazyBatchArchive.open(archive) as lazy:
            entry = lazy.entry("z10/baryon_density/tac").materialize()
        assert entry.to_bytes() == CompressedDataset.from_bytes(
            single.read_bytes()
        ).to_bytes()

    def test_decompress_multi_entry_needs_key(self, dataset_file, second_file, tmp_path, capsys):
        archive = tmp_path / "batch.rpbt"
        assert main([
            "batch", str(dataset_file), str(second_file), "-o", str(archive),
        ]) == 0
        capsys.readouterr()
        assert main(["decompress", str(archive), "-o", str(tmp_path / "x.npz")]) == 2
        assert "--key" in capsys.readouterr().err

    def test_decompress_single_entry_key_optional(self, dataset_file, tmp_path):
        archive = tmp_path / "one.rpbt"
        assert main(["batch", str(dataset_file), "-o", str(archive)]) == 0
        out = tmp_path / "back.npz"
        assert main(["decompress", str(archive), "-o", str(out)]) == 0
        assert load_dataset(out).name == "Run1_Z10"


    def test_duplicate_labels_get_unique_suffixes(self, dataset_file, tmp_path, capsys):
        """Two inputs with one stem and field: the second key gets ``#1``."""
        from repro.engine import LazyBatchArchive

        other = tmp_path / "b" / dataset_file.name
        other.parent.mkdir()
        other.write_bytes(dataset_file.read_bytes())
        archive = tmp_path / "dup.rpbt"
        assert main(["batch", str(dataset_file), str(other), "-o", str(archive)]) == 0
        assert "2 entries" in capsys.readouterr().out
        with LazyBatchArchive.open(archive) as lazy:
            assert lazy.keys() == ["z10/baryon_density/tac", "z10/baryon_density/tac#1"]
            first, second = (lazy.decompress(key) for key in lazy.keys())
        for a, b in zip(first.levels, second.levels):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("flag", ["--stream", "--profile", "--executor=thread"])
    def test_engine_era_flags_are_gone(self, flag, dataset_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["batch", str(dataset_file), "-o", str(tmp_path / "x.rpbt"), flag])
        assert exit_info.value.code == 2
        assert flag.split("=")[0] in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    def test_failed_batch_writes_nothing(self, dataset_file, tmp_path, capsys):
        # Labelled from its metadata record, then fails to load in the worker.
        bad = tmp_path / "bad.npz"
        with np.load(dataset_file) as arrays:
            np.savez(bad, __meta__=arrays["__meta__"])
        archive = tmp_path / "half.rpbt"
        assert main(["batch", str(dataset_file), str(bad), "-o", str(archive)]) == 1
        assert "no archive written" in capsys.readouterr().err
        assert not list(tmp_path.glob("half.*"))


class TestIngestCommand:
    def test_workers_alone_start_the_encoder_pool(self, tmp_path, monkeypatch):
        """``--workers N`` alone pipelines the session, buffering ``2N``
        entries."""
        from repro.ingest import IngestSession

        bounds = []
        real_drain = IngestSession._drain

        def spy_drain(self, max_pending):
            bounds.append(max_pending)
            real_drain(self, max_pending)

        monkeypatch.setattr(IngestSession, "_drain", spy_drain)
        assert main([
            "ingest", "--sim", "Run1_Z10", "--steps", "2", "--scale", "16",
            "--keyframe-interval", "2", "-o", str(tmp_path / "s.rpbt"), "--workers", "2",
        ]) == 0
        assert bounds == [4, 4, 0]

    def test_inspect_prints_each_entrys_temporal_record(self, tmp_path, capsys):
        head = tmp_path / "s.rpbt"
        assert main([
            "ingest", "--sim", "Run1_Z10", "--steps", "3", "--scale", "16",
            "--keyframe-interval", "3", "-o", str(head),
        ]) == 0
        capsys.readouterr()
        # _check_no_payload_reads runs inside: the line costs no payload read.
        assert main(["inspect", str(head)]) == 0
        out = capsys.readouterr().out
        keys = [f"Run1_Z10/baryon_density/t000{t}" for t in range(3)]
        blocks = [out.split(f"{key}:")[1] for key in keys]
        assert "  temporal -> keyframe\n" in blocks[0].split(f"{keys[1]}:")[0]
        assert f"  temporal -> delta of {keys[0]} (keyframe {keys[0]})\n" in blocks[1]
        assert f"  temporal -> delta of {keys[1]} (keyframe {keys[0]})\n" in blocks[2]
        assert out.count("temporal -> ") == 3

class TestShardedBatchCommand:
    @pytest.fixture
    def second_file(self, tmp_path):
        path = tmp_path / "t2.npz"
        assert main(["make", "Run2_T2", "-o", str(path), "--scale", "16"]) == 0
        return path

    def test_streamed_batch_writes_head_and_shards(
        self, dataset_file, second_file, tmp_path, capsys
    ):
        head = tmp_path / "batch.rpbt"
        assert main([
            "batch", str(dataset_file), str(second_file), "-o", str(head),
            "--eb", "1e-3", "--workers", "2", "--shard-size", "1K",
        ]) == 0
        out = capsys.readouterr().out
        assert "payload shard(s)" in out and "(head)" in out
        shards = sorted(tmp_path.glob("batch.shard-*.rpsh"))
        assert len(shards) == 2  # one entry per 1K shard at this scale

        assert main(["info", str(head)]) == 0
        out = capsys.readouterr().out
        assert "sharded batch archive" in out and "crc32" in out

        assert main(["inspect", str(head)]) == 0
        out = capsys.readouterr().out
        assert "batch archive v3" in out
        assert "shard batch.shard-0000.rpsh" in out

    def test_streamed_entries_bitwise_match_monolithic(self, dataset_file, tmp_path):
        """The CLI's sharded entries are the codec's own bytes."""
        from repro.engine import LazyBatchArchive, get_codec

        head = tmp_path / "sharded.rpbt"
        assert main(["batch", str(dataset_file), "-o", str(head), "--eb", "1e-3"]) == 0
        comp = get_codec("tac").compress(load_dataset(dataset_file), 1e-3)
        with LazyBatchArchive.open(head) as lazy:
            assert lazy.keys() == ["z10/baryon_density/tac"]
            assert lazy.entry("z10/baryon_density/tac").materialize().parts == comp.parts

    def test_decompress_whole_and_one_level_from_sharded(self, dataset_file, tmp_path, capsys):
        head = tmp_path / "sharded.rpbt"
        assert main([
            "batch", str(dataset_file), "-o", str(head), "--eb", "1e-3",
        ]) == 0
        capsys.readouterr()
        back = tmp_path / "back.npz"
        assert main(["decompress", str(head), "-o", str(back)]) == 0
        restored = load_dataset(back)
        assert restored.name == "Run1_Z10"
        extracted = tmp_path / "lvl.npz"
        assert main([
            "decompress", str(head), "--key", "z10/baryon_density/tac",
            "--level", "1", "-o", str(extracted),
        ]) == 0
        out = capsys.readouterr().out
        assert "parts read" in out

    def test_bad_shard_size_rejected(self, dataset_file, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([
                "batch", str(dataset_file), "-o", str(tmp_path / "x.rpbt"),
                "--shard-size", "zero",
            ])
        assert "invalid size" in capsys.readouterr().err

    def test_codecs_lists_registry(self, capsys):
        assert main(["codecs"]) == 0
        out = capsys.readouterr().out
        for name in ("tac", "tac-hybrid", "1d", "zmesh", "3d"):
            assert name in out


class TestPartialDecompress:
    """``decompress --level`` / ``--region``: a level subset or an ROI of
    one entry, decoding only the parts it needs."""

    @pytest.fixture
    def archive(self, dataset_file, tmp_path):
        path = tmp_path / "z10.tac"
        assert main([
            "compress", str(dataset_file), "-o", str(path), "--eb", "1e-3",
        ]) == 0
        return path

    def test_level_matches_full_decompress(self, dataset_file, archive, tmp_path, capsys):
        out = tmp_path / "lvl0.npz"
        assert main([
            "decompress", str(archive), "-o", str(out), "--level", "0",
        ]) == 0
        stdout = capsys.readouterr().out
        assert "parts read" in stdout

        full = tmp_path / "full.npz"
        assert main(["decompress", str(archive), "-o", str(full)]) == 0
        reference = load_dataset(full)
        with np.load(out) as arrays:
            data = arrays["data_0"]
            size = int(np.prod(data.shape))
            mask = np.unpackbits(arrays["mask_0"])[:size].astype(bool).reshape(data.shape)
        assert np.array_equal(data, reference.levels[0].data)
        assert np.array_equal(mask, reference.levels[0].mask)

    def test_region_matches_sliced_full(self, archive, tmp_path):
        out = tmp_path / "roi.npz"
        assert main([
            "decompress", str(archive), "-o", str(out),
            "--level", "0", "--region", "2:10,0:7,5:16",
        ]) == 0
        full = tmp_path / "full.npz"
        assert main(["decompress", str(archive), "-o", str(full)]) == 0
        reference = load_dataset(full)
        with np.load(out) as arrays:
            data = arrays["data"]
            assert int(arrays["level"]) == 0
        assert np.array_equal(
            data, reference.levels[0].data[2:10, 0:7, 5:16]
        )

    def test_level_from_batch_archive_key(self, dataset_file, tmp_path):
        batch = tmp_path / "b.rpbt"
        assert main(["batch", str(dataset_file), "-o", str(batch), "--eb", "1e-3"]) == 0
        out = tmp_path / "lvl1.npz"
        assert main([
            "decompress", str(batch), "-o", str(out),
            "--key", "z10/baryon_density/tac", "--level", "1",
        ]) == 0
        assert "data_1" in np.load(out)

    def test_region_needs_one_level(self, archive, tmp_path, capsys):
        assert main([
            "decompress", str(archive), "-o", str(tmp_path / "x.npz"),
            "--region", "0:4,0:4,0:4",
        ]) == 2
        assert "--level" in capsys.readouterr().err

    def test_bad_region_spec(self, archive, tmp_path, capsys):
        assert main([
            "decompress", str(archive), "-o", str(tmp_path / "x.npz"),
            "--level", "0", "--region", "0:4,0:4",
        ]) == 2
        assert "region" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "request_args, told",
        [
            (["--level", "7"], "level indices [7] out of range"),
            (["--level", "0", "--level", "-1"], "level indices [-1] out of range"),
            (["--level", "0", "--region", "200:300,0:4,0:4"], "empty region on axis 0"),
            (["--level", "1", "--region", "0:4,6:2,0:4"], "empty region on axis 1"),
            (["--level", "9", "--region", "0:4,0:4,0:4"], "level indices [9] out of range"),
        ],
    )
    def test_a_level_or_region_the_entry_lacks_is_a_usage_error(
        self, archive, tmp_path, capsys, request_args, told
    ):
        """``error: ...`` and exit 2, not a ValueError traceback — and
        nothing written."""
        out = tmp_path / "x.npz"
        assert main(["decompress", str(archive), "-o", str(out), *request_args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and told in captured.err
        assert "Traceback" not in captured.err and not out.exists()

class TestInspectCommand:
    def test_inspect_single_blob(self, dataset_file, tmp_path, capsys):
        archive = tmp_path / "z10.tac"
        assert main([
            "compress", str(dataset_file), "-o", str(archive), "--eb", "1e-3",
        ]) == 0
        capsys.readouterr()
        assert main(["inspect", str(archive)]) == 0
        out = capsys.readouterr().out
        assert "container v5" in out
        assert "strategy" in out
        assert "mask/L0" in out

    def test_inspect_batch_archive(self, dataset_file, tmp_path, capsys):
        batch = tmp_path / "b.rpbt"
        assert main(["batch", str(dataset_file), "-o", str(batch)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(batch)]) == 0
        out = capsys.readouterr().out
        assert "batch archive v3" in out
        assert "z10/baryon_density/tac" in out

    def test_inspect_unknown_key(self, dataset_file, tmp_path, capsys):
        batch = tmp_path / "b.rpbt"
        assert main(["batch", str(dataset_file), "-o", str(batch)]) == 0
        capsys.readouterr()
        assert main(["inspect", str(batch), "--key", "nope"]) == 2
        assert "no entry" in capsys.readouterr().err


class TestServeCommand:
    @pytest.fixture
    def archive_file(self, dataset_file, tmp_path):
        path = tmp_path / "batch.rpbt"
        assert main([
            "batch", str(dataset_file), "-o", str(path), "--method", "tac",
        ]) == 0
        return path

    def test_serve_reports_latency_and_cache(self, archive_file, tmp_path, capsys):
        stats_path = tmp_path / "serve.json"
        assert main([
            "serve", str(archive_file), "--requests", "16", "--rois", "2",
            "--threads", "2", "--seed", "1", "--json", str(stats_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "served 16 requests" in out
        assert "cache hit rate" in out
        report = json.loads(stats_path.read_text())
        assert report["n_requests"] == 16
        assert report["cache"]["hit_rate"] > 0  # overlapping pool reuses bricks
        assert report["latency_p50"] <= report["latency_p99"]
        assert report["bytes_served"] > 0

    def test_serve_cache_disabled(self, archive_file, capsys):
        assert main([
            "serve", str(archive_file), "--requests", "4", "--rois", "2",
            "--cache-bytes", "0",
        ]) == 0
        assert "cache hit rate off" in capsys.readouterr().out

    def test_serve_unknown_key_fails(self, archive_file, capsys):
        assert main(["serve", str(archive_file), "--key", "nope"]) == 2
        assert "no entry" in capsys.readouterr().err

    def test_serve_bad_roi_frac_fails(self, archive_file, capsys):
        assert main(["serve", str(archive_file), "--roi-frac", "1.5"]) == 2
        assert "roi-frac" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, told",
        [
            ("--threads", "0", "request_workers must be a positive integer"),
            ("--deadline", "-1", "default_deadline must be positive"),
            ("--deadline", "0", "default_deadline must be positive"),
        ],
    )
    def test_serve_bad_reader_option_fails_cleanly(self, archive_file, capsys, flag, value, told):
        """The reader's own check, told as one ``error:`` line before any
        request runs."""
        assert main(["serve", str(archive_file), flag, value]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {told}, got {value if flag != '--deadline' else float(value)}\n"

    def test_serve_decode_workers_option_is_gone(self, archive_file):
        # Decode runs on the request threads; there is no decode pool to size.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(archive_file), "--decode-workers", "2"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag, value", [("--io-workers", "4"), ("--gap", "0")])
    def test_serve_io_pool_options_are_gone(self, archive_file, capsys, flag, value):
        # The fetch pool's size and the coalescing gap are module constants
        # (prefetch.IO_WORKERS / prefetch.COALESCE_GAP), not options.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", str(archive_file), flag, value])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_serve_chaos_transient_faults_absorbed(self, archive_file, tmp_path, capsys):
        stats_path = tmp_path / "chaos.json"
        assert main([
            "serve", str(archive_file), "--requests", "8", "--rois", "2",
            # Counted, not drawn: the 2nd and 3rd matched shard reads fail,
            # however the 8 requests' reads interleave, and no read can
            # meet both faults more often than its retries allow.
            "--chaos", "oserror:after=1,times=2",
            "--json", str(stats_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos:" in out
        report = json.loads(stats_path.read_text())
        assert report["chaos"]["spec"] == "oserror:after=1,times=2"
        assert report["chaos"]["n_fired"] >= 1
        assert report["n_failed"] == 0  # retries absorbed every transient

    def test_serve_chaos_degraded_bitflip_reports_fill_boxes(
        self, archive_file, tmp_path, capsys
    ):
        stats_path = tmp_path / "degr.json"
        assert main([
            "serve", str(archive_file), "--requests", "4", "--rois", "1",
            "--cache-bytes", "0", "--level", "0",
            "--chaos", "bitflip:match=*/L0/b*,times=1",
            "--degraded", "--deadline", "30",
            "--json", str(stats_path),
        ]) == 0
        report = json.loads(stats_path.read_text())
        assert report["n_failed"] == 0
        if report["chaos"]["n_fired"]:  # the ROI touched the target brick
            assert report["degraded_requests"] >= 1
            assert report["fill_boxes"] >= 1

    def test_serve_bad_chaos_spec_fails(self, archive_file, capsys):
        assert main(["serve", str(archive_file), "--chaos", "segfault:p=1"]) == 2
        assert "bad --chaos spec" in capsys.readouterr().err


class TestScrubCommand:
    @pytest.fixture
    def archive_file(self, dataset_file, tmp_path):
        path = tmp_path / "batch.rpbt"
        assert main([
            "batch", str(dataset_file), "-o", str(path), "--method", "tac",
        ]) == 0
        return path

    def test_scrub_clean_archive_exits_zero(self, archive_file, tmp_path, capsys):
        report_path = tmp_path / "scrub.json"
        assert main(["scrub", str(archive_file), "--json", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "scrub clean" in out
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert all(row["ok"] for row in report["shards"])
        assert all(not row["bad"] for row in report["entries"])
        assert all(row["has_part_crcs"] for row in report["entries"])  # v4

    def test_scrub_detects_flipped_bit_and_exits_one(
        self, archive_file, tmp_path, capsys
    ):
        shard = next(archive_file.parent.glob("*.rpsh"))
        blob = bytearray(shard.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        shard.write_bytes(bytes(blob))
        report_path = tmp_path / "scrub.json"
        assert main(["scrub", str(archive_file), "--json", str(report_path)]) == 1
        captured = capsys.readouterr()
        assert "BAD " in captured.out
        assert "scrub found damage" in captured.err
        report = json.loads(report_path.read_text())
        assert report["ok"] is False
        assert any(not row["ok"] for row in report["shards"])
        assert any(row["bad"] for row in report["entries"])

    def test_scrub_v3_archive_notes_missing_part_crcs(self, capsys):
        # Entries without per-part CRCs (container v1-v3) are no longer
        # written; the frozen v3 fixture is the input.
        head = Path(__file__).parent / "data" / "golden_batch_v3.rpbt"
        assert main(["scrub", str(head)]) == 0
        assert "no per-part CRCs" in capsys.readouterr().out

    def test_scrub_unknown_key_fails(self, archive_file, capsys):
        assert main(["scrub", str(archive_file), "--key", "nope"]) == 2
        assert "no entry" in capsys.readouterr().err

    def test_scrub_reports_every_damaged_shard(self, dataset_file, tmp_path, capsys):
        """No fail-fast: every shard is checked and each damaged one is
        reported, then every entry's parts are walked."""
        second = tmp_path / "t2.npz"
        assert main(["make", "Run2_T2", "-o", str(second), "--scale", "16"]) == 0
        head = tmp_path / "two.rpbt"
        assert main([
            "batch", str(dataset_file), str(second), "-o", str(head), "--shard-size", "1K",
        ]) == 0
        shards = sorted(tmp_path.glob("two.shard-*.rpsh"))
        assert len(shards) == 2
        for shard in shards:
            blob = bytearray(shard.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            shard.write_bytes(bytes(blob))
        capsys.readouterr()
        report_path = tmp_path / "scrub.json"
        assert main(["scrub", str(head), "--json", str(report_path)]) == 1
        assert capsys.readouterr().out.count("FAILED") == len(shards)
        report = json.loads(report_path.read_text())
        assert [row["ok"] for row in report["shards"]] == [False, False]
        assert len(report["entries"]) == 2 and all(row["bad"] for row in report["entries"])


class TestStructureReference:
    """``inspect`` / ``scrub`` on the fields of a multi-field ingest step."""

    @pytest.fixture
    def step_file(self, tmp_path):
        from repro.ingest import IngestSession
        from tests.helpers import two_level_dataset

        base = two_level_dataset(n=16, fine_fraction=0.3, seed=4)
        fields = {
            name: dataclasses.replace(base, field=name) for name in ("density", "temperature")
        }
        head = tmp_path / "step.rpbt"
        with IngestSession(head, error_bound=1e-3) as session:
            keys = session.submit_step(fields)
        return head, keys

    def test_inspect_prints_the_reference_from_metadata(self, step_file, capsys):
        head, (holder, field) = step_file
        # _check_no_payload_reads runs inside: the line costs no payload read.
        assert main(["inspect", str(head)]) == 0
        out = capsys.readouterr().out
        assert out.count("structure -> ") == 1
        assert f"structure -> {holder}" in out.split(f"{field}:")[1]

    def test_scrub_reports_a_dangling_reference(self, step_file, tmp_path, capsys):
        from repro.engine import LazyBatchArchive, ShardedArchiveWriter

        head, (_holder, field) = step_file
        assert main(["scrub", str(head)]) == 0
        orphan = tmp_path / "orphan.rpbt"
        with LazyBatchArchive.open(head) as archive, ShardedArchiveWriter(orphan) as writer:
            writer.add_entry(field, archive.entry(field))
        capsys.readouterr()
        report = tmp_path / "scrub.json"
        assert main(["scrub", str(orphan), "--json", str(report)]) == 1
        captured = capsys.readouterr()
        assert "BAD structure" in captured.out and "does not hold" in captured.out
        assert "scrub found damage" in captured.err
        (row,) = json.loads(report.read_text())["entries"]
        assert [bad["part"] for bad in row["bad"]] == ["structure"]
        assert row["checked"] == row["n_parts"]  # its own parts are intact


class TestExperimentsCommand:
    def test_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig14" in out and "ablation_predictor" in out

    def test_run_one(self, capsys):
        assert main(["experiments", "fig07", "--scale", "8"]) == 0
        out = capsys.readouterr().out
        assert "OpST" in out or "opst" in out
        assert "\ncheck: ok" in out

    def test_unknown_experiment(self, capsys):
        assert main(["experiments", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_a_violated_claim_fails_the_run(self, monkeypatch, capsys):
        from repro.experiments import PAPER_EXPERIMENTS, Experiment, ExperimentResult

        def run(scale=None):
            return ExperimentResult(experiment="fig07", title="t", rows=[{"a": 1}])

        monkeypatch.setitem(
            PAPER_EXPERIMENTS, "fig07", Experiment(run, lambda result: (["broken"], {"d": "m"}))
        )
        assert main(["experiments", "fig07"]) == 1
        assert "\ncheck: FAIL; violation: broken; deviation d: m\n" in capsys.readouterr().out


class TestProfileFlag:
    @pytest.fixture
    def second_file(self, tmp_path):
        path = tmp_path / "t2.npz"
        assert main(["make", "Run2_T2", "-o", str(path), "--scale", "16"]) == 0
        return path

    def test_compress_profile_prints_stage_breakdown(self, dataset_file, tmp_path, capsys):
        archive = tmp_path / "prof.tac"
        assert main([
            "compress", str(dataset_file), "-o", str(archive),
            "--eb", "1e-3", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "profile" in out
        # TAC's compress pipeline times at least these stages.
        assert "preprocess" in out
        assert "compress" in out
        assert "% " in out or "%" in out

    def test_no_profile_by_default(self, dataset_file, tmp_path, capsys):
        archive = tmp_path / "noprof.tac"
        assert main(["compress", str(dataset_file), "-o", str(archive)]) == 0
        assert "profile     :" not in capsys.readouterr().out


class TestLintCommand:
    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005"):
            assert rule_id in out

    def test_lint_repo_is_clean(self, capsys):
        # The committed tree must lint clean; CI's static-analysis job
        # enforces the same gate.
        assert main(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "values,q,expected",
    [
        ([3.0, 1.0, 4.0, 2.0], 0, 1.0),  # p0 is the minimum
        ([3.0, 1.0, 4.0, 2.0], 100, 4.0),  # p100 the maximum
        ([3.0, 1.0, 4.0, 2.0], 50, 2.0),  # even length: the lower middle
        ([5.0, 1.0, 3.0], 50, 3.0),  # odd length: the middle
        ([1.0, 2.0, 3.0, 4.0], 75, 3.0),
        ([float(v) for v in range(1, 101)], 99, 99.0),
        ([7.0], 99, 7.0),
    ],
)
def test_serve_percentile_is_nearest_rank(values, q, expected):
    assert _percentile(values, q) == expected
