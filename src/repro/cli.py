"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``make``        synthesize a Table 1 dataset to an ``.npz`` file
``info``        summarize an AMR ``.npz`` or a batch archive
``compress``    compress an AMR ``.npz`` with any registered codec
``decompress``  restore one stored timestep (a delta key sums its chain), a level
                subset of it, or an ROI
``inspect``     per-part breakdown of a blob/archive (no payload decode)
``batch``       compress many ``.npz`` files into one sharded archive
``ingest``      stream a snapshot series into a sharded archive (in-situ)
``serve``       drive concurrent ROI reads through the read service
``scrub``       re-read and CRC-check every shard and stored part, bounded memory
``codecs``      list the codec registry
``experiments`` run paper experiments, print their reports, judge their claims
                (exit 1 when a claim is violated)

Codec selection is routed through :mod:`repro.engine.registry` — the CLI
holds no name→compressor tables of its own, so codecs registered by
downstream code are immediately usable here.  Single-dataset archives use
:meth:`repro.core.container.CompressedDataset.to_bytes`; ``batch`` and
``ingest`` drive one :class:`repro.ingest.IngestSession` (``batch`` is
``ingest`` without temporal deltas) and write a sharded archive.  The
read-side verbs open their input through :func:`_open_input`, so a batch
archive's entries are located by index — one entry is served without
parsing its siblings — and ``inspect`` never touches a payload byte.  A
missing input, an input of the wrong kind, or a bad option value exits 2
with one ``error:`` line (:class:`UsageError`); exit 1 means the work
itself failed (``scrub`` found damage, a claim was violated, an input's
head does not parse: :class:`DamagedInput`).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.amr.io import load_dataset, peek_meta, save_dataset
from repro.core.container import _MAGIC as BLOB_MAGIC
from repro.core.container import (
    ContainerIOError,
    LazyCompressedDataset,
    collapse_part_sizes,
)
from repro.core.plan import check_level_indices, normalize_region
from repro.engine import (
    DEFAULT_SHARD_SIZE,
    LazyBatchArchive,
    all_specs,
    codec_for_method,
    codec_names,
    get_codec,
    is_batch_archive,
    supports_partial_decode,
)
from repro.engine.archive import STRUCTURE_META_KEY, with_structure
from repro.sim.datasets import TABLE1, make_dataset
from repro.sz.compressor import SZConfig
from repro.utils.validation import check_error_bound


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TAC: error-bounded lossy compression for 3D AMR data (HPDC'22 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    method_choices = codec_names(include_aliases=True)

    p_make = sub.add_parser("make", help="synthesize a Table 1 dataset")
    p_make.add_argument("name", choices=sorted(TABLE1), help="dataset name")
    p_make.add_argument("-o", "--output", required=True, type=Path)
    p_make.add_argument("--scale", type=int, default=4, help="grid divisor (power of two)")
    p_make.add_argument("--field", default="baryon_density")
    p_make.add_argument("--seed", type=int, default=None)

    p_info = sub.add_parser("info", help="summarize an AMR .npz or batch archive")
    p_info.add_argument("path", type=Path)

    p_comp = sub.add_parser("compress", help="compress an AMR .npz file")
    p_comp.add_argument("path", type=Path)
    p_comp.add_argument("-o", "--output", required=True, type=Path)
    p_comp.add_argument("--eb", type=float, default=1e-4, help="error bound")
    p_comp.add_argument("--mode", choices=["rel", "abs"], default="rel")
    p_comp.add_argument("--method", choices=method_choices, default="tac")
    p_comp.add_argument(
        "--level-scale",
        type=float,
        nargs="+",
        default=None,
        help="per-level error-bound multipliers, finest first (e.g. 3 1)",
    )
    p_comp.add_argument("--predictor", choices=["interp", "lorenzo"], default="interp")
    p_comp.add_argument(
        "--brick-size", type=int, default=None, metavar="N",
        help="edge of the independently-compressed bricks GSP/ZF levels are "
             "chunked into (TAC; ROI reads then decode only touched bricks); "
             "an edge at least the level's gives one stream, default 64",
    )
    p_comp.add_argument(
        "--profile", action="store_true",
        help="print the codec's stage timings (preprocess / compress)",
    )

    p_dec = sub.add_parser(
        "decompress",
        help="restore an AMR .npz, a level subset, or an ROI from a blob or archive",
    )
    p_dec.add_argument("path", type=Path)
    p_dec.add_argument("-o", "--output", required=True, type=Path)
    p_dec.add_argument(
        "--key", default=None,
        help="entry of a batch archive (defaults to its only entry)",
    )
    p_dec.add_argument(
        "--level", type=int, action="append", default=None,
        help="AMR level to decode (repeatable; omit for all levels)",
    )
    p_dec.add_argument(
        "--region", default=None,
        help='ROI in level-grid cells as "x0:x1,y0:y1,z0:z1" (needs one --level)',
    )

    p_ins = sub.add_parser(
        "inspect",
        help="per-part breakdown of a blob or batch archive (no payload decode)",
    )
    p_ins.add_argument("path", type=Path)
    p_ins.add_argument(
        "--key", default=None, help="restrict to one batch-archive entry"
    )

    p_batch = sub.add_parser(
        "batch", help="compress many .npz files into one sharded archive"
    )
    p_batch.add_argument("inputs", nargs="+", type=Path, help="AMR .npz files")
    _add_session_arguments(p_batch, method_choices)

    p_ing = sub.add_parser(
        "ingest",
        help="stream a snapshot series into a sharded archive "
             "(in-situ pipeline: bounded memory, optional temporal deltas)",
    )
    p_ing.add_argument(
        "inputs", nargs="*", type=Path,
        help="AMR .npz snapshots in chronological order (omit with --sim)",
    )
    _add_session_arguments(p_ing, method_choices)
    p_ing.add_argument(
        "--sim", default=None, metavar="NAME", choices=sorted(TABLE1),
        help="synthesize a Table 1 timestep series instead of reading files",
    )
    p_ing.add_argument("--steps", type=int, default=4, help="series length (--sim)")
    p_ing.add_argument("--scale", type=int, default=4, help="grid divisor (--sim)")
    p_ing.add_argument("--field", default="baryon_density", help="field (--sim)")
    p_ing.add_argument("--seed", type=int, default=None, help="RNG seed (--sim)")
    p_ing.add_argument(
        "--sigma-step", type=float, default=0.05,
        help="per-step field evolution rate (--sim)",
    )
    p_ing.add_argument(
        "--refresh-every", type=int, default=0,
        help="re-evaluate the refinement criterion every N steps (--sim; "
             "0 freezes the AMR hierarchy at step 0)",
    )
    p_ing.add_argument(
        "--keyframe-interval", type=int, default=1, metavar="K",
        help="temporal delta cadence: K>1 stores closed-loop residuals "
             "between keyframes (1 = every snapshot independent)",
    )

    p_srv = sub.add_parser(
        "serve",
        help="drive concurrent ROI reads against an archive and report "
             "latency, bytes, and cache behaviour",
    )
    p_srv.add_argument("path", type=Path)
    p_srv.add_argument(
        "--key", default=None,
        help="entry to serve (defaults to every entry in the archive)",
    )
    p_srv.add_argument(
        "--level", type=int, default=None,
        help="AMR level to read (default: the finest level of each entry)",
    )
    p_srv.add_argument(
        "--requests", type=int, default=64, help="total ROI requests to issue"
    )
    p_srv.add_argument(
        "--rois", type=int, default=8,
        help="distinct ROIs in the pool (requests cycle through them, so "
             "smaller pools mean more overlap and more cache hits)",
    )
    p_srv.add_argument(
        "--roi-frac", type=float, default=0.25,
        help="ROI edge as a fraction of the level edge",
    )
    p_srv.add_argument(
        "--threads", type=int, default=4, help="concurrent request workers"
    )
    p_srv.add_argument(
        "--cache-bytes", type=_parse_cache_size, default=256 * 1024**2, metavar="SIZE",
        help="decoded-brick cache budget (e.g. 64M; 0 disables the cache)",
    )
    p_srv.add_argument("--seed", type=int, default=0, help="ROI placement seed")
    p_srv.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the full stats report as JSON",
    )
    p_srv.add_argument(
        "--chaos", default=None, metavar="SPEC",
        help='deterministic fault injection on shard reads: "kind:key=val,...'
             ';kind2:..." with kinds oserror/latency/truncate/bitflip, e.g. '
             '"oserror:p=0.05;bitflip:match=*/L0/b3,times=1"',
    )
    p_srv.add_argument(
        "--chaos-seed", type=int, default=0,
        help="RNG seed for probabilistic --chaos rules",
    )
    p_srv.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request wall-time budget; expiry raises DeadlineExceeded "
             "(or fills late bricks under --degraded)",
    )
    p_srv.add_argument(
        "--degraded", action="store_true",
        help="serve fill values for corrupt/timed-out/unreachable bricks "
             "(reported per request) instead of failing the whole request",
    )

    p_scrub = sub.add_parser(
        "scrub",
        help="re-read every payload shard and stored part and check their "
             "CRC-32s, bounded memory (exit 1 on any damage; never fail-fast)",
    )
    p_scrub.add_argument("path", type=Path)
    p_scrub.add_argument(
        "--key", default=None, help="restrict to one batch-archive entry"
    )
    p_scrub.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the full scrub report as JSON",
    )

    p_cod = sub.add_parser("codecs", help="list registered codecs")
    p_cod.add_argument(
        "--schema", action="store_true",
        help="also print each codec's accepted options (name, type, default)",
    )

    p_lint = sub.add_parser(
        "lint",
        help="run reprolint, the repo's invariant-aware static analysis",
    )
    p_lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to tools.reprolint (try 'repro lint -- --help')",
    )

    p_exp = sub.add_parser("experiments", help="run paper experiments and check their claims")
    p_exp.add_argument(
        "names", nargs="*", help="experiment ids (default: all paper experiments)"
    )
    p_exp.add_argument("--scale", type=int, default=None)
    p_exp.add_argument("--list", action="store_true", help="list available experiments")

    return parser


def _add_session_arguments(parser, method_choices) -> None:
    """What ``batch`` and ``ingest`` share: both drive one IngestSession."""
    parser.add_argument("-o", "--output", required=True, type=Path)
    parser.add_argument("--eb", type=float, default=1e-4, help="error bound")
    parser.add_argument("--mode", choices=["rel", "abs"], default="rel")
    parser.add_argument("--method", choices=method_choices, default="tac")
    parser.add_argument(
        "--shard-size", type=_parse_size, default=DEFAULT_SHARD_SIZE, metavar="SIZE",
        help="payload-shard roll-over size, e.g. 64M, 512K, or plain bytes",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="encoder threads (1 = synchronous, strict one-level memory bound; "
             "N > 1 overlaps encode and write, buffering at most 2N entries)",
    )


def _parse_size(text: str) -> int:
    """``"64M"`` / ``"512K"`` / ``"1G"`` / plain bytes → byte count."""
    spec = text.strip().upper()
    multiplier = 1
    if spec and spec[-1] in "KMG":
        multiplier = {"K": 1024, "M": 1024**2, "G": 1024**3}[spec[-1]]
        spec = spec[:-1]
    try:
        value = int(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid size {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"size must be positive, got {text!r}")
    return value * multiplier


def _parse_cache_size(text: str) -> int:
    """Like :func:`_parse_size` but ``"0"`` (cache disabled) is allowed."""
    if text.strip() == "0":
        return 0
    return _parse_size(text)


def _build_codec(method: str, predictor: str = "interp", brick_size: int | None = None):
    """A fresh codec from the registry, honouring CLI codec overrides
    (``brick_size=None`` keeps the codec's default brick edge)."""
    options: dict = {}
    if predictor != "interp":
        options["sz"] = SZConfig(predictor=predictor)
    if brick_size is not None:
        options["brick_size"] = brick_size
    return get_codec(method, **options)


class UsageError(Exception):
    """A missing or wrong-kind input, or a bad option value: ``main``
    prints ``error: <message>`` and exits 2."""


class DamagedInput(Exception):
    """An input of the right kind whose head does not parse (truncated or
    corrupt): ``main`` prints ``error: <message>`` and exits 1, as for any
    work that failed."""


#: What the first four bytes of a read verb's input say it is.
_NPZ, _BLOB, _ARCHIVE = "an AMR .npz dataset", "a compressed dataset", "a batch archive"
_KINDS = {b"PK\x03\x04": _NPZ, BLOB_MAGIC: _BLOB}


def _input_kind(path: Path, kinds: tuple[str, ...]) -> str:
    """Which of ``kinds`` the file at ``path`` is, by its leading bytes."""
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    kind = _ARCHIVE if is_batch_archive(magic) else _KINDS.get(magic)
    if kind not in kinds:
        raise UsageError(
            f"{path} is {kind or 'of no known kind'}, not {' or '.join(kinds)}"
        )
    return kind


@contextmanager
def _open_input(path: Path, kinds: tuple[str, ...], key: str | None = None):
    """Open what is at ``path``, one of ``kinds``; yield ``(source, keys)``.

    ``source`` is the loaded dataset of an ``.npz``, a lazy single blob,
    or a lazy batch archive, closed on exit.  ``keys`` lists the archive
    entries to visit, ``--key`` alone or all of them, and is ``None`` for
    the other kinds, which take no ``--key``.
    """
    kind = _input_kind(path, kinds)
    if key is not None and kind != _ARCHIVE:
        raise UsageError("--key only applies to batch archives")
    opener = {_NPZ: load_dataset, _BLOB: LazyCompressedDataset.open,
              _ARCHIVE: LazyBatchArchive.open}[kind]
    try:
        source = opener(path)
    except KeyError as exc:
        if kind == _NPZ:  # a zip without the dataset's ``__meta__`` record
            raise UsageError(f"{path} is a zip file, not {_NPZ}") from None
        raise DamagedInput(f"{path} is damaged: missing {exc}") from None
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DamagedInput(f"{path} is damaged: {exc}") from None
    if kind == _NPZ:
        yield source, None
        return
    with source:
        if kind == _BLOB:
            yield source, None
            return
        if key is not None and key not in source.keys():
            raise UsageError(f"no entry {key!r}; archive holds {source.keys()}")
        yield source, source.keys() if key is None else [key]


def cmd_make(args) -> int:
    dataset = make_dataset(args.name, scale=args.scale, field=args.field, seed=args.seed)
    save_dataset(dataset, args.output)
    print(dataset.summary())
    print(f"wrote {args.output} ({args.output.stat().st_size} bytes)")
    return 0


def cmd_info(args) -> int:
    with _open_input(args.path, (_NPZ, _ARCHIVE)) as (source, keys):
        if keys is None:
            print(source.summary())
            print(f"field       : {source.field}")
            print(f"stored      : {source.total_points()} values "
                  f"({source.original_bytes() / 1e6:.2f} MB)")
            for lvl in source.levels:
                print(f"  level {lvl.level}: grid {lvl.n}^3, density {lvl.density():.4%}, "
                      f"{lvl.n_points()} values")
            return 0
        manifest = source.manifest()
        original = sum(row["original_bytes"] for row in manifest)
        compressed = sum(row["compressed_bytes"] for row in manifest)
        ratio = original / compressed if compressed else float("inf")
        kind = "sharded batch archive" if source.is_sharded else "batch archive"
        print(f"{kind}: {len(source)} entries, "
              f"ratio {ratio:.2f}x "
              f"({original} -> {compressed} bytes)")
        for shard in source.shards():
            print(f"  shard {shard['name']}: {shard['n_bytes']} B "
                  f"crc32 {shard['crc32']:#010x}")
        for row in manifest:
            print(f"  {row['key']:40s} {row['method']:12s} "
                  f"{row['compressed_bytes']:>10d} B  {row['n_values']} values")
    return 0


def _print_profile(record, indent: str = "") -> None:
    """Per-stage wall-time breakdown of a codec's TimingRecord."""
    total = record.total()
    if not record.spans:
        print(f"{indent}profile     : no stage timings recorded")
        return
    print(f"{indent}profile     : {total:.3f}s total")
    for name, seconds in sorted(record.spans.items(), key=lambda kv: -kv[1]):
        share = 100.0 * seconds / total if total else 0.0
        print(f"{indent}  {name:16s} {seconds:9.4f}s {share:5.1f}%")


def _check_eb(eb: float) -> None:
    """``--eb`` as the user gave it — not the absolute bound a ``rel``
    bound resolves to — checked before any dataset loads."""
    try:
        check_error_bound(eb, allow_zero=True)
    except ValueError as exc:
        raise UsageError(f"--eb: {exc}") from None


def cmd_compress(args) -> int:
    # Flag validation precedes the dataset load — a typo must error
    # instantly, not after reading a multi-GB snapshot.
    _check_eb(args.eb)
    if args.brick_size is not None and args.brick_size <= 0:
        raise UsageError(
            "--brick-size must be >= 1 (the single-stream layout that 0 "
            "selected is retired; an edge at least the level's gives one stream)"
        )
    dataset = load_dataset(args.path)
    try:
        compressor = _build_codec(args.method, args.predictor, args.brick_size)
    except TypeError:
        # A codec whose factory takes no `sz` config / `brick_size` knob.
        raise UsageError(
            f"codec {args.method!r} does not accept the requested "
            "--predictor/--brick-size overrides"
        ) from None
    kwargs = {}
    if args.level_scale is not None:
        kwargs["per_level_scale"] = args.level_scale
    compressed = compressor.compress(dataset, args.eb, mode=args.mode, **kwargs)
    args.output.write_bytes(compressed.to_bytes())
    print(f"method      : {compressed.method}")
    print(f"ratio       : {compressed.ratio():.2f}x "
          f"({compressed.original_bytes} -> {compressed.compressed_bytes()} bytes)")
    print(f"bit rate    : {compressed.bit_rate():.3f} bits/value")
    for label, _count, size in collapse_part_sizes(compressed.part_sizes()):
        print(f"  {label:16s} {size} B")
    if args.profile:
        _print_profile(compressed.timings)
    print(f"wrote {args.output}")
    return 0


def _parse_region(spec: str):
    """``"x0:x1,y0:y1,z0:z1"`` → slice triple (empty bound = full extent)."""
    axes = spec.split(",")
    if len(axes) != 3:
        raise ValueError(f'region needs 3 axes "x0:x1,y0:y1,z0:z1", got {spec!r}')
    region = []
    for axis_spec in axes:
        lo, sep, hi = axis_spec.partition(":")
        if not sep:
            raise ValueError(f"region axis {axis_spec!r} is not lo:hi")
        region.append(slice(int(lo) if lo else None, int(hi) if hi else None))
    return tuple(region)


def cmd_decompress(args) -> int:
    with _open_input(args.path, (_BLOB, _ARCHIVE), args.key) as (source, keys):
        if keys is None:
            codec, region = _check_request(source, args)
            if region is not None:
                result = codec.decompress_region(source, args.level[0], region)
            elif args.level is not None:
                result = codec.decompress_levels(source, args.level)
            else:
                result = codec.decompress(source)
            parts = source.parts
            return _save(args, result, f"{len(parts.accessed())}/{len(parts)} ({parts.bytes_read} "
                                       f"of {source.compressed_bytes()} payload bytes)")
        if len(keys) != 1:
            raise UsageError(
                f"batch archive holds {len(keys)} entries; pick one with --key {keys}"
            )
        (key,) = keys
        _codec, region = _check_request(with_structure(source.entry(key), key, source.entry), args)
        if args.level is None:
            # A delta key restores its timestep: the archive sums its chain.
            return _save(args, source.decompress(key))
    # A level subset or an ROI of an archive key is a read-service request:
    # the key's timestep, its chain planned and summed once per level.
    from repro.serve import ArchiveReader

    with ArchiveReader(args.path, cache_bytes=0, request_workers=1) as reader:
        if region is not None:
            result, stats = reader.read_region(key, args.level[0], region)
        else:
            read = [reader.read_level(key, level) for level in args.level]
            result, stats = [lvl for lvl, _stats in read], read[-1][1]
        fetched = reader.stats()["bytes_fetched"]
    return _save(args, result, f"{fetched} payload bytes, chain {' + '.join(stats.chain)}")


def _check_request(entry, args):
    """The codec that reads ``entry`` and the ``--region`` as slices
    (``None`` without one), after checking the request against the entry:
    a level or region it does not have is a usage error, told before
    anything is decoded."""
    try:
        codec = codec_for_method(entry.method)
    except KeyError:
        raise UsageError(f"unknown archive method {entry.method!r}") from None
    if args.level is None and args.region is None:
        return codec, None
    if not supports_partial_decode(codec):
        raise UsageError(
            f"codec for method {entry.method!r} has no partial-decode "
            "support; omit --level and --region"
        )
    if args.region is not None and (not args.level or len(args.level) != 1):
        raise UsageError("--region needs exactly one --level")
    # Only partial decoders store ``shapes``; a whole decode needs none.
    shapes = entry.meta["shapes"]
    try:
        check_level_indices(args.level, len(shapes))
        if args.region is None:
            return codec, None
        region = _parse_region(args.region)
        normalize_region(region, shapes[args.level[0]])
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return codec, region


def _save(args, result, parts_read: str | None = None) -> int:
    """Write what ``decompress`` restored — an ROI array, a list of levels
    or a whole dataset — and report it."""
    if isinstance(result, np.ndarray):
        np.savez_compressed(args.output, data=result, level=np.int64(args.level[0]))
        print(f"region {args.region} of level {args.level[0]}: shape {result.shape}")
    elif isinstance(result, list):
        arrays = {}
        for lvl in result:
            arrays[f"data_{lvl.level}"] = lvl.data
            arrays[f"mask_{lvl.level}"] = np.packbits(lvl.mask.ravel())
        np.savez_compressed(args.output, **arrays)
        for lvl in result:
            print(f"level {lvl.level}: grid {lvl.n}^3, {lvl.n_points()} values")
    else:
        save_dataset(result, args.output)
        print(result.summary())
    if parts_read is not None:
        print(f"parts read  : {parts_read}")
    print(f"wrote {args.output}")
    return 0


def _print_entry_breakdown(entry, indent: str = "") -> None:
    print(f"{indent}method      : {entry.method} (container v{entry.container_version})")
    print(f"{indent}dataset     : {entry.dataset_name}")
    if STRUCTURE_META_KEY in entry.meta:
        print(f"{indent}structure -> {entry.meta[STRUCTURE_META_KEY]}")
    temporal = entry.meta.get("temporal") or {}
    if temporal.get("mode") == "delta":  # a residual: reads sum it onto its base
        print(f"{indent}temporal -> delta of {temporal['base']} (keyframe {temporal['keyframe']})")
    elif temporal:
        print(f"{indent}temporal -> {temporal['mode']}")
    print(f"{indent}stored      : {entry.n_values} values, "
          f"{entry.original_bytes} -> {entry.compressed_bytes()} B "
          f"(ratio {entry.ratio():.2f}x)")
    for level_meta in entry.meta.get("levels", []):
        line = (f"{indent}  level {level_meta['level']}: "
                f"strategy {level_meta.get('strategy', '?'):8s} "
                f"eb {level_meta.get('eb_abs', 0.0):.3e}")
        if "n_blocks" in level_meta:
            line += f"  {level_meta['n_blocks']} blocks / {level_meta['n_groups']} groups"
        if "bricks" in level_meta:
            bricks = level_meta["bricks"]
            grid = "x".join(str(g) for g in bricks["grid"])
            line += f"  {bricks['n']} bricks ({grid} of {bricks['size']}^3)"
        if "shared_table" in level_meta:
            # Metadata only — inspect never decodes the table part itself.
            line += f"  shared table {level_meta['shared_table']['id']:#010x}"
        print(line)
    if "levels" not in entry.meta:
        # Baseline blobs record a flat per-level bound list instead.
        for idx, eb in enumerate(entry.meta.get("level_ebs", [])):
            print(f"{indent}  level {idx}: eb {eb:.3e}")
    # Numbered sibling parts (brick/group streams) collapse to one row so
    # a 512-brick level does not print 512 lines.
    for label, _count, size in collapse_part_sizes(entry.part_sizes()):
        print(f"{indent}  {label:24s} {size:>10d} B")


def cmd_inspect(args) -> int:
    with _open_input(args.path, (_BLOB, _ARCHIVE), args.key) as (source, keys):
        if keys is None:
            _print_entry_breakdown(source)
            _check_no_payload_reads(source)
            return 0
        print(f"batch archive v{source.version}: {len(source)} entries")
        if source.is_sharded:
            entry_shards = source.entry_shards()
            for shard in source.shards():
                members = sum(1 for name in entry_shards.values() if name == shard["name"])
                print(f"shard {shard['name']}: {shard['n_bytes']} B, "
                      f"{members} entr{'y' if members == 1 else 'ies'}, "
                      f"crc32 {shard['crc32']:#010x}")
        for key in keys:
            entry = source.entry(key)
            print(f"{key}:")
            _print_entry_breakdown(entry, indent="  ")
            _check_no_payload_reads(entry)
    return 0


def _check_no_payload_reads(entry) -> None:
    """``inspect`` promises a zero-payload-read breakdown; enforce it."""
    if entry.parts.accessed():
        raise RuntimeError(
            f"inspect read payload parts {sorted(entry.parts.accessed())}; "
            "the breakdown must come from the header index alone"
        )


def _unique_labels(labels: list[str]) -> list[str]:
    """Suffix repeats ``#1``, ``#2``, ... so archive keys stay unique."""
    seen: dict[str, int] = {}
    out = []
    for label in labels:
        count = seen.get(label, 0)
        seen[label] = count + 1
        out.append(label if count == 0 else f"{label}#{count}")
    return out


def _session_config(args, **config):
    """The ``IngestConfig`` of ``batch`` / ``ingest``, built before any
    input loads: a bad option value is a :class:`UsageError`."""
    from repro.ingest import IngestConfig

    _check_eb(args.eb)
    try:
        return IngestConfig(
            codec=args.method, error_bound=args.eb, mode=args.mode,
            shard_size=args.shard_size, workers=args.workers, **config,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _run_session(args, tool: str, config, submissions) -> int:
    """Drive one IngestSession over ``(dataset or path, key or None)``
    pairs and print what it wrote — the body of ``batch`` and ``ingest``."""
    from repro.ingest import IngestError, IngestSession

    session = IngestSession(
        args.output,
        config,
        meta={"tool": tool, "method": args.method, "eb": args.eb, "mode": args.mode},
    )
    try:
        with session:
            keys = [session.submit(dataset, key=key) for dataset, key in submissions]
    except IngestError as exc:
        print(f"error: {exc}; no archive written", file=sys.stderr)
        return 1
    report = session.report
    rows = {row["key"]: row for row in report.manifest()}
    entries = {entry["key"]: entry for entry in report.entries}
    for key in keys:
        temporal = entries[key]["temporal"]
        kind = temporal["mode"] if temporal else "keyframe"
        print(f"  {key:40s} {kind:8s} {rows[key]['compressed_bytes']:>10d} B  "
              f"{entries[key]['wall_seconds']:.3f}s")
    write = report.write
    for path in write.shard_paths:
        print(f"  shard {path.name}: {path.stat().st_size} bytes")
    print(f"wrote {write.head_path} (head) + {len(write.shard_paths)} payload "
          f"shard(s): {report.n_entries} entries "
          f"({report.n_keyframes} keyframe(s), {report.n_deltas} delta(s)), "
          f"{write.total_bytes()} bytes, ratio {report.ratio():.2f}x, "
          f"wall {report.wall_seconds:.3f}s ({args.workers} worker(s))")
    return 0


def cmd_batch(args) -> int:
    """``repro batch``: ``ingest`` without deltas — every file its own entry."""
    config = _session_config(args)
    for path in args.inputs:
        _input_kind(path, (_NPZ,))
    # Submissions carry paths, not arrays: workers load in parallel.  Only
    # the cheap metadata record is read up front, for the label.
    labels = _unique_labels(
        [f"{path.stem}/{peek_meta(path)['field']}/{args.method}" for path in args.inputs]
    )
    return _run_session(args, "repro batch", config, zip(args.inputs, labels))


def cmd_ingest(args) -> int:
    """``repro ingest``: snapshot series → sharded archive via IngestSession."""
    if args.sim is None and not args.inputs:
        raise UsageError("give snapshot files or --sim NAME")
    if args.sim is not None and args.inputs:
        raise UsageError("--sim and file inputs are mutually exclusive")
    config = _session_config(args, keyframe_interval=args.keyframe_interval)
    if args.sim is not None:
        from repro.sim import make_timestep_series

        snapshots = make_timestep_series(
            args.sim, steps=args.steps, scale=args.scale, field=args.field,
            seed=args.seed, sigma_step=args.sigma_step,
            refresh_every=args.refresh_every,
        )
    else:
        for path in args.inputs:
            _input_kind(path, (_NPZ,))
        # Load lazily, one snapshot per submit: in-memory submissions join
        # their (name, field) chain, so file series delta-code too — and
        # peak memory stays one snapshot, not the series.
        snapshots = (load_dataset(path) for path in args.inputs)
    return _run_session(
        args, "repro ingest", config, ((snapshot, None) for snapshot in snapshots)
    )


def _scrub_entry(key: str, entry) -> dict:
    """Re-read every part of one entry, one bounded read at a time.

    Each part is fetched, checked, and immediately dropped — peak memory
    is one part (plus the header index), never the whole entry.  With
    per-part CRCs (container v4) a read is a content check; older
    containers (v1-v3) only prove every indexed span is still readable.
    """
    row = {
        "key": key,
        "container_version": entry.container_version,
        "has_part_crcs": entry.parts.verifies_integrity,
        "n_parts": len(entry.parts),
        "checked": 0,
        "bad": [],
    }
    for name in sorted(entry.parts):
        try:
            entry.parts[name]
        except ContainerIOError as exc:
            row["bad"].append({"part": name, "error": str(exc)})
        else:
            row["checked"] += 1
    return row


def cmd_scrub(args) -> int:
    import json as json_mod

    shard_rows: list[dict] = []
    entry_rows: list[dict] = []
    with _open_input(args.path, (_BLOB, _ARCHIVE), args.key) as (source, keys):
        if keys is None:
            entry_rows.append(_scrub_entry(source.dataset_name, source))
        else:
            # Whole-shard CRCs first (chunked reads, bounded memory),
            # then the per-part walk — both run to completion so one bad
            # byte early on does not hide later damage.
            shard_rows = source.verify_shards()
            for key in keys:
                entry = source.entry(key)
                row = _scrub_entry(key, entry)
                try:
                    with_structure(entry, key, source.entry)
                except ContainerIOError as exc:
                    # A reference nobody can follow loses the entry's masks.
                    row["bad"].append({"part": STRUCTURE_META_KEY, "error": str(exc)})
                entry_rows.append(row)

    for row in shard_rows:
        status = "ok" if row["ok"] else f"FAILED: {row['error']}"
        print(f"shard {row['name']}: {row['n_bytes']} B  {status}")
    for row in entry_rows:
        note = "" if row["has_part_crcs"] else (
            f"  (container v{row['container_version']}: no per-part CRCs, "
            "spans checked readable only)"
        )
        print(f"{row['key']}: {row['checked']}/{row['n_parts']} part(s) ok{note}")
        for bad in row["bad"]:
            print(f"  BAD {bad['part']}: {bad['error']}")
    n_bad_shards = sum(1 for row in shard_rows if not row["ok"])
    n_bad_parts = sum(len(row["bad"]) for row in entry_rows)
    ok = n_bad_shards == 0 and n_bad_parts == 0
    if args.json:
        report = {
            "path": str(args.path),
            "ok": ok,
            "shards": shard_rows,
            "entries": entry_rows,
        }
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json_mod.dumps(report, indent=2, sort_keys=True) + "\n")
    if ok:
        print(f"scrub clean: {sum(r['checked'] for r in entry_rows)} part(s), "
              f"{len(shard_rows)} shard(s)")
        return 0
    print(f"scrub found damage: {n_bad_parts} bad part(s), "
          f"{n_bad_shards} bad shard(s)", file=sys.stderr)
    return 1


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list: the smallest value
    with at least ``q`` % of the list at or below it (p0 is the minimum)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


def cmd_serve(args) -> int:
    import json as json_mod
    import random

    from repro.serve import ArchiveReader

    if min(args.requests, args.rois) < 1:
        raise UsageError("--requests and --rois must be >= 1")
    if not 0.0 < args.roi_frac <= 1.0:
        raise UsageError(f"--roi-frac must be in (0, 1], got {args.roi_frac}")
    # The reader opens its own handle; this one checks the kind, the head
    # and --key, so the reader's ValueError below is an option's.
    with _open_input(args.path, (_ARCHIVE,), args.key) as (_archive, keys):
        pass
    plan = None
    shard_opener = None
    if args.chaos:
        from repro.engine import default_shard_opener
        from repro.faults import FaultPlan, archive_part_spans, faulty_opener

        try:
            plan = FaultPlan.parse(args.chaos, seed=args.chaos_seed)
        except ValueError as exc:
            raise UsageError(f"bad --chaos spec: {exc}") from None
        spans = archive_part_spans(args.path)
        if not spans:
            print("serve: note: archive has no payload shards; --chaos rules "
                  "targeting part names will never fire", file=sys.stderr)
        shard_opener = faulty_opener(
            default_shard_opener(args.path.parent), plan, spans
        )
    chaos_mode = plan is not None or args.deadline is not None
    rng = random.Random(args.seed)
    try:
        reader = ArchiveReader(
            args.path,
            shard_opener=shard_opener,
            cache_bytes=args.cache_bytes,
            request_workers=args.threads,
            default_deadline=args.deadline,
            degraded=args.degraded,
        )
    except ValueError as exc:  # --threads / --deadline
        raise UsageError(str(exc)) from None
    with reader:
        # A pool of ROIs per entry; requests cycle through the pool, so
        # overlap (and therefore cache reuse) is built into the workload.
        rois: list[tuple[str, int, tuple]] = []
        for key in keys:
            shapes = reader.entry_shapes(key)
            level = args.level if args.level is not None else len(shapes) - 1
            if not 0 <= level < len(shapes):
                raise UsageError(f"entry {key!r} has no level {level}")
            shape = shapes[level]
            for _ in range(args.rois):
                box = []
                for n in shape:
                    edge = max(1, min(n, int(round(n * args.roi_frac))))
                    lo = rng.randint(0, n - edge)
                    box.append((lo, lo + edge))
                rois.append((key, level, tuple(box)))
        requests = [rois[i % len(rois)] for i in range(args.requests)]
        rng.shuffle(requests)
        t0 = time.perf_counter()
        futures = [reader.submit(*request) for request in requests]
        results = []
        failures: list[tuple[tuple, Exception]] = []
        for request, future in zip(requests, futures):
            try:
                results.append(future.result())
            except Exception as exc:
                failures.append((request, exc))
        wall = time.perf_counter() - t0
        stats = reader.stats()

    # Under injected faults or a deadline some requests are *expected* to
    # fail and are reported; otherwise any failure fails the run.
    if failures and not (chaos_mode and results):
        print(f"serve: {len(failures)} of {len(requests)} request(s) failed; "
              f"first failure: {failures[0][1]}", file=sys.stderr)
        return 1
    latencies = [req_stats.seconds for _data, req_stats in results]
    report = {
        "archive": str(args.path),
        "entries": keys,
        "n_requests": len(results),
        "threads": args.threads,
        "wall_seconds": round(wall, 6),
        "requests_per_second": round(len(results) / wall, 2) if wall else None,
        "latency_p50": round(_percentile(latencies, 50), 6),
        "latency_p99": round(_percentile(latencies, 99), 6),
        "bytes_fetched": stats["bytes_fetched"],
        "bytes_served": stats["bytes_served"],
        "cache": stats["cache"],
        "fetch": stats["fetch"],
    }
    if chaos_mode:
        degraded_rows = [req_stats for _data, req_stats in results if req_stats.errors]
        report["n_failed"] = len(failures)
        report["failure_kinds"] = sorted({type(exc).__name__ for _req, exc in failures})
        report["degraded_requests"] = len(degraded_rows)
        report["fill_boxes"] = sum(len(req_stats.errors) for req_stats in degraded_rows)
        if plan is not None:
            report["chaos"] = {
                "spec": args.chaos,
                "seed": args.chaos_seed,
                "n_fired": plan.n_fired,
                "rules": plan.summary(),
            }
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json_mod.dumps(report, indent=2, sort_keys=True) + "\n")
    cache = stats["cache"]
    hit_rate = f"{cache['hit_rate']:.1%}" if cache else "off"
    print(f"served {len(results)} requests in {wall:.3f}s "
          f"({args.threads} thread(s), p50 {report['latency_p50'] * 1e3:.2f}ms, "
          f"p99 {report['latency_p99'] * 1e3:.2f}ms)")
    print(f"bytes fetched {stats['bytes_fetched']} vs served {stats['bytes_served']} "
          f"| cache hit rate {hit_rate} "
          f"| opens {stats['fetch']['opens']} "
          f"retries {stats['fetch']['open_retries'] + stats['fetch']['read_retries']}")
    if chaos_mode:
        fired = plan.n_fired if plan is not None else 0
        print(f"chaos: {fired} fault(s) fired | {report['n_failed']} request(s) "
              f"failed | {report['degraded_requests']} degraded "
              f"({report['fill_boxes']} fill box(es))")
    return 0


def cmd_codecs(args) -> int:
    from repro.engine.registry import config_schema

    for spec in all_specs():
        aliases = f" (aliases: {', '.join(spec.aliases)})" if spec.aliases else ""
        print(f"{spec.name:12s} method={spec.method_name:12s} "
              f"{spec.description}{aliases}")
        if args.schema:
            schema = config_schema(spec.name)
            if schema is None:
                print("    options: unconstrained (factory takes arbitrary keywords)")
            else:
                for option, info in schema.items():
                    print(f"    {option:18s} {info['type']:30s} "
                          f"default {info['default']!r}")
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments import ABLATIONS, PAPER_EXPERIMENTS

    registry = {**PAPER_EXPERIMENTS, **ABLATIONS}
    if args.list:
        for name in registry:
            print(name)
        return 0
    names = args.names or list(PAPER_EXPERIMENTS)
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise UsageError(f"unknown experiments {unknown}; see --list")
    failed = False
    for name in names:
        result = registry[name](scale=args.scale)
        print(result.report())
        print()
        failed |= bool(result.verdict[0])
    return 1 if failed else 0


def cmd_lint(args) -> int:
    """Run tools.reprolint from the repo checkout.

    The lint suite is developer tooling, deliberately not shipped inside
    the library package — so it is resolved relative to this source tree
    and only works from a checkout.
    """
    root = Path(__file__).resolve().parents[2]
    if not (root / "tools" / "reprolint").is_dir():
        raise UsageError("tools/reprolint not found; 'repro lint' needs a repo checkout")
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from tools.reprolint.cli import main as lint_main

    forwarded = [arg for arg in args.lint_args if arg != "--"]
    return lint_main(forwarded)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Forwarded verbatim: argparse's REMAINDER would reject leading
        # optionals ('repro lint --list-rules') before reaching them.
        args = argparse.Namespace(command="lint", lint_args=argv[1:])
    else:
        args = build_parser().parse_args(argv)
    handler = {
        "make": cmd_make,
        "info": cmd_info,
        "compress": cmd_compress,
        "decompress": cmd_decompress,
        "inspect": cmd_inspect,
        "batch": cmd_batch,
        "ingest": cmd_ingest,
        "serve": cmd_serve,
        "scrub": cmd_scrub,
        "lint": cmd_lint,
        "codecs": cmd_codecs,
        "experiments": cmd_experiments,
    }[args.command]
    try:
        return handler(args)
    except (UsageError, DamagedInput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
