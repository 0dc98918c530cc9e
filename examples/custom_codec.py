"""Using the SZ substrate directly, and extending the codec registry.

Run:  python examples/custom_codec.py

TAC's codec (:mod:`repro.sz`) is a standalone error-bounded compressor for
any 1D–4D float array.  This example shows:

* the three error-bound modes (absolute, value-range relative, point-wise
  relative);
* predictor selection (interpolation vs Lorenzo) and its rate trade-off;
* serializing a compressed AMR dataset to disk and restoring it without the
  original in hand;
* writing a custom dataset-level codec and registering it into
  :mod:`repro.engine.registry`, which makes it usable everywhere codecs
  are looked up by name — ``get_codec``, ``IngestSession``, archive
  decompression, and the CLI.
"""

import tempfile
import zlib
from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from repro import (
    AMRDataset,
    AMRLevel,
    CompressedDataset,
    LazyBatchArchive,
    SZCompressor,
    SZConfig,
    TACCompressor,
    get_codec,
    make_dataset,
    register_codec,
)
from repro.core.container import MASK_PREFIX, pack_mask, unpack_mask
from repro.ingest import IngestSession


def demo_error_modes() -> None:
    print("=== error-bound modes on a synthetic 3D field ===")
    rng = np.random.default_rng(42)
    x = np.cumsum(rng.standard_normal((48, 48, 48)), axis=0).astype(np.float32)
    codec = SZCompressor()

    blob = codec.compress(x, 0.01, mode="abs")
    out = codec.decompress(blob)
    print(f"  abs 1e-2   : ratio {x.nbytes / len(blob):6.2f}x  "
          f"max err {np.max(np.abs(out - x)):.4g} (bound 0.01)")

    blob = codec.compress(x, 1e-3, mode="rel")
    out = codec.decompress(blob)
    rng_x = float(x.max() - x.min())
    print(f"  rel 1e-3   : ratio {x.nbytes / len(blob):6.2f}x  "
          f"max err {np.max(np.abs(out - x)):.4g} (bound {1e-3 * rng_x:.4g})")

    y = np.abs(x) + 0.1  # strictly positive for a clean relative check
    blob = codec.compress(y, 0.05, mode="pw_rel")
    out = codec.decompress(blob)
    rel = np.max(np.abs((out - y) / y))
    print(f"  pw_rel 5e-2: ratio {y.nbytes / len(blob):6.2f}x  max rel err {rel:.4g}")


def demo_predictors() -> None:
    print("\n=== predictor choice ===")
    rng = np.random.default_rng(7)
    smooth = np.cumsum(np.cumsum(rng.standard_normal((48, 48, 48)), 0), 1).astype(np.float32)
    for predictor in ("interp", "lorenzo"):
        codec = SZCompressor(SZConfig(predictor=predictor))
        blob, stats = codec.compress_with_stats(smooth, 1e-4, mode="rel")
        print(f"  {predictor:8s}: ratio {stats.ratio:6.2f}x  "
              f"payload {stats.section_bytes.get('payload', 0)} B  "
              f"outliers {stats.n_outliers}")


def demo_archive_roundtrip() -> None:
    print("\n=== archiving a compressed AMR dataset ===")
    dataset = make_dataset("Run2_T2", scale=8)
    tac = TACCompressor()
    compressed = tac.compress(dataset, 1e-4, mode="rel")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run2_t2.tac"
        path.write_bytes(compressed.to_bytes())
        print(f"  wrote {path.stat().st_size} bytes "
              f"(ratio {compressed.ratio():.2f}x incl. masks + metadata)")

        # A different process restores it with no access to the original:
        loaded = CompressedDataset.from_bytes(path.read_bytes())
        restored = TACCompressor().decompress(loaded)
        print(f"  restored '{restored.name}': {restored.n_levels} levels, "
              f"{restored.total_points()} stored values")


@register_codec("lossless-zlib", description="DEFLATE per level, eb ignored (exact)")
class LosslessZlibCodec:
    """A minimal custom codec: per-level DEFLATE, bit-exact round-trip.

    Satisfying the :class:`repro.engine.Codec` protocol takes exactly the
    two methods below plus a ``method_name``; the ``@register_codec``
    decorator is the whole integration.  After it runs, the codec is
    resolvable by name (``get_codec("lossless-zlib")``), usable as an
    :class:`repro.ingest.IngestSession` ``codec=``, and archives it writes
    decompress through the registry automatically.
    """

    method_name = "lossless_zlib"

    def compress(self, dataset, error_bound, mode="rel", per_level_scale=None,
                 timings=None) -> CompressedDataset:
        out = CompressedDataset(
            method=self.method_name,
            dataset_name=dataset.name,
            original_bytes=dataset.original_bytes(),
            n_values=dataset.total_points(),
        )
        for lvl in dataset.levels:
            out.parts[f"L{lvl.level}/values"] = zlib.compress(lvl.values().tobytes(), 6)
            out.parts[f"{MASK_PREFIX}L{lvl.level}"] = pack_mask(lvl.mask)
        out.meta = {
            "name": dataset.name, "field": dataset.field, "ratio": dataset.ratio,
            "box_size": dataset.box_size, "dtype": str(dataset.dtype()),
            "shapes": [list(lvl.shape) for lvl in dataset.levels],
        }
        return out

    def decompress(self, comp, structure=None, timings=None) -> AMRDataset:
        meta = comp.meta
        dtype = np.dtype(meta["dtype"])
        levels = []
        for idx, shape in enumerate(meta["shapes"]):
            shape = tuple(shape)
            mask = unpack_mask(comp.parts[f"{MASK_PREFIX}L{idx}"], shape)
            values = np.frombuffer(
                zlib.decompress(comp.parts[f"L{idx}/values"]), dtype=dtype
            )
            data = np.zeros(shape, dtype=dtype)
            data[mask] = values
            levels.append(AMRLevel(data=data, mask=mask, level=idx))
        return AMRDataset(levels=levels, name=meta["name"], field=meta["field"],
                          ratio=meta["ratio"], box_size=meta["box_size"])


def demo_registry_extension() -> None:
    print("\n=== registering a custom codec ===")
    dataset = make_dataset("Run1_Z10", scale=16)

    # By-name lookup works immediately, including as an ingest session's codec.
    codec = get_codec("lossless-zlib")
    exact = codec.compress(dataset, error_bound=0.0)
    print(f"  lossless-zlib alone : ratio {exact.ratio():.2f}x (bit-exact)")

    with TemporaryDirectory() as tmp:
        for name in ("tac", "lossless-zlib"):
            head = Path(tmp) / f"{name}.rpbt"
            with IngestSession(head, codec=name, error_bound=1e-3) as session:
                key = session.submit(dataset, key=name)
            rows = {row["key"]: row for row in session.report.manifest()}
            ratio = rows[key]["original_bytes"] / rows[key]["compressed_bytes"]
            print(f"  session[{key:13s}]: ratio {ratio:.2f}x")

        # Archives written by the custom codec are self-describing: the
        # registry routes decompression by the recorded method name.
        with LazyBatchArchive.open(head) as archive:
            restored = archive.decompress("lossless-zlib")
    assert np.array_equal(restored.finest.data, dataset.finest.data)
    print("  lossless entry restored bit-exact from the sharded archive")


if __name__ == "__main__":
    demo_error_modes()
    demo_predictors()
    demo_archive_roundtrip()
    demo_registry_extension()
