"""One step, six fields, one archive: the multi-field ingest front-end.

Run:  python examples/multifield_ingest.py [scale]

All six fields of a Nyx dump live on the same AMR grids, and every
(step x field) is an independent compression job.
:class:`repro.ingest.IngestSession` is the one way from many datasets to
one archive: ``submit_step`` takes the step's ``{field: AMRDataset}``
mapping, stores each level's mask *once* (in the first entry; the others
name it in ``meta["structure"]``), resolves the session's relative bound
against each field's own value range, and fans the fields over a worker
pool — byte-identical to the serial run.
Any one field reads back on its own through the lazy archive: its parts
plus the holder's masks, nothing else.
"""

import sys
import time
from pathlib import Path
from tempfile import TemporaryDirectory

from repro import LazyBatchArchive, make_dataset
from repro.ingest import IngestSession
from repro.sim import NYX_FIELDS


def main(scale: int = 8) -> None:
    fields = {f: make_dataset("Run1_Z2", scale=scale, field=f) for f in NYX_FIELDS}
    structure = next(iter(fields.values()))
    print(f"step: {structure.n_levels} levels, "
          f"{structure.total_points()} points/field, {len(fields)} fields")

    with TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        t0 = time.perf_counter()
        with IngestSession(tmp / "serial.rpbt", error_bound=1e-4) as session:
            session.submit_step(fields)
        t_serial = time.perf_counter() - t0

        t0 = time.perf_counter()
        with IngestSession(
            tmp / "step.rpbt", error_bound=1e-4, workers=4,
            meta={"pipeline": "example", "snapshot": "Run1_Z2"},
        ) as session:
            keys = session.submit_step(fields)
        t_parallel = time.perf_counter() - t0
        report = session.report

        identical = (tmp / "serial.shard-0000.rpsh").read_bytes() == (
            tmp / "step.shard-0000.rpsh"
        ).read_bytes()
        print(f"serial   : {t_serial:.3f}s")
        print(f"parallel : {t_parallel:.3f}s (4 workers)")
        print(f"outputs  : {'byte-identical' if identical else 'DIVERGED (bug!)'}")

        print(f"\narchive  : {report.n_entries} entries, {report.write.total_bytes()} bytes, "
              f"ratio {report.ratio():.2f}x")
        for row in report.manifest():
            print(f"  {row['key']:40s} {row['compressed_bytes']:>9d} B  "
                  f"({row['n_parts']} parts)")

        # How much did storing the masks once save vs six independent entries?
        with IngestSession(tmp / "each.rpbt", error_bound=1e-4) as session:
            each = [session.submit(fields[name]) for name in sorted(fields)]
        saved = session.report.write.total_bytes() - report.write.total_bytes()
        print(f"masks stored once save {saved / 1e3:.1f} kB vs {len(each)} independent entries")

        # A different process restores one field via the registry alone —
        # no structure= argument: the archive follows the reference.
        with LazyBatchArchive.open(tmp / "step.rpbt") as archive:
            key = keys[sorted(fields).index("temperature")]
            print(f"\n{key}: structure -> {archive.entry(key).meta['structure']}")
            t0 = time.perf_counter()
            restored = archive.decompress(key)
            print(f"selective restore: temperature -> {restored.total_points()} values, "
                  f"{restored.n_levels} levels in {time.perf_counter() - t0:.3f}s")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 8)
