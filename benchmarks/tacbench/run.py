#!/usr/bin/env python3
"""tacbench — the end-to-end and per-layer benchmark of the TAC stack.

Three ways to call it (from the repository root)::

    python3 benchmarks/tacbench/run.py [--workload NAME] [--seed N] [--runs K]
        every (or one) workload, each run in a fresh child process: K
        untraced runs (seeds N..N+K-1) plus one traced run; prints every
        metric by name with its unit and writes results/tacbench.json.

    python3 benchmarks/tacbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run in this process (what the driver of BENCHMARK.json calls);
        the last stdout line is the result object.  ``--trace 0`` measures
        the end-to-end metrics, ``--trace 1`` the per-layer ones.

    python3 benchmarks/tacbench/run.py --compare A.json B.json
        medians, quartiles, relative change and verdict per workload x metric.

``--smoke`` shrinks the grids (scale 8) and runs two rounds; the tests use it.
The process exits non-zero when an operation failed its check or a declared
metric was not emitted.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
import zlib
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import spec  # noqa: E402

#: Drift of the speed probe between the start and the end of a run above
#: which the run is marked noisy (shared 2-core box).
NOISY_DRIFT = 0.10


# -- noise guard -----------------------------------------------------------------

class SpeedProbe:
    """A ~5 ms fixed loop that tells how fast the box is *right now*.

    The sandbox flips between an uncontended and a contended state (another
    tenant on the sibling hardware thread): the same compress call takes
    400 ms or 590 ms, for tens of seconds at a time, which no median over an
    8 s run removes.  Each timed operation is therefore bracketed by this
    probe and its time is reported at reference speed:
    ``seconds * REF_MS / probe_ms``.  The loop mixes what the measured
    program is made of — interpreter-bound Python, many small NumPy calls,
    DEFLATE — because those slow down by the same factor as the program
    (1.45-1.5x) while large vectorised kernels slow down by only 1.1-1.3x.
    It touches nothing of ``repro``, so no optimisation can move it.
    """

    REF_MS = 5.3  # the probe on the uncontended sandbox
    MAX_AGE = 0.1  # seconds a reading may be reused for

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = [rng.random(512) for _ in range(8)]
        self._raw = rng.integers(0, 61, 1 << 17).astype(np.uint8).tobytes()
        self._at = float("-inf")
        self._ms = self.REF_MS

    def measure(self) -> float:
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(6000):
            counts[i & 255] = counts.get(i & 255, 0) + i
        for _ in range(60):
            for a in self._small:
                (a * 2.0 + 1.0).sum()
        zlib.compress(self._raw, 1)
        self._at = time.perf_counter()
        self._ms = 1e3 * (self._at - start)
        return self._ms

    def recent(self) -> float:
        """The last reading if it is younger than ``MAX_AGE``, else a new one."""
        if time.perf_counter() - self._at > self.MAX_AGE:
            self.measure()
        return self._ms

    def settled(self) -> float:
        """Median of five readings (start / end of a run)."""
        return statistics.median(self.measure() for _ in range(5))


def machine_meta(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"  # the driver's checkout is not a git repository
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
        "seed": seed,
        "commit": commit,
    }


# -- one run -----------------------------------------------------------------------

class Tally:
    """Operations attempted/failed and the timings of the successful ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: kind -> [(seconds at reference speed, seconds as measured, bytes)]
        self.samples = {"write": [], "read": []}

    def seconds(self, kind: str) -> list[float]:
        return [s for s, _raw, _n in self.samples[kind]]

    def wall(self) -> float:
        return sum(s for kind in self.samples for s in self.seconds(kind))


def timed(probe: SpeedProbe, fn):
    """``(result, seconds at reference speed, seconds as measured)``."""
    before = probe.recent()
    start = time.perf_counter()
    out = fn()
    seconds = time.perf_counter() - start
    scale = 2.0 * probe.REF_MS / (before + probe.recent())
    return out, seconds * scale, seconds


def run_ops(ops, tally: Tally, probe: SpeedProbe, tracer=None) -> None:
    """Closed loop: time the op's stages, then check its output untimed."""
    for op in ops:
        tally.attempted += 1
        try:
            with tracer.request(f"op.{op.kind}") if tracer else nullcontext() as root:
                seconds = raw = 0.0
                for stage in op.stages:
                    out, at_reference, as_measured = timed(probe, stage)
                    seconds += at_reference
                    raw += as_measured
            if root is not None:
                root.attrs["scale"] = seconds / raw
            ok = op.check(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        out = None  # every operation starts from the same heap
        if ok:
            tally.samples[op.kind].append((seconds, raw, op.nbytes))
        else:
            tally.failed += 1


def measure(workload, tally, probe, *, seconds=None, n_rounds=None, tracer=None) -> int:
    """Whole rounds until ``seconds`` have passed (or exactly ``n_rounds``)."""
    start = time.perf_counter()
    done = 0
    for ops in workload.rounds():
        if n_rounds is not None:
            if done >= n_rounds:
                break
        elif done and time.perf_counter() - start >= seconds:
            break
        run_ops(ops, tally, probe, tracer)
        done += 1
    return done


def end_to_end(workload, setups, tally: Tally, column: int = 0) -> dict:
    """Everything but ``peak_alloc_mb``, which the caller measures next (its
    round writes a shorter archive, so ratio and PSNR are read first).
    ``column`` 0 reads times at reference speed, 1 as measured."""
    writes = tally.samples["write"] or workload.setup_writes
    reads = [sample[column] for sample in tally.samples["read"]]
    return {
        "setup_s": statistics.median(s[column] for s in setups),
        "write_mb_s": statistics.median(s[2] / 1e6 / s[column] for s in writes)
        if writes else None,
        "read_ms_p50": 1e3 * statistics.median(reads) if reads else None,
        "compression_ratio": workload.ratio or None,
        "psnr_db": workload.psnr_db() if reads else None,
    }


def traced_pass(workload, probe, seconds, smoke, counters):
    """Reference rounds untraced, the same number traced; per-layer metrics."""
    from layers import HOOKS, derive
    from tracing import Tracer, install

    reference = Tally()
    n_rounds = measure(
        workload, reference, probe, seconds=seconds / 2, n_rounds=2 if smoke else None
    )
    tracer = Tracer()
    restore, missing = install(tracer, spec.SPANS, HOOKS)
    try:
        from repro.sz.huffman import decode_table_cache_info
    except ImportError:
        decode_table_cache_info = None
        missing.append("sz.decode_table_cache")
    try:
        from repro.utils.timer import TimingRecord

        workload.timings = TimingRecord()
    except ImportError:
        missing.append("core.postprocess")
    before = decode_table_cache_info() if decode_table_cache_info else None
    traced = Tally()
    try:
        measure(workload, traced, probe, n_rounds=n_rounds, tracer=tracer)
    finally:
        restore()
    if before is not None:
        after = decode_table_cache_info()
        lookups = after.hits + after.misses - before.hits - before.misses
        counters["decode_table_hit_rate"] = (
            (after.hits - before.hits) / lookups if lookups else 0.0
        )
    if workload.timings is not None:
        counters["postprocess_s"] = workload.timings.spans.get("postprocess", 0.0)
        workload.timings = None
    counters["trace_overhead_share"] = traced.wall() / reference.wall() - 1.0
    counters.update(workload.counters)
    envelopes = {name for name, _target, envelope in spec.SPANS if envelope}
    n_ops = {kind: len(samples) for kind, samples in traced.samples.items()}
    per_layer = derive(tracer.spans, missing, envelopes, n_ops, counters)
    tracer.write_jsonl(RESULTS / f"trace_{workload.name}.jsonl")
    return per_layer, missing, [reference, traced]


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One workload, one seed, in this process; returns the detail record."""
    from workloads import REGISTRY

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"tmp-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    workload = REGISTRY[name](seed, smoke, workdir)
    try:
        detail = drive(workload, seconds, trace, smoke)
    finally:
        try:
            workload.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    detail.update(workload=name, seed=seed, trace=trace, smoke=smoke)
    return detail


def drive(workload, seconds: float, trace: int, smoke: bool) -> dict:
    """Set-up, warm-up, measurement (or traced pass), peak allocation."""
    marks = [("start", time.perf_counter())]  # where the run's wall time went
    probe = SpeedProbe()
    workload.timed = functools.partial(timed, probe)
    probe_start = probe.settled()
    setups = [workload.timed(workload.setup)[1:] for _ in range(workload.setup_repeats)]
    marks.append(("setup", time.perf_counter()))
    workload.prepare()
    marks.append(("prepare", time.perf_counter()))

    warmup = Tally()  # discarded: first passes are not steady state
    run_ops(workload.warmup_round(), warmup, probe)
    counters = {"sim_s": workload.sim_seconds}
    if getattr(workload, "chain_cold_warmup", False) and warmup.seconds("read"):
        counters["chain_cold_ms_p50"] = 1e3 * statistics.median(warmup.seconds("read"))
    marks.append(("warmup", time.perf_counter()))

    detail = {}
    tallies = [warmup]
    if trace:
        metrics, detail["trace_missing"], passes = traced_pass(
            workload, probe, seconds, smoke, counters
        )
        tallies += passes
        marks.append(("traced", time.perf_counter()))
    else:
        measured = Tally()
        measure(workload, measured, probe, seconds=seconds, n_rounds=2 if smoke else None)
        metrics = end_to_end(workload, setups, measured)
        detail["as_measured"] = end_to_end(workload, setups, measured, column=1)
        detail["n"] = {kind: len(s) for kind, s in measured.samples.items()}
        detail["n"]["setup"] = len(setups)
        marks.append(("measure", time.perf_counter()))
        peak = Tally()
        tracemalloc.start()
        try:
            run_ops(workload.peak_round(), peak, probe)
            metrics["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        detail["as_measured"]["peak_alloc_mb"] = metrics["peak_alloc_mb"]
        tallies += [measured, peak]
        marks.append(("peak", time.perf_counter()))
    drift = probe.settled() / probe_start - 1.0
    if trace:
        metrics["calib.drift_share"] = abs(drift)
    detail.update(
        metrics=metrics,
        attempted=sum(t.attempted for t in tallies),
        failed=sum(t.failed for t in tallies),
        probe_ms=probe_start,
        calib_drift_share=drift,
        noisy=abs(drift) > NOISY_DRIFT,
        phase_s={name: round(at - marks[i][1], 3) for i, (name, at) in enumerate(marks[1:])},
    )
    return detail


def contract_line(detail: dict) -> dict:
    """The result object of BENCHMARK.json's contract.  Values must be
    numbers there, so a per-layer metric whose span target is gone (``null``
    in the detail file, listed under ``trace_missing``) reads -1."""
    declared = spec.PER_LAYER if detail["trace"] else spec.END_TO_END
    metrics = {}
    complete = True
    for name, unit, *_ in declared:
        value = detail["metrics"].get(name)
        if value is None:
            complete = complete and bool(detail["trace"])
            value = -1.0
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": complete and detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }


def child_main(args) -> int:
    if args.workload not in spec.WORKLOADS:
        print(f"tacbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    detail = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    detail["_meta"] = machine_meta(args.seed)
    (RESULTS / f"run_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1)
    )
    line = contract_line(detail)
    print(f"tacbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' NOISY' if detail['noisy'] else ''}")
    for name, entry in line["metrics"].items():
        print(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    for name in detail.get("trace_missing", []):
        print(f"  trace_missing: {name}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# -- every workload, child processes ---------------------------------------------

def parent_main(args) -> int:
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    report = {"_meta": machine_meta(args.seed), "workloads": {}}
    status = 0
    for name in names:
        entry = {"runs": [], "per_layer": None, "trace_missing": []}
        plan = [(args.seed + i, 0) for i in range(args.runs)] + [(args.seed, 1)]
        for seed, trace in plan:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            status = status or done.returncode
            detail_file = RESULTS / f"run_{name}_trace{trace}.json"
            if done.returncode not in (0, 1) or not detail_file.is_file():
                print(f"tacbench: {name} seed={seed} trace={trace} did not finish")
                status = status or 2
                continue
            detail = json.loads(detail_file.read_text())
            if trace:
                entry["per_layer"] = detail["metrics"]
                entry["trace_missing"] = detail["trace_missing"]
                entry["trace_failed"] = detail["failed"]
            else:
                entry["runs"].append(
                    {key: detail[key] for key in
                     ("seed", "metrics", "as_measured", "attempted", "failed", "n", "noisy",
                      "calib_drift_share", "probe_ms")}
                )
        report["workloads"][name] = entry
        print_workload(name, entry)
    out = Path(args.out) if args.out else RESULTS / "tacbench.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"wrote {out}")
    return status


def print_workload(name: str, entry: dict) -> None:
    runs = entry["runs"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    noisy = sum(r["noisy"] for r in runs)
    print(f"\n== {name}: {len(runs)} run(s), fail_share {failed}/{attempted}"
          f"{f', {noisy} noisy' if noisy else ''}")
    for metric, unit, _better, _bound in spec.END_TO_END:
        shown = []
        for column in ("metrics", "as_measured"):
            values = [r[column][metric] for r in runs if r[column].get(metric) is not None]
            shown.append(f"{statistics.median(values):.6g}" if values else "missing")
        kind = metric.split("_")[0]  # setup / write / read have a sample count
        n = ""
        if runs and kind in runs[0]["n"]:
            n = f", n={runs[0]['n'][kind] or 'set-up repeats'} per run"
        print(f"  {metric:<36} {shown[0]:>14} {unit}  (as measured {shown[1]}{n})")
    for metric, unit, _better in spec.PER_LAYER:
        value = (entry["per_layer"] or {}).get(metric)
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {metric:<36} {shown:>14} {unit}")
    for missing in entry["trace_missing"]:
        print(f"  trace_missing: {missing}")


# -- compare -----------------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3); a single value has no spread to speak of."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def compare_main(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    regressed = False
    print(f"{'workload':<14} {'metric':<18} {'A median [q1,q3]':<32} "
          f"{'B median [q1,q3]':<32} {'B vs A':>8} {'bound':>6}  verdict")
    for name in spec.WORKLOADS:
        if name not in a or name not in b:
            continue
        for metric, _unit, better, bound in spec.END_TO_END:
            sides = []
            for side in (a, b):
                values = [r["metrics"].get(metric) for r in side[name]["runs"]]
                sides.append([v for v in values if v is not None])
            if not all(sides):
                print(f"{name:<14} {metric:<18} missing")
                regressed = True
                continue
            (a1, am, a3), (b1, bm, b3) = quartiles(sides[0]), quartiles(sides[1])
            change = bm / am - 1.0
            worse = -change if better == "higher" else change
            spread = max((a3 - a1) / am, (b3 - b1) / bm)
            single = min(len(sides[0]), len(sides[1])) < 2
            if worse > bound:
                verdict, regressed = "REGRESSED", True
            elif spread > bound or single:
                verdict = f"unresolved (spread {spread:.1%}{', n=1' if single else ''})"
            else:
                verdict = "improved" if worse < -bound else "unchanged"
            print(f"{name:<14} {metric:<18} "
                  f"{f'{am:.5g} [{a1:.5g}, {a3:.5g}]':<32} "
                  f"{f'{bm:.5g} [{b1:.5g}, {b3:.5g}]':<32} "
                  f"{change:>+8.2%} {bound:>6.1%}  {verdict}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of: " + ", ".join(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="0 keeps the registry data; S shifts the box and redraws ROIs")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run in this process and print the result object")
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload")
    parser.add_argument("--out", help="result file (default results/tacbench.json)")
    parser.add_argument("--smoke", action="store_true", help="scale 8, two rounds")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare_main(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"tacbench: {ROOT / 'src' / 'repro'} not found; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return child_main(args)
    return parent_main(args)


if __name__ == "__main__":
    sys.exit(main())
