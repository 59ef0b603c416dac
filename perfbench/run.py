#!/usr/bin/env python3
"""Benchmark of plane-layers: build, verify and certify, end to end and per stage.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The package is imported from `src/`, compiled from source every time.
Set-up imports it afresh and generates and writes the seeded inputs, twenty-one
times; the median is `setup_s`.  Every timed call is scaled to a fixed host
speed by a calibration kernel run just before and after it (calibrate.py);
wall times are kept in the record.  With `--trace 0` each instance runs once,
in order; their number is `--seconds` times the workload's fixed rate, so the
seed and `--seconds` alone fix the instances, whatever the speed of the code.
The end-to-end metrics are printed.  With `--trace 1` a fixed number of
instances runs once untraced and once under the outside-in tracer; the
per-stage metrics are printed.  Every operation's output is checked exactly;
a failing operation counts in `failed`.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A fuller record (environment, output
digests, failures) goes to `.perfbench/results/`.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no bytecode caches in the source tree

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from calibrate import REF_S, Calibration
from tracer import Tracer
from workloads import SPANS, WORKLOADS, Recorder

SETUP_REPEATS = 21
OUT_DIR = Path(".perfbench")
PACKAGE_MODULES = ("geometry", "mst", "centralized", "distributed", "verify", "cli")


def fresh_import(pycache: Path) -> SimpleNamespace:
    """Import plane_layers as a new process would, dropping any loaded copy.

    Bytecode is looked up under `pycache`, an empty directory, so the package
    is compiled from source whatever caches `src/` holds."""
    for name in [m for m in sys.modules if m == "plane_layers" or m.startswith("plane_layers.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    prefix, sys.pycache_prefix = sys.pycache_prefix, str(pycache)
    try:
        return SimpleNamespace(
            **{m: importlib.import_module(f"plane_layers.{m}") for m in PACKAGE_MODULES}
        )
    finally:
        sys.pycache_prefix = prefix


def set_up(workload, seed: int, count: int, workdir: Path, cal: Calibration):
    """Import and generate `count` instances SETUP_REPEATS times; keep the
    last, time each."""
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        (mods, instances), took, took_scaled = cal.timed(
            lambda: (m := fresh_import(workdir / "pycache"),
                     workload.generate(m, seed, workdir, count))
        )
        wall.append(took)
        scaled.append(took_scaled)
    return mods, instances, scaled, wall


def host_drift(cal: Calibration) -> dict:
    """Spread of the identical calibration-kernel calls made during the run."""
    xs = cal.samples
    q1, med, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return {"calls": len(xs), "median_s": med, "min_s": min(xs), "max_s": max(xs),
            "iqr_share": (q3 - q1) / med, "range_share": (max(xs) - min(xs)) / med}


def measure(workload, mods, instances, cal: Calibration) -> Recorder:
    """Run every instance once, in order."""
    rec = Recorder(cal)
    for inst in instances:
        workload.run(mods, inst, rec, nullcontext)
    return rec


def summarize(times: list[float]) -> str:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    if not times:
        return "no samples"
    text = f"median of {len(times)}"
    if len(times) >= 11:
        pct = int(100 * (1 - 10 / len(times)))
        text += f"; p{pct} {statistics.quantiles(times, n=100)[pct - 1]:.4f}"
    return text + f"; max {max(times):.4f}"


def end_to_end(rec: Recorder, setup_times: list[float]) -> dict:
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    return {
        "build_s": (med(rec.times["build"]), "s"),
        "verify_s": (med(rec.times["verify"]), "s"),
        "pts_per_s": (rec.points / rec.point_seconds if rec.point_seconds else 0.0, "pts/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, instances: int, overhead_s: float) -> dict:
    out = {}
    for name, stats in tracer.stats.items():
        out[f"{name}.calls"] = (stats.calls, "count")
        out[f"{name}.self_s"] = (stats.self_s, "s")
    centers = tracer.stats["distributed.center_point"].calls
    tukey = tracer.stats["distributed.tukey_depth"].calls
    out["distributed.tukey_per_center"] = (tukey / centers if centers else 0.0, "calls/center")
    emst = tracer.stats["mst.build_emst"].calls
    out["mst.build_emst.per_instance"] = (emst / instances, "calls/instance")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def run_workload(workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR):
    """Set up, measure and check one workload; write and return its record.

    `record["result"]` is the object the last output line carries."""
    workdir = out_dir / f"work-{workload.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["PLANE_LAYERS_DUMP_DIR"] = str((out_dir / "dumps").resolve())
    record: dict = {"workload": workload.name, "interface": workload.interface,
                    "params": workload.params, "seed": seed, "seconds": seconds,
                    "trace": int(trace)}
    try:
        cal = Calibration()
        count = workload.trace_instances if trace else workload.count(seconds)
        mods, instances, setup_times, setup_wall = set_up(workload, seed, count, workdir, cal)
        if not trace:
            rec = measure(workload, mods, instances, cal)
            recs = [rec]
            metrics = end_to_end(rec, setup_times)
            extra = {"certify_s": (statistics.median(rec.times["certify"]), "s")} \
                if rec.times["certify"] else {}
        else:
            plain = Recorder(cal)
            start = perf_counter()
            for inst in instances:
                workload.run(mods, inst, plain, nullcontext)
            plain_s = perf_counter() - start
            traced = Recorder(cal)
            with Tracer(SPANS) as tracer:
                start = perf_counter()
                for inst in instances:
                    workload.run(mods, inst, traced, tracer.paused)
                traced_s = perf_counter() - start
            recs = [plain, traced]
            metrics = per_layer(tracer, len(instances), traced_s - plain_s)
            extra = {
                "traced_ops_s": (sum(sum(t) for t in traced.wall.values()), "s"),
                "traced_self_sum_s": (sum(st.self_s for st in tracer.stats.values()), "s"),
                "untraced_wall_s": (plain_s, "s"),
                "traced_wall_s": (traced_s, "s"),
            }
            record["absent_spans"] = tracer.absent
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    digests = recs[-1].digests
    combined = "\n".join(f"{k} {digests[k]}" for k in sorted(digests))
    record.update({
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "host_drift": host_drift(cal),
        },
        "calibration_ref_s": REF_S,
        "setup_s_samples": setup_times,
        "setup_wall_s_samples": setup_wall,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "times": recs[-1].times,
        "wall_times": recs[-1].wall,
        "attempted": attempted,
        "failed": failed,
        "failed_ops": failed / attempted,
        "failures": [f for r in recs for f in r.failures][:20],
        "outputs_sha256": hashlib.sha256(combined.encode()).hexdigest(),
        "outputs_per_instance": digests,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
    })
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def report_lines(record: dict) -> list[str]:
    """Every metric of a record by name, with its unit, for people to read."""
    lines = [f"workload {record['workload']} ({record['interface']}) seed {record['seed']} "
             f"trace {record['trace']}: {record['attempted']} operations, {record['failed']} "
             f"failed (failed_ops {record['failed_ops']:.4f})"]
    timed = {"build_s": "build", "verify_s": "verify", "certify_s": "certify"}
    for name, m in record["metrics"].items():
        note = ""
        if name in timed and not record["trace"] and record["wall_times"][timed[name]]:
            wall = statistics.median(record["wall_times"][timed[name]])
            note = f"  ({summarize(record['times'][timed[name]])}; wall median {wall:.4f} s)"
        lines.append(f"  {name} {m['value']:.6g} {m['unit']}{note}")
    drift = record["environment"]["host_drift"]
    lines.append(f"  host drift: calibration kernel {drift['median_s']:.4f} s median, "
                 f"quartiles {drift['iqr_share']:.3f} and range {drift['range_share']:.3f} "
                 f"of it over {drift['calls']} calls")
    lines.append(f"  outputs sha256 {record['outputs_sha256'][:16]} "
                 f"over {len(record['outputs_per_instance'])} instances")
    lines += [f"  FAILED {failure}" for failure in record["failures"]]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    src = Path("src")
    if not (src / "plane_layers" / "__init__.py").is_file():
        print("perfbench: src/plane_layers not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print("\n".join(report_lines(record)), flush=True)
        result = record["result"]
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        total["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(total), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
