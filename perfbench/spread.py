#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workloads two_tree_uniform --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --baseline perfbench/baseline.json

Each run is a separate `perfbench/run.py` process, one after another.  For
every end-to-end metric it prints the median of the runs and the spread: the
distance between the first and third quartile (`statistics.quantiles(n=4)`)
as a share of the median.  `--baseline` writes those figures, with the
environment of the last run, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--baseline", default=None, help="write the summary here")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            argv = [*bench["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=180, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["elapsed_s"] = time.monotonic() - start
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {result['elapsed_s']:.1f} s, failed "
                  f"{result['failed']}/{result['attempted']} {values}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"median": statistics.median(values), "spread": spread(values),
                             "unit": runs[0]["metrics"][name]["unit"], "values": values}
            flag = "" if metrics[name]["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload} {name}: median {metrics[name]['median']:.5g} "
                  f"spread {metrics[name]['spread']:.4f} bound {bounds[name]}{flag}", flush=True)
        summary[workload] = {
            "seeds": args.seeds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_elapsed_s": [r["elapsed_s"] for r in runs],
            "metrics": metrics,
        }
    if args.baseline:
        last = Path(".perfbench") / "results" / f"{workload}-seed{seed}-trace0.json"
        env = json.loads(last.read_text())["environment"]
        Path(args.baseline).write_text(json.dumps(
            {"run_seconds": bench["run_seconds"], "environment": env, "workloads": summary},
            indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
