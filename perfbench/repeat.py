"""Repeat run.py over several seeds and report each metric's median and spread.

    python3 perfbench/repeat.py --runs 10 [--workload NAME ...] [--trace-runs 2]
                                [--first-seed 1] [--write-baseline]

Runs are sequential, one process at a time.  The spread of a metric is the
distance between the first and third quartile of its values
(``statistics.quantiles(values, n=4)``) as a share of their median; the
benchmark is steady when every end-to-end spread except ``setup_s`` stays
well inside the metric's bound in BENCHMARK.json.  ``--write-baseline``
stores the medians, with the traced per-layer breakdown, in baseline.json,
which every run record then carries for comparison.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output check failed\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    baseline = {}
    for name in workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [_one(name, s, spec["run_seconds"], 0) for s in seeds]
        entry = {"seeds": list(seeds), "run_seconds": spec["run_seconds"], "end_to_end": {}}
        print(f"{name}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}")
        for metric in bounds:
            s = summarize([r[metric] for r in runs])
            entry["end_to_end"][metric] = s
            flag = "" if metric == "setup_s" or s["spread"] <= bounds[metric] / 3 else "  WIDE"
            print(f"  {metric:<16} median {s['median']:12.6g} {units[metric]:<5} "
                  f"spread {s['spread']:.4f}  (bound {bounds[metric]}){flag}")
        failed = statistics.median(1.0 - r["ops_ok_frac"] for r in runs)
        print(f"  {'ops_failed_frac':<16} median {failed:12.6g} frac")
        if args.trace_runs:
            traced = [_one(name, s, spec["run_seconds"], 1)
                      for s in range(seeds.stop, seeds.stop + args.trace_runs)]
            entry["per_layer"] = {k: statistics.median(r[k] for r in traced) for k in traced[0]}
            for k, v in entry["per_layer"].items():
                print(f"  {k:<36} {v:12.6g}")
        baseline[name] = entry
    if args.write_baseline:
        path = os.path.join(HERE, "baseline.json")
        old = {}
        if os.path.exists(path):
            with open(path) as fh:
                old = json.load(fh)
        old.update(baseline)
        with open(path, "w") as fh:
            json.dump(old, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
