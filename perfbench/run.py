"""btk benchmark: one workload, one process, one caller in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference     # rewrite reference.json
    python3 perfbench/run.py --delta-sweep          # criterion-9 report, untimed

Run from the root of a checkout; btk is imported from its ``src/``.  The
seed picks the input variant.  The run imports btk three times (here and in
two fresh interpreters) and sets the workload up three times; ``setup_s`` is
the median import plus the median set-up.  It then repeats the
workload's operations until ``--seconds`` have passed (``wall_s`` is the
median pass).  Every output is checked against ``reference.json``.  With
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
operations that raised or whose output left the reference; a `btk verify`
row whose error matches the recorded one is a completed operation, and it
lowers ``ops_ok_frac`` instead.  A run record with the environment, the
per-operation times and the baseline goes to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from check import compare, units
from spans import SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_runs")
REFERENCE = os.path.join(HERE, "reference.json")
BASELINE = os.path.join(HERE, "baseline.json")
SETUP_REPEATS = 3
FRESH_IMPORTS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the cores this process may use; before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def _import_btk():
    """btk from this checkout's src/, or SystemExit when the checkout has none."""
    if not os.path.isfile(os.path.join(SRC, "btk", "__init__.py")):
        raise SystemExit(f"perfbench: no btk sources under {SRC}")
    sys.path.insert(0, SRC)
    import btk

    if os.path.dirname(os.path.dirname(os.path.abspath(btk.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported btk from {btk.__file__}, not {SRC}")


def _fresh_import_seconds() -> float:
    """Seconds a new interpreter, started and awaited here, takes to import btk."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import btk; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def _git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _environment(cap: int, seed: int, variant: int) -> dict:
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "blas_thread_cap": cap,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "variant": variant,
        "git_commit": _git_commit(),
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Operations attempted, failed (raised or off the reference) and ok."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ok = 0
        self.problems: list[str] = []
        self.guard_errors: dict[str, str] = {}

    def record(self, workload: str, op: str, output: dict, reference: dict) -> None:
        guards = units(workload, op, output)
        for unit, problems in compare(workload, op, output, reference.get(op)).items():
            self.attempted += 1
            guard = guards.get(unit)
            if guard is not None:
                self.guard_errors[unit] = guard
            if problems:
                self.failed += 1
                self.problems.extend(f"{unit}: {p}" for p in problems)
            elif guard is None:
                self.ok += 1

    def raised(self, exc: BaseException, missing: int) -> None:
        self.attempted += missing
        self.failed += missing
        self.problems.append(f"raised {type(exc).__name__}: {exc}")


def _one_pass(workload: str, run, state, reference: dict, tally: Tally) -> tuple:
    """Run every operation once; returns (timed seconds, {op: seconds})."""
    times = {}
    try:
        for op, dt, output in run(state):
            times[op] = dt
            tally.record(workload, op, output, reference)
    except Exception as exc:  # a raised guard is a failed operation, not a crash
        tally.raised(exc, max(len(reference) - len(times), 1))
    return sum(times.values()), times


def _load_json(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, cap: int,
                 import_times: list) -> dict:
    import layers
    from workloads import VARIANTS, WORKLOADS

    from btk.errors import ConvergenceError

    setup, run = WORKLOADS[name]
    variant = seed % VARIANTS
    reference = _load_json(REFERENCE).get(name, {}).get(str(variant), {})
    work_dir = os.path.join(WORK, name)
    os.makedirs(work_dir, exist_ok=True)
    rec = SpanRecorder()

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = setup(variant, work_dir)
        setup_times.append(time.perf_counter() - t0)
    setup_totals = {}  # span totals of one traced set-up
    if trace:
        with layers.traced_btk(rec):
            state = setup(variant, work_dir)
        setup_totals = rec.totals()
        rec.clear()

    tally = Tally()
    walls, traced_walls, pass_metrics, coverage, op_times = [], [], [], [], []
    convergence_errors = []
    start = time.perf_counter()
    while True:
        traced_pass = trace and len(walls) > len(traced_walls)
        if traced_pass:
            with layers.traced_btk(rec):
                wall, times = _one_pass(name, run, state, reference, tally)
            totals = rec.totals()
            traced_walls.append(wall)
            pass_metrics.append(layers.span_metrics(totals))
            coverage.append(layers.covered_seconds(totals) / wall)
            convergence_errors.append(rec.errors(ConvergenceError))
            rec.clear()
        else:
            wall, times = _one_pass(name, run, state, reference, tally)
            walls.append(wall)
        op_times.append(times)
        if time.perf_counter() - start >= seconds and (not trace or traced_walls):
            break

    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "peak_rss_mb": _peak_rss_mb(),
        "ops_ok_frac": tally.ok / tally.attempted,
    }
    record = {
        "workload": name,
        "trace": trace,
        "environment": _environment(cap, seed, variant),
        "seconds": seconds,
        "passes": len(op_times),
        "import_times": import_times,
        "setup_times": setup_times,
        "op_times": op_times,
        "end_to_end": end_to_end,
        "ops_failed_frac": 1.0 - end_to_end["ops_ok_frac"],
        "guard_errors": tally.guard_errors,
        "problems": tally.problems[:50],
        "baseline": _load_json(BASELINE).get(name),
    }
    if trace:
        # layers that work during set-up (the basis table) keep that share
        setup_part = layers.span_metrics(setup_totals)
        per_layer = {key: setup_part[key] + statistics.median(m[key] for m in pass_metrics)
                     for key in setup_part}
        # every operation of verify_ref is a report row
        runner_rows = name == "verify_ref"
        per_layer["runner.rows"] = tally.attempted / len(op_times) if runner_rows else 0.0
        per_layer["runner.rows_failed"] = (
            (tally.attempted - tally.ok) / len(op_times) if runner_rows else 0.0)
        per_layer["measures.convergence_errors"] = float(statistics.median(convergence_errors))
        per_layer["trace.overhead_s"] = statistics.median(traced_walls) - end_to_end["wall_s"]
        record["per_layer"] = per_layer
        record["trace_coverage"] = statistics.median(coverage)
        record["traced_walls"] = traced_walls
    record["tally"] = {"attempted": tally.attempted, "failed": tally.failed, "ok": tally.ok}
    with open(os.path.join(WORK, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    return record


def _print_summary(record: dict, unit_of: dict) -> None:
    name = record["workload"]
    print(f"workload {name}: {record['passes']} passes, "
          f"variant {record['environment']['variant']}, "
          f"{record['environment']['blas_thread_cap']} BLAS threads")
    for key, val in record["end_to_end"].items():
        print(f"  {key:<36} {val:14.6g} {unit_of[key]}")
    print(f"  {'ops_failed_frac':<36} {record['ops_failed_frac']:14.6g} frac")
    for unit, note in record["guard_errors"].items():
        print(f"  guard error in {unit}: {note}")
    for problem in record["problems"][:10]:
        print(f"  OUTPUT CHECK: {problem}")
    if record["trace"]:
        for key, val in record["per_layer"].items():
            print(f"  {key:<36} {val:14.6g} {unit_of[key]}")
        print(f"  {'trace coverage of wall_s':<36} {record['trace_coverage']:14.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    ap.add_argument("--delta-sweep", action="store_true")
    args = ap.parse_args(argv)

    cap = _cap_threads()
    os.environ.pop("BTK_CACHE_DIR", None)
    t0 = time.perf_counter()
    _import_btk()
    import_times = [time.perf_counter() - t0]

    if args.record_reference:
        import reference

        reference.record(REFERENCE, os.path.join(WORK, "reference"))
        return 0
    if args.delta_sweep:
        import delta_sweep

        delta_sweep.report()
        return 0

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    # imports are part of set-up; two more in fresh interpreters give a median
    import_times += [_fresh_import_seconds() for _ in range(FRESH_IMPORTS)]
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          cap, import_times)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]
    unit_of = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    _print_summary(record, unit_of)
    values = record["per_layer"] if args.trace else record["end_to_end"]
    tally = record["tally"]
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics_spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
