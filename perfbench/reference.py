"""Record the outputs the benchmark's check compares against.

Runs one pass of every workload for every input variant and writes
``{workload: {variant: {op: output}}}``.  Run it on the commit whose outputs
are the reference; a change that is meant to alter outputs re-records it in
its own benchmark change.
"""

from __future__ import annotations

import json
import os

from workloads import VARIANTS, WORKLOADS


def record(path: str, work_dir: str) -> None:
    os.makedirs(work_dir, exist_ok=True)
    out = {}
    for name, (setup, run) in WORKLOADS.items():
        out[name] = {}
        for variant in range(VARIANTS):
            state = setup(variant, work_dir)
            out[name][str(variant)] = {op: output for op, _, output in run(state)}
            print(f"recorded {name} variant {variant}", flush=True)
    with open(path, "w") as fh:
        json.dump(out, fh, sort_keys=True)
        fh.write("\n")
