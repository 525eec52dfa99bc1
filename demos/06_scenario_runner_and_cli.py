"""Scenario runner: batch verification with CSV/JSON reports, plus the CLI.

Declares a scenario (a weight plus a list of measures and factor windows),
runs every check for every measure, writes the deterministic reports, and
shows how the same scenario is driven through the `btk verify` command line.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from btk import (
    AtomicMeasure,
    Scenario,
    indicator_density,
    make_exponential_weight,
    power_density,
    run_scenario,
    sweep_family,
    write_report_csv,
    write_report_json,
)


def main():
    w = make_exponential_weight(1.0)
    scenario = Scenario(
        scenario_id="demo",
        weight=w,
        measures=(
            ("dA", indicator_density(0.0, 1.0)),
            ("power2", power_density(2.0, support=(0.0, 0.7))),
            ("atoms", AtomicMeasure([0.3, 0.5j], [1.0, 0.5])),
        ),
        dim=128,
        degree_max=800,
        lattice_r_max=0.6,
        r_max_ladder=(0.6, 0.7, 0.8),
    )

    rows = run_scenario(scenario)
    for row in rows:
        verdict = "ok" if row.passed else "FLAGGED"
        print(f"{row.measure_id:10s} {verdict:8s} "
              f"ratios: {({k: round(v, 4) for k, v in row.ratios.items()})}")

    out = Path(tempfile.mkdtemp(prefix="btk_demo_"))
    write_report_csv(rows, str(out / "report.csv"))
    write_report_json(rows, str(out / "report.json"))
    print(f"\nreports written to {out}")

    # parameter sweeps tabulate how every ratio moves with one knob
    print("\nsweep over truncation dimension (dA row):")
    for rec in sweep_family(scenario, "dim", (32, 64, 128)):
        if rec["measure_id"] == "dA":
            print(f"  dim={rec['value']:4}: lambda1/C_mu = "
                  f"{rec['ratio:lambda1_over_Cmu']:.4f}")

    # the same scenario as JSON, driven through the CLI
    spec = {
        "id": "demo-cli",
        "weight": {"family": "exponential", "alpha": 1.0},
        "measures": [
            {"id": "dA", "kind": "radial", "density": "indicator",
             "support": [0.0, 1.0]},
        ],
        "dim": 64,
        "degree_max": 400,
        "lattice_r_max": 0.5,
        "r_max_ladder": [0.5, 0.6],
    }
    spath = out / "scenario.json"
    spath.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "-m", "btk.cli", "verify", str(spath), "--out", str(out / "cli")],
        capture_output=True, text=True,
    )
    print(f"\nbtk verify exited {proc.returncode}")
    print(proc.stdout.strip())


if __name__ == "__main__":
    main()
