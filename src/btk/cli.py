"""Command-line front end.

Subcommands:
  certify-weight  check the tau-function conditions for a weight JSON
  lattice         build and certify an adaptive lattice
  kernel-check    kernel-norm ratio spread over a radial grid
  toeplitz        assemble a Toeplitz matrix, report spectrum and norms
  verify          run a scenario JSON, write CSV + JSON reports

Basis tables are cached under $BTK_CACHE_DIR when set.  Exit status is 0 iff
every configured window passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .lattice import build_lattice, certify_lattice, save_lattice
from .measures import load_measure
from .runner import (
    cached_basis_table,
    kernel_ratio_range,
    run_scenario,
    scenario_from_json,
    write_report_csv,
    write_report_json,
)
from .toeplitz import assemble_toeplitz, spectrum, spectrum_to_json
from .weights import certify_class_L, weight_from_json


def _load_weight(path: str):
    with open(path) as fh:
        return weight_from_json(json.load(fh))


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True, default=float)
    sys.stdout.write("\n")


def _cmd_certify_weight(args) -> int:
    w = _load_weight(args.weight)
    report = certify_class_L(w, grid_size=args.grid)
    payload = dataclasses.asdict(report)
    payload["passed"] = report.passed
    payload["fingerprint"] = w.fingerprint()
    _emit(payload)
    return 0 if report.passed else 1


def _cmd_lattice(args) -> int:
    w = _load_weight(args.weight)
    delta = args.delta if args.delta is not None else w.m_tau / 8.0
    lat = build_lattice(w, delta, args.r_max, probe_count=args.probes)
    cert = certify_lattice(lat, probe_count=args.probes)
    if args.out:
        save_lattice(lat, args.out)
    _emit(
        {
            "points": len(lat),
            "delta": delta,
            "r_max": args.r_max,
            "separation_ok": cert.separation_ok,
            "min_separation_ratio": cert.min_separation_ratio,
            "covering_misses": cert.covering_misses,
            "probes_checked": cert.probes_checked,
            "multiplicity_observed": cert.multiplicity_observed,
            "passed": cert.passed,
        }
    )
    return 0 if cert.passed else 1


def _cmd_kernel_check(args) -> int:
    w = _load_weight(args.weight)
    bt = cached_basis_table(w, args.degree)
    ratio_min, ratio_max, spread = kernel_ratio_range(
        bt, np.linspace(0.0, args.r_max, args.grid)
    )
    passed = spread <= args.window
    _emit(
        {
            "grid": args.grid,
            "r_max": args.r_max,
            "degree_max": args.degree,
            "ratio_min": ratio_min,
            "ratio_max": ratio_max,
            "spread": spread,
            "window": args.window,
            "passed": passed,
        }
    )
    return 0 if passed else 1


def _cmd_toeplitz(args) -> int:
    w = _load_weight(args.weight)
    mu = load_measure(args.measure, w)
    degree = max(args.degree, args.dim - 1)
    bt = cached_basis_table(w, degree)
    tm = assemble_toeplitz(bt, mu, args.dim)
    rep = spectrum(tm)
    ps = [float(p) for p in args.p.split(",")]
    _emit(spectrum_to_json(rep, ps=ps))
    return 0


def _cmd_verify(args) -> int:
    with open(args.scenario) as fh:
        s = scenario_from_json(json.load(fh))
    rows = run_scenario(s)
    write_report_csv(rows, args.out)
    write_report_json(rows, args.out.rsplit(".", 1)[0] + ".json")
    ok = all(r.passed for r in rows)
    _emit(
        {
            "scenario": s.scenario_id,
            "rows": len(rows),
            "passed": ok,
            "failures": [r.measure_id for r in rows if not r.passed],
        }
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="btk", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify-weight", help="check tau-function conditions")
    p.add_argument("weight")
    p.add_argument("--grid", type=int, default=10_000)
    p.set_defaults(func=_cmd_certify_weight)

    p = sub.add_parser("lattice", help="build and certify a lattice")
    p.add_argument("weight")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--r-max", type=float, default=0.9)
    p.add_argument("--probes", type=int, default=100_000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("kernel-check", help="kernel-norm ratio spread")
    p.add_argument("weight")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--r-max", type=float, default=0.9)
    p.add_argument("--degree", type=int, default=2000)
    p.add_argument("--window", type=float, default=50.0)
    p.set_defaults(func=_cmd_kernel_check)

    p = sub.add_parser("toeplitz", help="assemble and diagonalize T_mu")
    p.add_argument("weight")
    p.add_argument("measure")
    p.add_argument("--dim", type=int, default=512)
    p.add_argument("--degree", type=int, default=2000)
    p.add_argument("--p", default="0.5,1,2")
    p.set_defaults(func=_cmd_toeplitz)

    p = sub.add_parser("verify", help="run a scenario and write reports")
    p.add_argument("scenario")
    p.add_argument("--out", default="report.csv")
    p.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
