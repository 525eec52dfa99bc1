"""Command-line front end.

Subcommands:
  certify-weight  check the tau-function conditions for a weight JSON
  lattice         build and certify an adaptive lattice
  kernel-check    kernel-norm ratio spread over a radial grid
  toeplitz        assemble a Toeplitz matrix, report spectrum and norms
  verify          run a scenario JSON, write CSV + JSON reports

Exit status is 0 iff every configured window passed, and 1 when one failed.
A btk error (bad input, a failed guard or quadrature), an input file that
cannot be read or an output that cannot be written prints one line on
stderr and exits 2.  Outputs are checked before any work, also for
overwriting an input or another output.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys

import numpy as np

from .basis import build_basis_table
from .errors import BtkError, ParameterError, load_json
from .lattice import build_lattice, certify_lattice, save_lattice
from .measures import load_measure
from .runner import (
    kernel_ratio_range,
    run_scenario,
    scenario_from_json,
    write_report_csv,
    write_report_json,
)
from .toeplitz import assemble_toeplitz, spectrum, spectrum_to_json
from .weights import certify_class_L, weight_from_json


def _load_weight(path: str):
    return weight_from_json(load_json(path))


def _check_outputs(inputs: list, outputs: list) -> None:
    """Fail before any work on an output path that cannot be written, or that
    would overwrite an input file or an earlier output."""
    taken = {os.path.realpath(p): "an input" for p in inputs}
    for out in outputs:
        real = os.path.realpath(out)
        if real in taken:
            raise ParameterError(f"output {out} would overwrite {taken[real]}")
        taken[real] = "another output"
        folder = os.path.dirname(real)
        if not os.path.isdir(folder):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), folder)
        if os.path.isdir(real):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)


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
    _check_outputs([args.weight], [args.out] if args.out else [])
    w = _load_weight(args.weight)
    delta = args.delta if args.delta is not None else w.m_tau / 8.0
    lat = build_lattice(w, delta, args.r_max, probe_count=args.probes)
    cert = certify_lattice(lat, probe_count=args.probes)
    if args.out:
        save_lattice(lat, args.out)
    _emit({**dataclasses.asdict(cert), "points": len(lat), "delta": delta, "r_max": args.r_max,
           "repairs_failed": lat.repairs_failed, "passed": cert.passed})
    return 0 if cert.passed else 1


def _cmd_kernel_check(args) -> int:
    if args.grid < 2:
        raise ParameterError(f"--grid must be >= 2 radii for a spread, got {args.grid}")
    w = _load_weight(args.weight)
    bt = build_basis_table(w, args.degree)
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
    try:
        ps = [float(p) for p in args.p.split(",")]
    except ValueError:
        ps = []
    if not ps or not all(0.0 < p < math.inf for p in ps):
        raise ParameterError(f"--p must be comma-separated positive numbers, got {args.p!r}")
    w = _load_weight(args.weight)
    mu = load_measure(args.measure, w)
    degree = max(args.degree, args.dim - 1)
    bt = build_basis_table(w, degree)
    tm = assemble_toeplitz(bt, mu, args.dim)
    rep = spectrum(tm)
    _emit(spectrum_to_json(rep, ps=ps))
    return 0


def _cmd_verify(args) -> int:
    json_out = os.path.splitext(args.out)[0] + ".json"
    _check_outputs([args.scenario], [args.out, json_out])
    s = scenario_from_json(load_json(args.scenario))
    rows = run_scenario(s)
    write_report_csv(rows, args.out)
    write_report_json(rows, json_out)
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
    try:
        return args.func(args)
    except (BtkError, OSError) as exc:
        print(f"btk: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
