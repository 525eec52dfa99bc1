"""The benchmark's workloads: inputs, timed operations and their outputs.

Each workload has a ``setup(variant, work_dir)`` that builds what users build
once (weights, measures, scenario files, basis tables) and a ``run(state)``
that performs the timed operations in order, one caller, each starting when
the previous one returns.  ``run`` yields ``(op_name, seconds, output)``;
outputs are plain JSON values that ``check.compare`` holds against
``reference.json`` (written by ``run.py --record-reference``).

The seed picks one of ``VARIANTS`` input variants.  Variants differ by a
rotation (atom phase, grid patch block) or by the random positions of a fixed
number of atoms and query centres, so the seed moves inputs far more than
cost.

Workloads call btk through module attributes (``btk.toeplitz.spectrum``), so
that the traced run sees these calls through the same patch table as the
library's own internal calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import time

import numpy as np

VARIANTS = 12


def _spiral(r_cap: float, count: int) -> np.ndarray:
    """Deterministic golden-angle spiral filling {|z| <= r_cap}."""
    k = np.arange(1, count + 1)
    return r_cap * np.sqrt(k / count) * np.exp(1j * k * 2.399963229728653)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# verify_ref: `btk verify` on the reference scenario
# ---------------------------------------------------------------------------
#
# Why: this is the path users run.  Most of its time is kernel series work in
# `basis` (the atomic Berezin L^p norm); `lattice` is a minority.  The
# power2_r07 row raises ConvergenceError at p = 0.5, r_max = 0.9 under the
# runner's default tolerances; it stays in, so the failure stays counted.

VERIFY_SETTINGS = {
    "dim": 128,
    "degree_max": 150,
    "lattice_r_max": 0.4,
    "r_max_ladder": [0.7, 0.8, 0.9],
    "p": [0.5, 1.0, 2.0],
}


def verify_scenario(variant: int) -> dict:
    phase = 0.5 * np.pi * variant / VARIANTS
    atoms = [
        [0.5 * np.cos(phase + 0.5 * np.pi * k), 0.5 * np.sin(phase + 0.5 * np.pi * k), 0.25]
        for k in range(4)
    ]
    return {
        "id": "verify_ref",
        "weight": {"family": "exponential", "alpha": 1.0},
        **VERIFY_SETTINGS,
        "measures": [
            {"id": "power2", "kind": "radial", "density": "power", "beta": 2.0},
            {"id": "power2_r07", "kind": "radial", "density": "power", "beta": 2.0,
             "support": [0.0, 0.7]},
            {"id": "atoms4", "kind": "atomic", "atoms": atoms},
        ],
    }


def verify_setup(variant: int, work_dir: str) -> dict:
    # `btk verify` builds the weight and measures itself, inside the timing
    path = os.path.join(work_dir, "scenario.json")
    with open(path, "w") as fh:
        json.dump(verify_scenario(variant), fh)
    return {"scenario": path, "out": os.path.join(work_dir, "report.csv")}


def _csv_value(text: str):
    if text in ("true", "false"):
        return text == "true"
    try:
        v = float(text)
    except ValueError:
        return text
    return int(v) if text.lstrip("-").isdigit() else v


def read_report(csv_path: str) -> dict:
    """report.csv cells per row, plus the error note report.json stores."""
    rows = {}
    with open(csv_path, newline="") as fh:
        for rec in csv.DictReader(fh):
            cells = {k: _csv_value(v) for k, v in rec.items()
                     if v != "" and k not in ("scenario_id", "measure_id")}
            rows[rec["measure_id"]] = {"cells": cells, "error": None}
    with open(csv_path.rsplit(".", 1)[0] + ".json") as fh:
        for rec in json.load(fh):
            if "error" in rec["flags"]:
                rows[rec["measure_id"]]["error"] = "; ".join(rec["notes"])
    return rows


def verify_run(state: dict):
    import btk.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code, dt = _timed(btk.cli.main, ["verify", state["scenario"], "--out", state["out"]])
    # exit status 1 means a row failed a window or raised: the command itself
    # completed, and the rows carry the failure
    yield "verify", dt, {"exit_code": code, "rows": read_report(state["out"])}


# ---------------------------------------------------------------------------
# operator_spectra: assemble -> spectrum -> Schatten norms -> Berezin symbol
# ---------------------------------------------------------------------------
#
# Why: toeplitz assembly and the Jacobi eigensolver dominate, once per
# operator structure (dense grid, finite-rank atoms, diagonal radial), with
# no lattice or disk-mass work.

SPECTRA_DEGREE = 2000
SPECTRA_PS = (0.5, 1.0, 2.0)
SPECTRA_BEREZIN_POINTS = 50
SPECTRA_LEADING = 8


def spectra_setup(variant: int, work_dir: str) -> dict:
    import btk

    w = btk.make_exponential_weight(1.0)
    rng = np.random.default_rng(variant)
    n_atoms = 128
    r = 0.8 * np.sqrt(rng.random(n_atoms))
    atoms = r * np.exp(2j * np.pi * rng.random(n_atoms))
    measures = [
        ("grid12x16", btk.GridDensityMeasure.area_measure(12, 16, r_outer=0.95), 160),
        ("atoms", btk.AtomicMeasure(atoms, np.full(n_atoms, 1.0 / n_atoms)), 256),
        ("power2", btk.power_density(2.0), 512),
    ]
    bt = btk.basis.build_basis_table(w, SPECTRA_DEGREE)
    return {"bt": bt, "measures": measures}


def spectra_run(state: dict):
    from btk import toeplitz

    bt = state["bt"]
    zs = _spiral(0.7, SPECTRA_BEREZIN_POINTS)
    for name, mu, dim in state["measures"]:
        t0 = time.perf_counter()
        tm = toeplitz.assemble_toeplitz(bt, mu, dim)
        rep = toeplitz.spectrum(tm)
        norms = [toeplitz.schatten_norm(rep, p) for p in SPECTRA_PS]
        ber = [toeplitz.berezin_operator(bt, tm, z) for z in zs]
        dt = time.perf_counter() - t0
        yield name, dt, {
            "structure": rep.structure,
            "dim": rep.dim,
            "eigenvalues": [float(x) for x in rep.eigenvalues[:SPECTRA_LEADING]],
            "schatten": dict(zip([f"p{p:g}" for p in SPECTRA_PS], norms)),
            "berezin": ber,
            "clip_magnitude": rep.clip_magnitude,
        }


# ---------------------------------------------------------------------------
# disk_geometry: lattice build, certification, queries, grid Carleson sup
# ---------------------------------------------------------------------------
#
# Why: `lattice` (build beside queries) and grid disk masses do all of the
# work, with no basis or toeplitz work.  The patch rows are fixed and only its
# angular block moves with the seed: the Carleson grid has 24 angles, a
# multiple of the 12 sectors, so every block costs the same.

GEOMETRY_LATTICE_R_MAX = 0.5
GEOMETRY_PROBES = 10_000
GEOMETRY_CENTRES = 100
GEOMETRY_BALL_ORDERS = (1, 2, 3, 4, 5)
GEOMETRY_CARLESON_R_MAX = 0.9
GEOMETRY_CARLESON_GRID = (48, 24)   # radii x angles; 24 is a multiple of 12


def geometry_setup(variant: int, work_dir: str) -> dict:
    import btk

    w = btk.make_exponential_weight(1.0)
    cells = np.zeros((8, 12))
    r_edges = np.linspace(0.0, 0.95, 9)
    ring_area = (r_edges[1:] ** 2 - r_edges[:-1] ** 2) / 12.0
    cols = (variant + np.arange(3)) % 12
    for i in (4, 5, 6):
        cells[i, cols] = ring_area[i]
    grid = btk.GridDensityMeasure(cells, r_outer=0.95)
    rng = np.random.default_rng(variant)
    r = GEOMETRY_LATTICE_R_MAX * np.sqrt(rng.random(GEOMETRY_CENTRES))
    centres = r * np.exp(2j * np.pi * rng.random(GEOMETRY_CENTRES))
    return {"w": w, "delta": w.m_tau / 8.0, "grid": grid, "centres": centres}


def lattice_digest(points: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(points, dtype=complex).tobytes()).hexdigest()


def geometry_run(state: dict):
    from btk import lattice, measures

    w, delta = state["w"], state["delta"]
    lat, dt = _timed(lattice.build_lattice, w, delta, GEOMETRY_LATTICE_R_MAX,
                     probe_count=GEOMETRY_PROBES)
    yield "build", dt, {
        "digest": lattice_digest(lat.points),
        "points": len(lat),
        "multiplicity_observed": lat.multiplicity_observed,
    }
    cert, dt = _timed(lattice.certify_lattice, lat, probe_count=GEOMETRY_PROBES)
    yield "certify", dt, {
        "separation_ok": cert.separation_ok,
        "min_separation_ratio": cert.min_separation_ratio,
        "covering_misses": cert.covering_misses,
        "probes_checked": cert.probes_checked,
        "multiplicity_observed": cert.multiplicity_observed,
        "passed": cert.passed,
    }
    t0 = time.perf_counter()
    parts = lattice.partition_separated(lat, 2)
    counts = [[lattice.count_in_ball(lat, c, m) for m in GEOMETRY_BALL_ORDERS]
              for c in state["centres"]]
    dt = time.perf_counter() - t0
    yield "query", dt, {"part_sizes": [len(p) for p in parts], "counts": counts}
    n_r, n_theta = GEOMETRY_CARLESON_GRID
    rep, dt = _timed(measures.carleson_constant, w, state["grid"], delta,
                     GEOMETRY_CARLESON_R_MAX, n_r=n_r, n_theta=n_theta)
    yield "carleson", dt, {
        "value": rep.value,
        "tail_sups": list(rep.tail_sups),
        "grid_size": rep.grid_size,
    }


WORKLOADS = {
    "verify_ref": (verify_setup, verify_run),
    "operator_spectra": (spectra_setup, spectra_run),
    "disk_geometry": (geometry_setup, geometry_run),
}
