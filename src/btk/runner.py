"""Scenario runner: wires weights, lattices, kernels, measures and operators
into two-sided-estimate ratio reports.

A Scenario fixes one weight, a delta, an r_max ladder, a truncation dimension,
a list of p values and a family of measures, plus the set of checks to run.
run_scenario produces one ReportRow per measure with the computed quantities,
the two-sided ratios, and pass/fail flags against configured windows.
Everything is deterministic: fixed grids, no randomness.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import BasisTable, build_basis_table, kernel_norm_sq_many
from .errors import ParameterError
from .lattice import Lattice, build_lattice, certify_lattice
from .measures import (
    AtomicMeasure,
    Measure,
    berezin_lp_norm,
    berezin_many,
    carleson_constant,
    lattice_lp_sum,
    measure_from_json,
    mu_hat_lp_norm,
    mu_hat_many,
)
from .toeplitz import assemble_toeplitz, berezin_operator, schatten_norm, spectrum
from .weights import RadialWeight, weight_from_json

ALL_CHECKS = (
    "kernel_estimates",
    "lattice_cert",
    "boundedness",
    "compactness",
    "schatten_equivalence",
    "berezin_equivalence",
)

# Default pass/fail windows on the raw equivalence ratios.  The two-sided
# comparability constants are delta-dependent (for the area measure C_mu is
# delta^2 while ||T|| = 1, and the Schatten-side constants scale like
# delta^(-2p)), so with the default delta ~ 0.03 the upper limits must absorb
# factors up to ~1e6 on top of the cross-measure variation.  Scenarios can
# tighten these per run.
DEFAULT_WINDOWS = {
    "boundedness_ratio": (1e-2, 1e7),
    "schatten_ratio": (1e-3, 1e10),
    "berezin_rel_error": 1e-8,
    "kernel_ratio_spread": 50.0,
}


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    weight: RadialWeight
    measures: tuple            # of (measure_id, Measure)
    delta: float | None = None
    r_max_ladder: tuple = (0.9, 0.99, 0.995)
    dim: int = 512
    ps: tuple = (0.5, 1.0, 2.0)
    checks: tuple = ALL_CHECKS
    degree_max: int = 2000
    lattice_r_max: float = 0.9
    windows: dict = field(default_factory=lambda: dict(DEFAULT_WINDOWS))

    def __post_init__(self):
        d = self.effective_delta
        self.weight.require_delta(d)
        if any(p <= 0 for p in self.ps):
            raise ParameterError("all p values must be positive")
        if not self.measures:
            raise ParameterError("scenario needs at least one measure")

    @property
    def effective_delta(self) -> float:
        return self.weight.m_tau / 8.0 if self.delta is None else self.delta


def scenario_from_json(data: dict) -> Scenario:
    w = weight_from_json(data["weight"])
    measures = tuple(
        (m.get("id", f"measure-{i}"), measure_from_json(m, w))
        for i, m in enumerate(data["measures"])
    )
    windows = dict(DEFAULT_WINDOWS)
    windows.update(data.get("windows", {}))
    return Scenario(
        scenario_id=data.get("id", "scenario"),
        weight=w,
        measures=measures,
        delta=data.get("delta"),
        r_max_ladder=tuple(data.get("r_max_ladder", (0.9, 0.99, 0.995))),
        dim=int(data.get("dim", 512)),
        ps=tuple(data.get("p", (0.5, 1.0, 2.0))),
        checks=tuple(data.get("checks", ALL_CHECKS)),
        degree_max=int(data.get("degree_max", 2000)),
        lattice_r_max=float(data.get("lattice_r_max", 0.9)),
        windows=windows,
    )


@dataclass
class ReportRow:
    scenario_id: str
    measure_id: str
    quantities: dict = field(default_factory=dict)
    ratios: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.flags.values()) if self.flags else True


def cached_basis_table(
    w: RadialWeight, degree_max: int, tol: float = 1e-9, cache_dir: str | None = None
) -> BasisTable:
    """Build a basis table, or load it from the BTK_CACHE_DIR cache."""
    if cache_dir is None:
        cache_dir = os.environ.get("BTK_CACHE_DIR")
    if not cache_dir:
        return build_basis_table(w, degree_max, tol=tol)
    os.makedirs(cache_dir, exist_ok=True)
    key = f"basis-{w.fingerprint()}-d{degree_max}-t{tol:g}.npy"
    path = os.path.join(cache_dir, key)
    if os.path.exists(path):
        log_h = np.load(path)
        return BasisTable(weight=w, degree_max=degree_max, log_h=log_h, quad_tolerance=tol)
    bt = build_basis_table(w, degree_max, tol=tol)
    np.save(path, bt.log_h)
    return bt


def _in_window(x: float, window) -> bool:
    lo, hi = window
    return np.isfinite(x) and lo <= x <= hi


def _sample_points(r_cap: float, count: int) -> np.ndarray:
    """Deterministic spiral of sample points filling {|z| <= r_cap}."""
    k = np.arange(1, count + 1)
    r = r_cap * np.sqrt(k / count)
    theta = k * 2.399963229728653  # golden angle
    return r * np.exp(1j * theta)


def kernel_ratio_range(bt: BasisTable, radii: np.ndarray) -> tuple[float, float, float]:
    """(min, max, max/min) over radii of ||K_r||^2 omega(r) tau(r)^2.

    The kernel-norm estimate says this ratio is bounded above and below, so
    its spread max/min is the kernel_estimates check.
    """
    w = bt.weight
    log_ratio = kernel_norm_sq_many(bt, radii) + w.log_weight(radii) + 2.0 * w.log_tau(radii)
    lo, hi = np.min(log_ratio), np.max(log_ratio)
    return float(np.exp(lo)), float(np.exp(hi)), float(np.exp(hi - lo))


def _weight_level_row(s: Scenario, bt: BasisTable, lat: Lattice) -> ReportRow:
    """Checks that depend only on the weight: kernel ratio spread, lattice cert."""
    row = ReportRow(s.scenario_id, "(weight)")
    if "kernel_estimates" in s.checks:
        _, _, spread = kernel_ratio_range(bt, np.linspace(0.0, s.lattice_r_max, 200))
        row.quantities["kernel_ratio_spread"] = spread
        row.flags["kernel_estimates"] = spread <= s.windows["kernel_ratio_spread"]
    if "lattice_cert" in s.checks:
        cert = certify_lattice(lat, probe_count=20_000)
        row.quantities["lattice_points"] = len(lat)
        row.quantities["lattice_multiplicity"] = cert.multiplicity_observed
        row.quantities["lattice_covering_misses"] = cert.covering_misses
        row.flags["lattice_cert"] = cert.passed
    return row


def _measure_row(s: Scenario, bt: BasisTable, lat: Lattice,
                 measure_id: str, mu: Measure) -> ReportRow:
    row = ReportRow(s.scenario_id, measure_id)
    w = s.weight
    delta = s.effective_delta
    q = row.quantities

    rep = carleson_constant(w, mu, delta, max(s.r_max_ladder))
    q["C_mu"] = rep.value
    for r, v in zip(rep.tail_radii, rep.tail_sups):
        q[f"tail_sup_{r:.3f}"] = v

    if mu.is_zero:
        row.notes.append("zero measure: ratio cells undefined")
        for key in ("boundedness", "compactness"):
            if key in s.checks:
                row.flags[key] = True
        return row

    if "compactness" in s.checks:
        sups = list(rep.tail_sups)
        decayed = sups[-1] < 1e-3 * rep.value
        nonincreasing = all(a >= b for a, b in zip(sups, sups[1:]))
        q["tail_decayed"] = decayed
        row.flags["compactness"] = nonincreasing

    need_spectrum = {"boundedness", "schatten_equivalence"} & set(s.checks)
    if need_spectrum:
        tm = assemble_toeplitz(bt, mu, s.dim)
        spec_rep = spectrum(tm)
        q["lambda_1"] = spec_rep.operator_norm
        if "boundedness" in s.checks:
            ratio = spec_rep.operator_norm / rep.value if rep.value > 0 else np.nan
            row.ratios["lambda1_over_Cmu"] = ratio
            row.flags["boundedness"] = _in_window(ratio, s.windows["boundedness_ratio"])
        if "schatten_equivalence" in s.checks:
            ok = True
            for p in s.ps:
                sp = schatten_norm(spec_rep, p)
                q[f"schatten_p{p:g}"] = sp
                q[f"schatten_tail_flag_p{p:g}"] = spec_rep.tail_flag(p)
                for r_max in s.r_max_ladder:
                    lp = mu_hat_lp_norm(w, mu, delta, p, r_max)
                    q[f"muhat_L{p:g}_r{r_max:g}"] = lp
                lp_ref = q[f"muhat_L{p:g}_r{s.r_max_ladder[0]:g}"]
                lsum = lattice_lp_sum(w, mu, lat, delta, p)
                q[f"lattice_l{p:g}"] = lsum
                if lp_ref > 0:
                    ratio = sp**p / lp_ref**p
                    row.ratios[f"schatten_over_Lp_p{p:g}"] = ratio
                    ok &= _in_window(ratio, s.windows["schatten_ratio"])
            row.flags["schatten_equivalence"] = bool(ok)

    if "berezin_equivalence" in s.checks:
        pts = _sample_points(0.7, 50)
        if isinstance(mu, AtomicMeasure) and len(mu.points):
            # the spiral rarely hits an atom's delta*tau disk; sample the
            # atoms too so the domination constant is measured where mu_hat > 0
            pts = np.concatenate([pts, mu.points])
        bm = berezin_many(bt, mu, pts)
        if isinstance(mu, AtomicMeasure):
            tm = assemble_toeplitz(bt, mu, s.dim)
            bo = np.array([berezin_operator(bt, tm, z) for z in pts])
            denom = np.maximum(np.abs(bm), 1e-300)
            rel = float(np.max(np.abs(bo - bm) / denom))
            q["berezin_max_rel_err"] = rel
            row.flags["berezin_equivalence"] = rel <= s.windows["berezin_rel_error"]
        mh = mu_hat_many(w, mu, delta, pts)
        pos = mh > 0
        q["berezin_domination_c"] = (
            float(np.min(bm[pos] / mh[pos])) if pos.any() else np.nan
        )
        for p in s.ps:
            q[f"berezin_L{p:g}"] = berezin_lp_norm(bt, mu, p, s.r_max_ladder[0])
    return row


def run_scenario(s: Scenario, cache_dir: str | None = None) -> list[ReportRow]:
    bt = cached_basis_table(s.weight, s.degree_max, cache_dir=cache_dir)
    lat = build_lattice(s.weight, s.effective_delta, s.lattice_r_max,
                        probe_count=20_000)
    rows = []
    if {"kernel_estimates", "lattice_cert"} & set(s.checks):
        rows.append(_weight_level_row(s, bt, lat))
    for measure_id, mu in s.measures:
        try:
            rows.append(_measure_row(s, bt, lat, measure_id, mu))
        except Exception as exc:  # aggregate per-row failures, keep the batch
            row = ReportRow(s.scenario_id, measure_id)
            row.flags["error"] = False
            row.notes.append(f"{type(exc).__name__}: {exc}")
            rows.append(row)
    return rows


def sweep_family(s: Scenario, parameter: str, values, cache_dir=None) -> list[dict]:
    """Run run_scenario across a one-parameter family and tabulate ratios.

    Supported parameters: "alpha" (rebuilds the weight), "dim", "delta".
    Returns one summary dict per value with every ratio column.
    """
    from .weights import make_exponential_weight

    table = []
    for v in values:
        if parameter == "alpha":
            sv = replace(
                s,
                scenario_id=f"{s.scenario_id}-alpha{v:g}",
                weight=make_exponential_weight(v),
                delta=None,
            )
        elif parameter in ("dim", "delta"):
            sv = replace(
                s,
                scenario_id=f"{s.scenario_id}-{parameter}{v:g}",
                **{parameter: v if parameter == "delta" else int(v)},
            )
        else:
            raise ParameterError(f"unsupported sweep parameter {parameter!r}")
        for row in run_scenario(sv, cache_dir=cache_dir):
            entry = {"parameter": parameter, "value": v,
                     "measure_id": row.measure_id, "passed": row.passed}
            entry.update({f"q:{k}": val for k, val in row.quantities.items()})
            entry.update({f"ratio:{k}": val for k, val in row.ratios.items()})
            table.append(entry)
    return table


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_report_csv(rows: list[ReportRow], path: str) -> None:
    """Deterministic CSV: stable column order, fixed float formatting."""
    cols = ["scenario_id", "measure_id", "passed"]
    extra = sorted({f"q:{k}" for r in rows for k in r.quantities}
                   | {f"ratio:{k}" for r in rows for k in r.ratios}
                   | {f"flag:{k}" for r in rows for k in r.flags})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols + extra)
        for r in rows:
            rec = {f"q:{k}": v for k, v in r.quantities.items()}
            rec.update({f"ratio:{k}": v for k, v in r.ratios.items()})
            rec.update({f"flag:{k}": v for k, v in r.flags.items()})
            writer.writerow(
                [r.scenario_id, r.measure_id, _fmt(r.passed)]
                + [_fmt(rec[c]) if c in rec else "" for c in extra]
            )


def write_report_json(rows: list[ReportRow], path: str) -> None:
    payload = [
        {
            "scenario_id": r.scenario_id,
            "measure_id": r.measure_id,
            "passed": r.passed,
            "quantities": {k: v for k, v in sorted(r.quantities.items())},
            "ratios": {k: v for k, v in sorted(r.ratios.items())},
            "flags": {k: v for k, v in sorted(r.flags.items())},
            "notes": r.notes,
        }
        for r in rows
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
