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
from dataclasses import dataclass, field, replace

import numpy as np

from .basis import BasisTable, build_basis_table, kernel_norm_sq_many
from .errors import ParameterError, require_keys
from .lattice import Lattice, build_lattice, certify_lattice
from .measures import (
    AtomicMeasure,
    Measure,
    berezin_lp_norm,
    berezin_many,
    carleson_constant,
    lattice_lp_sum,
    measure_from_json,
    mu_hat,
    mu_hat_lp_norm,
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

# Probes for the scenario lattice's build and its certification.  One value
# for both, so that certify_lattice reuses the build's probe pass.
LATTICE_PROBES = 20_000


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Scenario:
    """One weight, its measures and checks; windows override DEFAULT_WINDOWS."""

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
    windows: dict = field(default_factory=dict)

    def __post_init__(self):
        for what, names, known in (("check", self.checks, ALL_CHECKS),
                                   ("window", self.windows, DEFAULT_WINDOWS)):
            unknown = sorted(set(names) - set(known))
            if unknown:
                raise ParameterError(f"unknown {what} names {unknown}; known: {sorted(known)}")
        for key, value in self.windows.items():
            if isinstance(DEFAULT_WINDOWS[key], tuple):
                if not (isinstance(value, (list, tuple)) and len(value) == 2
                        and all(map(_is_real, value))):
                    raise ParameterError(f"scenario windows need a [low, high] pair at {key!r}")
            elif not _is_real(value):
                raise ParameterError(f"scenario windows need one number at {key!r}")
        object.__setattr__(self, "windows", {**DEFAULT_WINDOWS, **self.windows})
        self.weight.require_delta(self.effective_delta)
        if not self.ps or not self.r_max_ladder:
            raise ParameterError("scenario needs at least one p value and one r_max")
        if not all(p > 0 for p in self.ps):
            raise ParameterError("all p values must be positive")
        if not all(0.0 < r < 1.0 for r in self.r_max_ladder):
            raise ParameterError(f"r_max_ladder entries must lie in (0, 1): {self.r_max_ladder}")
        if not 0.0 < self.lattice_r_max < 1.0:
            raise ParameterError(f"lattice_r_max must lie in (0, 1), got {self.lattice_r_max}")
        if not 1 <= self.dim <= self.degree_max + 1:
            raise ParameterError(f"dim must lie in [1, degree_max + 1], got {self.dim}")
        if not self.measures:
            raise ParameterError("scenario needs at least one measure")

    @property
    def effective_delta(self) -> float:
        return self.weight.m_tau / 8.0 if self.delta is None else self.delta


#: JSON key -> (Scenario field, conversion); an absent key keeps the field's
#: default, and delta stays unconverted so that null means m_tau / 8
_SCENARIO_KEYS = {
    "delta": ("delta", lambda v: v), "r_max_ladder": ("r_max_ladder", tuple),
    "dim": ("dim", int), "p": ("ps", tuple), "checks": ("checks", tuple),
    "degree_max": ("degree_max", int), "lattice_r_max": ("lattice_r_max", float),
    "windows": ("windows", dict),
}


def scenario_from_json(data: dict) -> Scenario:
    require_keys(data, "scenario", "weight", "measures", integers=("dim", "degree_max"),
                 numbers=("r_max_ladder", "p", "lattice_r_max"))
    if data.get("delta") is not None:
        require_keys(data, "scenario", numbers=("delta",))
    require_keys(data.get("windows", {}), "scenario windows")  # Scenario checks the values
    if not isinstance(data["measures"], list) or not all(isinstance(m, dict)
                                                         for m in data["measures"]):
        raise ParameterError("scenario JSON needs a list of objects at 'measures'")
    w = weight_from_json(data["weight"])
    measures = tuple(
        (m.get("id", f"measure-{i}"), measure_from_json(m, w))
        for i, m in enumerate(data["measures"])
    )
    options = {name: conv(data[key])
               for key, (name, conv) in _SCENARIO_KEYS.items() if key in data}
    return Scenario(data.get("id", "scenario"), w, measures, **options)


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


def _weight_level_row(s: Scenario, bt: BasisTable, lat: Lattice | None) -> ReportRow:
    """Checks that depend only on the weight: kernel ratio spread, lattice cert."""
    row = ReportRow(s.scenario_id, "(weight)")
    if "kernel_estimates" in s.checks:
        _, _, spread = kernel_ratio_range(bt, np.linspace(0.0, s.lattice_r_max, 200))
        row.quantities["kernel_ratio_spread"] = spread
        row.flags["kernel_estimates"] = spread <= s.windows["kernel_ratio_spread"]
    if "lattice_cert" in s.checks:
        cert = certify_lattice(lat, probe_count=LATTICE_PROBES)
        row.quantities["lattice_points"] = len(lat)
        row.quantities["lattice_multiplicity"] = cert.multiplicity_observed
        row.quantities["lattice_covering_misses"] = cert.covering_misses
        row.flags["lattice_cert"] = cert.passed
    return row


def _measure_row(s: Scenario, bt: BasisTable, lat: Lattice | None,
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
        sups = rep.tail_sups
        q["tail_decayed"] = rep.compact_signature
        row.flags["compactness"] = all(a >= b for a, b in zip(sups, sups[1:]))

    tm = None
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
            # one call covers every r_max and every p
            lps = dict(zip(s.r_max_ladder,
                           mu_hat_lp_norm(w, mu, delta, s.ps, s.r_max_ladder)))
            lsums = lattice_lp_sum(w, mu, lat, delta, s.ps)
            for k, p in enumerate(s.ps):
                sp = schatten_norm(spec_rep, p)
                q[f"schatten_p{p:g}"] = sp
                q[f"schatten_tail_flag_p{p:g}"] = spec_rep.tail_flag(p)
                for r_max in s.r_max_ladder:
                    q[f"muhat_L{p:g}_r{r_max:g}"] = lps[r_max][k]
                lp_ref = lps[s.r_max_ladder[0]][k]
                q[f"lattice_l{p:g}"] = lsums[k]
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
            if tm is None:
                tm = assemble_toeplitz(bt, mu, s.dim)
            bo = np.array([berezin_operator(bt, tm, z) for z in pts])
            denom = np.maximum(np.abs(bm), 1e-300)
            rel = float(np.max(np.abs(bo - bm) / denom))
            q["berezin_max_rel_err"] = rel
            row.flags["berezin_equivalence"] = rel <= s.windows["berezin_rel_error"]
        mh = mu_hat(w, mu, delta, pts)
        pos = mh > 0
        q["berezin_domination_c"] = (
            float(np.min(bm[pos] / mh[pos])) if pos.any() else np.nan
        )
        for p, v in zip(s.ps, berezin_lp_norm(bt, mu, s.ps, s.r_max_ladder[0])):
            q[f"berezin_L{p:g}"] = v
    return row


def run_scenario(s: Scenario) -> list[ReportRow]:
    bt = build_basis_table(s.weight, s.degree_max)
    lat = None
    if {"lattice_cert", "schatten_equivalence"} & set(s.checks):
        # only the lattice certificate and the lattice sum read the lattice
        lat = build_lattice(s.weight, s.effective_delta, s.lattice_r_max,
                            probe_count=LATTICE_PROBES)
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


def sweep_family(s: Scenario, parameter: str, values) -> list[dict]:
    """Run run_scenario across a one-parameter family and tabulate ratios.

    Supported parameters: "alpha" (rebuilds the weight in its own family,
    which a custom weight has not), "dim", "delta".
    Returns one summary dict per value with every ratio column.
    """
    if parameter == "alpha" and s.weight.family == "custom":
        raise ParameterError("an alpha sweep rebuilds the weight from its JSON, "
                             "and a custom weight has none")
    table = []
    for v in values:
        if parameter == "alpha":
            sv = replace(
                s,
                scenario_id=f"{s.scenario_id}-alpha{v:g}",
                weight=weight_from_json({**s.weight.to_json(), "alpha": v}),
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
        for row in run_scenario(sv):
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
