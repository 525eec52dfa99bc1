"""Where the traced run wraps btk, and how its spans become per-layer metrics.

btk modules import each other by name (``from .basis import kernel_at_points``),
so a function is patched at every module that looks it up, not only where it
is defined, and every call path is seen exactly once.  Measure classes are
patched at their ``disk_mass_many`` method.
"""

from __future__ import annotations

import numpy as np

from spans import SpanRecorder, patched, wrap


def _points(i):
    return lambda args, result: {"points": np.size(args[i])}


def _one_point(args, result):
    return {"points": 1}


def _degrees(args, result):
    return {"degrees": len(result)}


def _order(args, result):
    return {"order": len(args[0])}


def _carleson(args, result):
    return {"centers": result.grid_size}


def _lattice(args, result):
    return {"points": len(result)}


def _certify(args, result):
    return {"probes": result.probes_checked, "multiplicity": result.multiplicity_observed}


def _spectrum(args, result):
    return {"clip": result.clip_magnitude}


def _sites():
    """(span name, [(owner, attribute)], counters) for every traced entry point."""
    import btk.basis
    import btk.cli
    import btk.lattice
    import btk.measures
    import btk.runner
    import btk.toeplitz
    from btk.measures import AtomicMeasure, GridDensityMeasure, RadialDensityMeasure

    b, c, la, m, r, t = (btk.basis, btk.cli, btk.lattice, btk.measures,
                         btk.runner, btk.toeplitz)
    return [
        ("cli.verify", [(c, "main")], None),
        ("runner.run_scenario", [(c, "run_scenario")], None),
        ("runner.report_write", [(c, "write_report_csv"), (c, "write_report_json")], None),
        ("quadrature.monomial_norms", [(b, "log_monomial_norms")], _degrees),
        ("quadrature.radial_moments",
         [(m, "radial_log_moments"), (t, "radial_log_moments")], _degrees),
        ("basis.table", [(r, "build_basis_table"), (b, "build_basis_table")], None),
        ("basis.series", [(m, "kernel_at_points"), (b, "kernel_at_points")], _points(2)),
        ("basis.series", [(r, "kernel_norm_sq_many"), (m, "kernel_norm_sq_many")],
         _points(1)),
        ("basis.series", [(t, "kernel"), (t, "kernel_norm_sq"), (b, "kernel_norm_sq")],
         _one_point),
        ("lattice.build", [(r, "build_lattice"), (la, "build_lattice")], _lattice),
        ("lattice.certify", [(r, "certify_lattice"), (la, "certify_lattice")], _certify),
        ("lattice.query", [(la, "count_in_ball"), (la, "partition_separated")], None),
        ("measures.carleson", [(r, "carleson_constant"), (m, "carleson_constant")],
         _carleson),
        ("measures.disk_mass.atomic", [(AtomicMeasure, "disk_mass_many")], _points(1)),
        ("measures.disk_mass.radial", [(RadialDensityMeasure, "disk_mass_many")],
         _points(1)),
        ("measures.disk_mass.grid", [(GridDensityMeasure, "disk_mass_many")], _points(1)),
        ("measures.lp", [(r, "mu_hat_lp_norm")], None),
        ("measures.berezin", [(r, "berezin_lp_norm"), (r, "berezin_many")], None),
        ("measures.lattice_sum", [(r, "lattice_lp_sum")], None),
        ("toeplitz.assemble", [(r, "assemble_toeplitz"), (t, "assemble_toeplitz")], None),
        ("toeplitz.jacobi", [(t, "jacobi_eigvalsh")], _order),
        ("toeplitz.spectrum", [(r, "spectrum"), (t, "spectrum")], _spectrum),
        ("toeplitz.schatten", [(r, "schatten_norm"), (t, "schatten_norm")], None),
        ("toeplitz.berezin_operator", [(r, "berezin_operator"), (t, "berezin_operator")],
         None),
    ]


def all_sites():
    """(owner, attribute, current object) for every patched site."""
    return [(owner, attr, owner.__dict__[attr])
            for _, owners, _ in _sites() for owner, attr in owners]


def traced_btk(rec: SpanRecorder):
    """Context manager with every site wrapped in a span recorded by rec."""
    targets = [
        (owner, attr, wrap(rec, name, owner.__dict__[attr], counters))
        for name, owners, counters in _sites()
        for owner, attr in owners
    ]
    return patched(targets)


_DISK_MASS = ("measures.disk_mass.atomic", "measures.disk_mass.radial",
              "measures.disk_mass.grid")

#: per-layer metric -> (span names, field, counter); field is "self_s" or
#: "calls", or "sum"/"max" of the named counter over the spans
SPAN_METRICS = {
    "cli.verify_s": (("cli.verify",), "self_s", None),
    "runner.self_s": (("runner.run_scenario",), "self_s", None),
    "runner.report_write_s": (("runner.report_write",), "self_s", None),
    "quadrature.monomial_norms_s": (("quadrature.monomial_norms",), "self_s", None),
    "quadrature.radial_moments_s": (("quadrature.radial_moments",), "self_s", None),
    "quadrature.radial_moments_calls": (("quadrature.radial_moments",), "calls", None),
    "basis.table_s": (("basis.table",), "self_s", None),
    "basis.series_s": (("basis.series",), "self_s", None),
    "basis.series_calls": (("basis.series",), "calls", None),
    "basis.series_points": (("basis.series",), "sum", "points"),
    "lattice.build_s": (("lattice.build",), "self_s", None),
    "lattice.points": (("lattice.build",), "max", "points"),
    "lattice.certify_s": (("lattice.certify",), "self_s", None),
    "lattice.probes": (("lattice.certify",), "sum", "probes"),
    "lattice.query_s": (("lattice.query",), "self_s", None),
    "lattice.multiplicity_observed": (("lattice.certify",), "max", "multiplicity"),
    "measures.carleson_s": (("measures.carleson",), "self_s", None),
    "measures.carleson_centers": (("measures.carleson",), "sum", "centers"),
    "measures.disk_mass_s.grid": (("measures.disk_mass.grid",), "self_s", None),
    "measures.disk_mass_s.radial": (("measures.disk_mass.radial",), "self_s", None),
    "measures.disk_mass_s.atomic": (("measures.disk_mass.atomic",), "self_s", None),
    "measures.disk_mass_centers": (_DISK_MASS, "sum", "points"),
    "measures.lp_s": (("measures.lp",), "self_s", None),
    "measures.berezin_s": (("measures.berezin",), "self_s", None),
    "measures.lattice_sum_s": (("measures.lattice_sum",), "self_s", None),
    "toeplitz.assemble_s": (("toeplitz.assemble",), "self_s", None),
    "toeplitz.jacobi_s": (("toeplitz.jacobi",), "self_s", None),
    "toeplitz.jacobi_order": (("toeplitz.jacobi",), "max", "order"),
    "toeplitz.spectrum_s": (("toeplitz.spectrum",), "self_s", None),
    "toeplitz.schatten_s": (("toeplitz.schatten",), "self_s", None),
    "toeplitz.berezin_operator_s": (("toeplitz.berezin_operator",), "self_s", None),
    "toeplitz.psd_clip_max": (("toeplitz.spectrum",), "max", "clip"),
}

#: spans whose self time is glue rather than a layer's work
GLUE_SPANS = ("cli.verify", "runner.run_scenario")


def span_metrics(totals: dict) -> dict:
    """SPAN_METRICS evaluated on SpanRecorder.totals(); absent spans read 0."""
    out = {}
    for metric, (names, fld, counter) in SPAN_METRICS.items():
        vals = [totals[n][fld] if counter is None else totals[n][fld].get(counter, 0.0)
                for n in names if n in totals]
        if fld == "max":
            out[metric] = float(max(vals, default=0.0))
        else:
            out[metric] = float(sum(vals))
    return out


def covered_seconds(totals: dict) -> float:
    """Self time of every layer span other than the glue spans."""
    return sum(v["self_s"] for n, v in totals.items() if n not in GLUE_SPANS)
