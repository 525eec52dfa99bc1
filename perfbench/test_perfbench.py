"""Tests of the benchmark's own code: spans, patching and the output check.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import btk  # noqa: E402
import layers  # noqa: E402
from check import compare  # noqa: E402
from spans import Span, SpanRecorder  # noqa: E402


def _reference(workload: str) -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)[workload]["0"]


def test_self_times_subtract_direct_children_only():
    rec = SpanRecorder()
    rec.spans = [
        Span("outer", 0.0, 10.0, None),
        Span("mid", 1.0, 7.0, 0),
        Span("leaf", 2.0, 5.0, 1),
        Span("mid", 8.0, 9.0, 0),
    ]
    assert rec.self_times() == pytest.approx([3.0, 3.0, 3.0, 1.0])
    totals = rec.totals()
    assert totals["mid"]["self_s"] == pytest.approx(4.0)
    assert totals["mid"]["calls"] == 2
    # self times partition the outermost span
    assert sum(rec.self_times()) == pytest.approx(10.0)


def test_span_parents_follow_nesting_and_errors_are_kept():
    rec = SpanRecorder()
    with pytest.raises(ValueError):
        with rec.span("a"):
            with rec.span("b"):
                pass
            with rec.span("c"):
                raise ValueError("boom")
    assert [(s.name, s.parent) for s in rec.spans] == [("a", None), ("b", 0), ("c", 0)]
    assert all(s.end >= s.start for s in rec.spans)
    # one exception crossing two spans counts once
    assert rec.errors(ValueError) == 1


def test_traced_calls_record_spans_and_untraced_state_is_restored():
    before = layers.all_sites()
    bt = btk.build_basis_table(btk.make_exponential_weight(1.0), 60)
    rec = SpanRecorder()
    with pytest.raises(btk.DomainError):
        with layers.traced_btk(rec):
            tm = btk.toeplitz.assemble_toeplitz(bt, btk.power_density(2.0), 16)
            btk.toeplitz.berezin_operator(bt, tm, 0.3)
            btk.toeplitz.berezin_operator(bt, tm, 1.5)  # outside the disk: raises
    totals = rec.totals()
    assert totals["toeplitz.berezin_operator"]["calls"] == 2
    assert totals["basis.series"]["sum"]["points"] == 1  # kernel_norm_sq inside the first
    assert totals["quadrature.radial_moments"]["calls"] == 1
    after = layers.all_sites()
    assert [obj for _, _, obj in after] == [obj for _, _, obj in before]
    assert all(a[2] is b[2] for a, b in zip(after, before))
    assert not any(hasattr(obj, "__wrapped__") for _, _, obj in after)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = {m["name"] for m in spec["per_layer"]}
    extra = {"runner.rows", "runner.rows_failed", "measures.convergence_errors",
             "trace.overhead_s"}
    assert per_layer == set(layers.SPAN_METRICS) | extra
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb", "ops_ok_frac"}


@pytest.mark.parametrize("workload", ["verify_ref", "operator_spectra", "disk_geometry"])
def test_reference_matches_itself(workload):
    for op, want in _reference(workload).items():
        got = copy.deepcopy(want)
        assert all(not p for p in compare(workload, op, got, want).values())


def _perturb_verify(ref, factor):
    got = copy.deepcopy(ref["verify"])
    got["rows"]["atoms4"]["cells"]["q:C_mu"] *= factor
    return "verify", got


def _perturb_spectrum(ref, factor):
    got = copy.deepcopy(ref["grid12x16"])
    got["schatten"]["p1"] *= factor
    return "grid12x16", got


def _perturb_carleson(ref, factor):
    got = copy.deepcopy(ref["carleson"])
    got["value"] *= factor
    return "carleson", got


@pytest.mark.parametrize("workload, perturb", [
    ("verify_ref", _perturb_verify),
    ("operator_spectra", _perturb_spectrum),
    ("disk_geometry", _perturb_carleson),
])
def test_perturbed_output_fails_the_check(workload, perturb):
    ref = _reference(workload)
    op, inside = perturb(ref, 1.0 + 1e-9)
    assert not any(compare(workload, op, inside, ref[op]).values())
    op, outside = perturb(ref, 1.0 + 1e-5)
    assert any(compare(workload, op, outside, ref[op]).values())


def test_exact_outputs_fail_on_any_change():
    ref = _reference("disk_geometry")
    build = copy.deepcopy(ref["build"])
    build["digest"] = ("0" if build["digest"][0] != "0" else "1") + build["digest"][1:]
    assert compare("disk_geometry", "build", build, ref["build"])["build"]
    query = copy.deepcopy(ref["query"])
    query["counts"][0][0] += 1
    assert compare("disk_geometry", "query", query, ref["query"])["query"]
    spectra = _reference("operator_spectra")
    atoms = copy.deepcopy(spectra["atoms"])
    atoms["eigenvalues"][3] += 1e-9 * atoms["eigenvalues"][0]
    assert compare("operator_spectra", "atoms", atoms, spectra["atoms"])["atoms"]


def test_verify_row_error_must_match_the_recorded_one():
    ref = _reference("verify_ref")
    assert ref["verify"]["rows"]["power2_r07"]["error"].startswith("ConvergenceError")
    got = copy.deepcopy(ref["verify"])
    got["rows"]["power2"]["error"] = "TruncationError: made up"
    problems = compare("verify_ref", "verify", got, ref["verify"])
    assert problems["power2"] and not problems["power2_r07"]
