import dataclasses
import filecmp
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import btk
import btk.errors
from btk.cli import main as cli_main
from btk.errors import BtkError, ParameterError
from btk.measures import AtomicMeasure, indicator_density, zero_measure
from btk.runner import (
    DEFAULT_WINDOWS,
    Scenario,
    _measure_row,
    run_scenario,
    scenario_from_json,
    sweep_family,
    write_report_csv,
    write_report_json,
)


@pytest.fixture(scope="module")
def small_scenario(w1):
    return Scenario(
        scenario_id="small",
        weight=w1,
        measures=(
            ("dA", indicator_density(0.0, 1.0)),
            ("atoms", AtomicMeasure([0.3, -0.2j], [1.0, 0.5])),
            ("zero", zero_measure()),
        ),
        r_max_ladder=(0.6, 0.7, 0.8),
        dim=64,
        degree_max=400,
        lattice_r_max=0.5,
    )


@pytest.fixture(scope="module")
def small_rows(small_scenario):
    return run_scenario(small_scenario)


def test_scenario_defaults_delta(small_scenario, w1):
    assert small_scenario.effective_delta == pytest.approx(w1.m_tau / 8.0)


def test_scenario_validation(w1):
    with pytest.raises(ParameterError):
        Scenario("bad", w1, measures=())
    with pytest.raises(ParameterError):
        Scenario("bad", w1, measures=(("m", zero_measure()),), ps=(0.5, -1.0))
    with pytest.raises(ParameterError):
        Scenario("bad", w1, measures=(("m", zero_measure()),), delta=w1.m_tau)


@pytest.mark.parametrize("field, key", [("ps", "p"), ("r_max_ladder", "r_max_ladder")])
def test_scenario_rejects_an_empty_ladder(w1, tmp_path, capsys, field, key):
    # an empty p ladder would pass schatten_equivalence with nothing checked,
    # and an empty r_max ladder has no largest radius for the Carleson sup
    measures = (("atoms", AtomicMeasure([0.3], [1.0])),)
    with pytest.raises(ParameterError, match="at least one p value and one r_max"):
        Scenario("empty", w1, measures, **{field: ()})
    data = {
        "id": "empty",
        "weight": {"family": "exponential", "alpha": 1.0},
        "measures": [{"id": "atoms", "kind": "atomic", "atoms": [[0.3, 0.0, 1.0]]}],
        key: [],
    }
    with pytest.raises(ParameterError, match="at least one p value"):
        scenario_from_json(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main(["verify", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("btk: ParameterError: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


_LADDER, _DIM = "r_max_ladder entries must lie in (0, 1)", "dim must lie in [1, degree_max + 1]"


@pytest.mark.parametrize("options, message", [
    pytest.param({"r_max_ladder": [0.5, 1.2]}, _LADDER, id="r_max-above-1"),
    pytest.param({"r_max_ladder": [0.5, float("nan")]}, _LADDER, id="r_max-nan"),
    pytest.param({"r_max_ladder": [0.0, 0.5]}, _LADDER, id="r_max-0"),
    pytest.param({"dim": 0}, _DIM, id="dim-0"),
    pytest.param({"dim": 500, "degree_max": 60}, _DIM, id="dim-above-degree"),
])
def test_scenario_rejects_out_of_range_values(w1, tmp_path, capsys, options, message):
    # unchecked, each fails every measure row with the same DomainError, an
    # exit status 1 that reads as a failed window
    measures = (("atoms", AtomicMeasure([0.3], [1.0])),)
    fields = {k: tuple(v) if isinstance(v, list) else v for k, v in options.items()}
    with pytest.raises(ParameterError, match=re.escape(message)):
        Scenario("bad", w1, measures, **fields)
    data = {
        "id": "bad",
        "weight": {"family": "exponential", "alpha": 1.0},
        "measures": [{"id": "atoms", "kind": "atomic", "atoms": [[0.3, 0.0, 1.0]]}],
        **options,
    }
    with pytest.raises(ParameterError, match=re.escape(message)):
        scenario_from_json(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main(["verify", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("btk: ParameterError: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("checks", [("berezin_equivalence",), ("kernel_estimates",),
                                    ("lattice_cert",)])
@pytest.mark.parametrize("value", [0.0, 1.0, float("nan")])
def test_scenario_rejects_a_lattice_r_max_outside_the_disk(w1, tmp_path, capsys, checks,
                                                          value):
    # every check set refuses it, also those that build no lattice
    measures = (("atoms", AtomicMeasure([0.3], [1.0])),)
    message = f"lattice_r_max must lie in (0, 1), got {value}"
    with pytest.raises(ParameterError, match=re.escape(message)):
        Scenario("bad", w1, measures, checks=checks, lattice_r_max=value)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "id": "bad",
        "weight": {"family": "exponential", "alpha": 1.0},
        "measures": [{"id": "atoms", "kind": "atomic", "atoms": [[0.3, 0.0, 1.0]]}],
        "checks": list(checks),
        "lattice_r_max": value,
    }))
    assert cli_main(["verify", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"btk: ParameterError: {message}\n"


@pytest.mark.parametrize("checks, builds", [
    (("berezin_equivalence", "compactness"), 0),
    (("kernel_estimates", "boundedness"), 0),
    (("lattice_cert",), 1),
    (("schatten_equivalence",), 1),
])
def test_run_scenario_builds_the_lattice_only_for_the_checks_that_read_it(
        w1, monkeypatch, checks, builds):
    calls = []

    def spy(*args, _f=btk.runner.build_lattice, **kw):
        calls.append(args[2])
        return _f(*args, **kw)

    monkeypatch.setattr(btk.runner, "build_lattice", spy)
    s = Scenario("lazy", w1, (("atoms", AtomicMeasure([0.3, -0.2j], [1.0, 0.5])),),
                 r_max_ladder=(0.6,), dim=16, degree_max=200, lattice_r_max=0.3,
                 checks=checks)
    rows = run_scenario(s)
    assert calls == [0.3] * builds
    assert not any(r.notes for r in rows)


@pytest.mark.parametrize("windows, message", [
    # unchecked, the first ends the measure row on a TypeError and the
    # second escapes run_scenario as one
    pytest.param({"boundedness_ratio": 5.0}, "pair at 'boundedness_ratio'", id="scalar-pair"),
    pytest.param({"kernel_ratio_spread": (1, 2)}, "one number at 'kernel_ratio_spread'",
                 id="pair-scalar"),
    pytest.param({"schatten_ratio": (1e-3,)}, "pair at 'schatten_ratio'", id="one-of-pair"),
    pytest.param({"schatten_ratio": "1e-3, 1e10"}, "pair at 'schatten_ratio'", id="str-pair"),
    # a bool is not a number
    pytest.param({"berezin_rel_error": True}, "one number at 'berezin_rel_error'",
                 id="bool-scalar"),
    pytest.param({"boundedness_ratio": [False, 1e7]}, "pair at 'boundedness_ratio'",
                 id="bool-in-pair"),
])
def test_scenario_checks_window_values_from_python(w1, windows, message):
    measures = (("atoms", AtomicMeasure([0.3], [1.0])),)
    with pytest.raises(ParameterError, match=message):
        Scenario("bad", w1, measures, windows=windows)


@pytest.mark.parametrize("pair", [[1e-3, 1e8], (1e-3, 1e8), (1, 10**8)])
def test_scenario_takes_a_list_or_tuple_window_pair(w1, pair):
    s = Scenario("ok", w1, (("atoms", AtomicMeasure([0.3], [1.0])),),
                 windows={"boundedness_ratio": pair, "berezin_rel_error": 1e-6})
    assert s.windows["boundedness_ratio"] is pair
    assert s.windows["berezin_rel_error"] == 1e-6
    # replace() checks the merged windows again, and they pass
    assert dataclasses.replace(s, dim=16).windows == s.windows


def test_run_scenario_rows_and_flags(small_rows):
    ids = [r.measure_id for r in small_rows]
    assert ids == ["(weight)", "dA", "atoms", "zero"]
    for row in small_rows:
        assert row.passed, (row.measure_id, row.flags, row.notes)


def test_weight_row_contents(small_rows):
    wrow = small_rows[0]
    assert wrow.quantities["kernel_ratio_spread"] > 1.0
    assert wrow.quantities["lattice_covering_misses"] == 0
    assert wrow.flags["kernel_estimates"] and wrow.flags["lattice_cert"]


def test_area_measure_row_values(small_rows, w1):
    row = next(r for r in small_rows if r.measure_id == "dA")
    delta = w1.m_tau / 8.0
    assert row.quantities["C_mu"] == pytest.approx(delta**2, rel=1e-6)
    assert row.ratios["lambda1_over_Cmu"] == pytest.approx(
        1.0 / delta**2, rel=1e-6
    )


def test_atomic_row_berezin_identity(small_rows):
    row = next(r for r in small_rows if r.measure_id == "atoms")
    assert row.quantities["berezin_max_rel_err"] <= 1e-8
    assert row.quantities["berezin_domination_c"] >= 1e-3


def test_zero_measure_row(small_rows):
    row = next(r for r in small_rows if r.measure_id == "zero")
    assert "zero measure: ratio cells undefined" in row.notes
    assert row.quantities["C_mu"] == 0.0
    assert row.passed


def test_berezin_only_atomic_row_assembles_its_operator(small_scenario, small_rows):
    # with no spectrum check the Berezin check assembles T_mu itself, and
    # gets the cells of the full run
    atoms = next(mu for mid, mu in small_scenario.measures if mid == "atoms")
    s = dataclasses.replace(small_scenario, measures=(("atoms", atoms),),
                            checks=("berezin_equivalence",))
    (row,) = run_scenario(s)
    full = next(r for r in small_rows if r.measure_id == "atoms")
    assert set(row.flags) == {"berezin_equivalence"} and row.passed
    berezin = {k: v for k, v in full.quantities.items() if k.startswith("berezin_")}
    assert {k: v for k, v in row.quantities.items() if k.startswith("berezin_")} == berezin


def test_tail_decayed_when_mu_hat_vanishes_on_the_carleson_grid(w1):
    # the atom lies beyond the reach of every disk D(z, delta tau(z)) with
    # |z| <= 0.7, so C_mu = 0 while the measure is not zero
    s = Scenario("far", w1, (("far", AtomicMeasure([0.95], [1.0])),),
                 r_max_ladder=(0.5, 0.6, 0.7), dim=16, degree_max=200,
                 lattice_r_max=0.4, checks=("compactness",))
    (row,) = run_scenario(s)
    assert row.quantities["C_mu"] == 0.0
    assert row.quantities["tail_decayed"] is True
    assert row.passed


def test_measure_row_batches_the_p_ladder(small_scenario, bt400, lat_half, monkeypatch):
    # one mu_hat L^p call (every r_max), one lattice sum and one Berezin L^p
    # call per measure row, each covering every p
    calls = {}
    for name in ("mu_hat_lp_norm", "lattice_lp_sum", "berezin_lp_norm"):
        def counted(*args, _f=getattr(btk.runner, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args)
        monkeypatch.setattr(btk.runner, name, counted)
    atoms = dict(small_scenario.measures)["atoms"]
    row = _measure_row(small_scenario, bt400, lat_half, "atoms", atoms)
    assert row.passed, (row.flags, row.notes)
    assert calls == {"mu_hat_lp_norm": 1,
                     "lattice_lp_sum": 1, "berezin_lp_norm": 1}
    for p in small_scenario.ps:
        assert row.quantities[f"lattice_l{p:g}"] > 0.0
        assert row.quantities[f"berezin_L{p:g}"] > 0.0
        for r_max in small_scenario.r_max_ladder:
            assert row.quantities[f"muhat_L{p:g}_r{r_max:g}"] > 0.0


def test_report_csv_deterministic(small_scenario, small_rows, tmp_path):
    rows2 = run_scenario(small_scenario)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_report_csv(small_rows, p1)
    write_report_csv(rows2, p2)
    assert filecmp.cmp(p1, p2, shallow=False)


def test_report_json_schema(small_rows, tmp_path):
    path = str(tmp_path / "r.json")
    write_report_json(small_rows, path)
    payload = json.loads(open(path).read())
    assert len(payload) == len(small_rows)
    assert {"scenario_id", "measure_id", "passed", "quantities", "ratios",
            "flags", "notes"} <= set(payload[0])


def test_scenario_from_json_round_trip(w1):
    data = {
        "id": "json-scn",
        "weight": {"family": "exponential", "alpha": 1.0},
        "measures": [
            {"id": "ann", "kind": "radial", "density": "indicator",
             "support": [0.2, 0.5]},
            {"kind": "atomic", "atoms": [[0.3, 0.0, 1.0]]},
        ],
        "delta": 0.02,
        "dim": 32,
        "degree_max": 100,
        "p": [1.0, 2.0],
        "checks": ["boundedness"],
        "windows": {"boundedness_ratio": [1e-3, 1e8]},
    }
    s = scenario_from_json(data)
    assert s.scenario_id == "json-scn"
    assert s.delta == 0.02
    assert s.ps == (1.0, 2.0)
    assert s.measures[0][0] == "ann"
    assert s.measures[1][0] == "measure-1"
    assert s.windows["boundedness_ratio"] == [1e-3, 1e8]
    assert s.weight.fingerprint() == w1.fingerprint()


def test_scenario_json_omitted_keys_take_field_defaults(w1):
    measures = (("m", indicator_density(0.0, 0.5)),)
    got = scenario_from_json({
        "id": "scn",
        "weight": {"family": "exponential", "alpha": 1.0},
        "measures": [{"id": "m", "kind": "radial", "density": "indicator",
                      "support": [0.0, 0.5]}],
    })
    want = Scenario("scn", w1, measures)
    for f in dataclasses.fields(Scenario):
        if f.name not in ("weight", "measures"):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert got.windows == DEFAULT_WINDOWS


def test_scenario_partial_windows_keep_defaults(w1):
    s = Scenario(
        "partial", w1, (("dA", indicator_density(0.0, 1.0)),),
        dim=16, degree_max=200, lattice_r_max=0.4, r_max_ladder=(0.5, 0.6, 0.7),
        checks=("kernel_estimates", "boundedness"),
        windows={"boundedness_ratio": (1e-3, 1e8)},
    )
    assert s.windows == {**DEFAULT_WINDOWS, "boundedness_ratio": (1e-3, 1e8)}
    weight_row, dA_row = run_scenario(s)
    assert set(weight_row.flags) == {"kernel_estimates"}
    assert set(dA_row.flags) == {"boundedness"}
    assert weight_row.passed and dA_row.passed


def test_sweep_family_dim(w1):
    s = Scenario(
        scenario_id="sweep",
        weight=w1,
        measures=(("dA", indicator_density(0.0, 1.0)),),
        dim=16,
        degree_max=200,
        lattice_r_max=0.4,
        r_max_ladder=(0.5, 0.6, 0.7),
        checks=("boundedness",),
    )
    delta = w1.m_tau / 8.0
    table = sweep_family(s, "dim", (16, 32))
    assert len(table) == 2
    for entry in table:
        assert entry["passed"]
        assert entry["ratio:lambda1_over_Cmu"] == pytest.approx(
            1.0 / delta**2, rel=1e-5
        )
    with pytest.raises(ParameterError):
        sweep_family(s, "bogus", (1,))


def test_sweep_family_alpha(w1):
    # the scenario's own alpha gives run_scenario's cells; another alpha
    # rebuilds the weight, and delta follows it as m_tau / 8
    s = Scenario("sweep", w1, (("dA", indicator_density(0.0, 1.0)),), dim=16,
                 degree_max=200, lattice_r_max=0.4, r_max_ladder=(0.5, 0.6, 0.7),
                 checks=("boundedness", "compactness"))
    own, other = sweep_family(s, "alpha", (1.0, 2.0))
    (row,) = run_scenario(s)
    assert {k[2:]: v for k, v in own.items() if k.startswith("q:")} == row.quantities
    assert own["ratio:lambda1_over_Cmu"] == row.ratios["lambda1_over_Cmu"]
    delta2 = btk.make_exponential_weight(2.0).m_tau / 8.0
    assert other["value"] == 2.0 and other["passed"]
    assert other["q:C_mu"] == pytest.approx(delta2**2, rel=1e-6)
    assert other["ratio:lambda1_over_Cmu"] == pytest.approx(1.0 / delta2**2, rel=1e-5)


def test_sweep_family_alpha_keeps_the_weight_family(w_dexp):
    # each alpha rebuilds a double exponential weight with the scenario's beta
    # and gamma, not an exponential one under the scenario's id
    s = Scenario("dexp", w_dexp, (("dA", indicator_density(0.0, 1.0)),), dim=16,
                 degree_max=200, lattice_r_max=0.4, r_max_ladder=(0.5, 0.6, 0.7),
                 checks=("boundedness", "compactness"))
    alphas = (0.5, 1.5)
    table = sweep_family(s, "alpha", alphas)
    assert [e["value"] for e in table] == list(alphas)
    for entry, a in zip(table, alphas):
        w = btk.make_double_exponential_weight(a, 1.0, 1.0)
        (row,) = run_scenario(dataclasses.replace(s, weight=w))
        assert {k[2:]: v for k, v in entry.items() if k.startswith("q:")} == row.quantities
        assert {k[6:]: v for k, v in entry.items() if k.startswith("ratio:")} == row.ratios
    custom_weight = btk.make_custom_weight(lambda r: 0.1 * (1.0 - r), 0.11, 0.11)
    custom = dataclasses.replace(s, weight=custom_weight, delta=0.01)
    with pytest.raises(ParameterError, match="custom"):
        sweep_family(custom, "alpha", (1.0,))


# --- CLI --------------------------------------------------------------------


@pytest.fixture()
def cli_files(tmp_path):
    wpath = tmp_path / "weight.json"
    wpath.write_text(json.dumps({"family": "exponential", "alpha": 1.0}))
    mpath = tmp_path / "measure.json"
    mpath.write_text(json.dumps(
        {"kind": "radial", "density": "indicator", "support": [0.0, 0.5]}
    ))
    spath = tmp_path / "scenario.json"
    spath.write_text(json.dumps({
        "id": "cli-scn",
        "weight": {"family": "exponential", "alpha": 1.0},
        "measures": [
            {"id": "ann", "kind": "radial", "density": "indicator",
             "support": [0.2, 0.5]},
        ],
        "dim": 32,
        "degree_max": 200,
        "lattice_r_max": 0.4,
        "r_max_ladder": [0.5, 0.6, 0.7],
        "checks": ["kernel_estimates", "lattice_cert", "boundedness",
                   "compactness"],
    }))
    return tmp_path


def _run(capsys, argv):
    code = cli_main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_cli_certify_weight(cli_files, capsys):
    code, out = _run(capsys, ["certify-weight", str(cli_files / "weight.json")])
    assert code == 0
    assert out["passed"] is True


def test_cli_module_entry_point_runs_from_source(cli_files):
    # `python -m btk.cli` from the directory holding the package, uninstalled
    src = Path(btk.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "btk.cli", "certify-weight", str(cli_files / "weight.json")],
        cwd=src, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


def test_cli_lattice(cli_files, capsys):
    out_path = cli_files / "lat.json"
    code, out = _run(capsys, [
        "lattice", str(cli_files / "weight.json"),
        "--r-max", "0.3", "--probes", "3000", "--out", str(out_path),
    ])
    assert code == 0
    assert out["covering_misses"] == 0 and out["separation_ok"]
    w = btk.weight_from_json({"family": "exponential", "alpha": 1.0})
    lat = btk.lattice.load_lattice(str(out_path), w)
    assert len(lat) == out["points"]
    assert lat.repairs_failed == out["repairs_failed"]


def test_cli_lattice_rejects_zero_probes(cli_files, capsys):
    code = cli_main(["lattice", str(cli_files / "weight.json"), "--r-max", "0.3",
                     "--probes", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("btk: ParameterError: ") and "probe_count" in err
    assert err.count("\n") == 1


def test_cli_verify_reports_a_load_error_in_one_line(tmp_path):
    # omega^(-1/2) at alpha = 2 overflows: loading the measure raises DomainError
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "id": "overflow",
        "weight": {"family": "exponential", "alpha": 2.0},
        "measures": [{"id": "c", "kind": "radial", "density": "compensated",
                      "s": 0.5, "beta": 1.0}],
    }))
    src = Path(btk.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "btk.cli", "verify", str(path),
         "--out", str(tmp_path / "report.csv")],
        cwd=src, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("btk: DomainError: ") and "compensated" in proc.stderr
    assert proc.stderr.count("\n") == 1


def test_cli_verify_refuses_a_nan_density_exponent(tmp_path, capsys):
    # Python's JSON parser reads NaN; unchecked, the row failed on a
    # ConvergenceError note and the run exited 1, the status of a failed window
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "id": "nan",
        "weight": {"family": "exponential", "alpha": 1.0},
        "measures": [{"id": "p", "kind": "radial", "density": "power", "beta": float("nan")}],
    }))
    assert "NaN" in path.read_text()
    assert cli_main(["verify", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("btk: DomainError: ") and "total mass nan" in captured.err
    assert not (tmp_path / "r.csv").exists()


_NUMPY_ALONE = """
import json, sys
import btk
from btk.cli import main
from btk.lattice import build_lattice, partition_separated
from btk.toeplitz import assemble_toeplitz, berezin_operator, spectrum

assert main(["verify", sys.argv[1], "--out", sys.argv[2]]) == 0
w = btk.make_exponential_weight(1.0)
partition_separated(build_lattice(w, w.m_tau / 8.0, 0.3, probe_count=2_000), 2)
bt = btk.build_basis_table(w, 120)
wide = assemble_toeplitz(bt, btk.GridDensityMeasure.area_measure(6, 8, r_outer=0.9), 24)
tall = assemble_toeplitz(bt, btk.AtomicMeasure([0.3, -0.2j, 0.5 + 0.1j], [1.0, 0.5, 0.2]), 24)
for tm in (wide, tall):
    spectrum(tm)
    berezin_operator(bt, tm, 0.4 + 0.1j)
shapes = [tm.factor.shape for tm in (wide, tall)]
print(json.dumps({"shapes": shapes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_btk_runs_on_numpy_alone(cli_files):
    # import, a small verify, a lattice and its partition, and the spectrum
    # and Berezin symbol of a wide and a tall factor load no scipy module, so
    # every BLAS and LAPACK call runs on numpy's one library and thread pool
    src = Path(btk.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_ALONE, str(cli_files / "scenario.json"),
         str(cli_files / "report.csv")],
        cwd=src, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    (wide_rows, wide_cols), (tall_rows, tall_cols) = out["shapes"]
    assert wide_rows < wide_cols and tall_rows > tall_cols
    assert out["scipy"] == []
    assert (cli_files / "report.json").exists()


def test_every_error_class_derives_from_btk_error():
    classes = [c for c in vars(btk.errors).values()
               if isinstance(c, type) and c.__module__ == "btk.errors"]
    assert len(classes) == 7
    assert all(issubclass(c, BtkError) for c in classes)
    # each keeps its builtin base, so except ValueError still catches it
    assert issubclass(btk.DomainError, ValueError) and issubclass(ParameterError, ValueError)
    assert issubclass(btk.ConvergenceError, RuntimeError)


def test_cli_prints_any_btk_error_in_one_line(cli_files, capsys, monkeypatch):
    class FreshError(BtkError):
        pass

    def fail(*args, **kwargs):
        raise FreshError("a new kind of failure")

    monkeypatch.setattr("btk.cli.certify_class_L", fail)
    assert cli_main(["certify-weight", str(cli_files / "weight.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "btk: FreshError: a new kind of failure\n"


@pytest.mark.parametrize("command", [
    "certify-weight", "lattice", "kernel-check", "toeplitz", "verify", "verify-directory",
])
def test_cli_unreadable_input_exits_2(cli_files, capsys, command):
    missing = str(cli_files / "missing.json")
    weight = str(cli_files / "weight.json")
    argv = {
        "certify-weight": ["certify-weight", missing],
        "lattice": ["lattice", missing, "--r-max", "0.3", "--probes", "3000"],
        "kernel-check": ["kernel-check", missing, "--degree", "50"],
        "toeplitz": ["toeplitz", weight, missing, "--dim", "8", "--degree", "50"],
        "verify": ["verify", missing, "--out", str(cli_files / "r.csv")],
        "verify-directory": ["verify", str(cli_files), "--out", str(cli_files / "r.csv")],
    }[command]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    error = "IsADirectoryError" if command == "verify-directory" else "FileNotFoundError"
    assert captured.out == ""
    assert captured.err.startswith(f"btk: {error}: ") and captured.err.count("\n") == 1
    assert not (cli_files / "r.csv").exists()


@pytest.mark.parametrize("command", ["verify", "lattice"])
def test_cli_unwritable_out_exits_2(cli_files, capsys, command):
    # an output in a missing directory
    out = str(cli_files / "no-such-dir" / "out")
    argv = {
        "verify": ["verify", str(cli_files / "scenario.json"), "--out", out + ".csv"],
        "lattice": ["lattice", str(cli_files / "weight.json"), "--r-max", "0.3",
                    "--probes", "3000", "--out", out + ".json"],
    }[command]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("btk: FileNotFoundError: ") and "no-such-dir" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("case", [
    "verify-missing-dir", "verify-over-scenario", "verify-json-out", "verify-out-dir",
    "lattice-missing-dir", "lattice-over-weight",
])
def test_cli_checks_output_paths_before_any_work(cli_files, capsys, monkeypatch, case):
    # unchecked, a missing directory failed after the whole run, and the
    # other paths overwrote the input file or the CSV report
    calls = []
    for owner, name in ((btk.cli, "scenario_from_json"), (btk.cli, "run_scenario"),
                        (btk.cli, "build_lattice"), (btk.runner, "build_lattice")):
        def spy(*args, _f=getattr(owner, name), _name=name, **kw):
            calls.append(_name)
            return _f(*args, **kw)
        monkeypatch.setattr(owner, name, spy)
    scenario, weight = cli_files / "scenario.json", cli_files / "weight.json"
    lattice = ["lattice", str(weight), "--r-max", "0.3", "--probes", "3000", "--out"]
    argv, error, word = {
        "verify-missing-dir": (["verify", str(scenario), "--out",
                                str(cli_files / "no-such-dir" / "r.csv")],
                               "FileNotFoundError", "no-such-dir"),
        "verify-over-scenario": (["verify", str(scenario), "--out",
                                  str(cli_files / "scenario.csv")],
                                 "ParameterError", "scenario.json would overwrite an input"),
        "verify-json-out": (["verify", str(scenario), "--out", str(cli_files / "r.json")],
                            "ParameterError", "r.json would overwrite another output"),
        "verify-out-dir": (["verify", str(scenario), "--out", str(cli_files)],
                           "IsADirectoryError", str(cli_files)),
        "lattice-missing-dir": (lattice + [str(cli_files / "no-such-dir" / "lat.json")],
                                "FileNotFoundError", "no-such-dir"),
        "lattice-over-weight": (lattice + [str(weight)],
                                "ParameterError", "weight.json would overwrite an input"),
    }[case]
    before = {p.name: p.read_bytes() for p in cli_files.iterdir()}
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"btk: {error}: ") and word in captured.err
    assert calls == []
    assert {p.name: p.read_bytes() for p in cli_files.iterdir()} == before


def test_cli_kernel_check(cli_files, capsys):
    args = ["kernel-check", str(cli_files / "weight.json"),
            "--degree", "400", "--r-max", "0.9"]
    code, out = _run(capsys, args)
    assert code == 0 and out["spread"] <= 50.0
    code, out = _run(capsys, args + ["--window", "1.0"])
    assert code == 1 and out["passed"] is False


@pytest.mark.parametrize("command, option, value", [
    ("toeplitz", "--p", "abc"),
    ("toeplitz", "--p", "0.5,,2"),
    ("kernel-check", "--grid", "0"),
    ("kernel-check", "--grid", "-3"),
    # one radius gives a spread of 1 whatever the kernel, a check that cannot fail
    ("kernel-check", "--grid", "1"),
])
def test_cli_malformed_option_values_exit_2(cli_files, capsys, command, option, value):
    # a value that parses as no number list or no grid is a btk error, not a
    # traceback whose exit status 1 would read as a failed check
    files = [str(cli_files / "weight.json")]
    if command == "toeplitz":
        files.append(str(cli_files / "measure.json"))
    assert cli_main([command, *files, option, value, "--degree", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"btk: ParameterError: {option} must be ")
    assert value in captured.err and captured.err.count("\n") == 1


def test_cli_toeplitz(cli_files, capsys):
    code, out = _run(capsys, [
        "toeplitz", str(cli_files / "weight.json"),
        str(cli_files / "measure.json"), "--dim", "64", "--degree", "400",
    ])
    assert code == 0
    assert out["structure"] == "diagonal"
    assert set(out["schatten_norms"]) == {"0.5", "1.0", "2.0"}
    assert out["operator_norm"] > 0.0


def test_cli_toeplitz_atom_beyond_the_table_exits_2(tmp_path, capsys):
    # every series term at the atom 0.99 underflows for alpha = 2 at degree
    # 2000; the spectrum would drop that atom, so the run must fail instead
    weight, measure = tmp_path / "w.json", tmp_path / "mu.json"
    weight.write_text(json.dumps({"family": "exponential", "alpha": 2.0}))
    atoms = [[0.3, 0.0, 1.0], [0.99, 0.0, 1.0]]
    measure.write_text(json.dumps({"kind": "atomic", "atoms": atoms}))
    assert cli_main(["toeplitz", str(weight), str(measure), "--dim", "8", "--degree", "2000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("btk: TruncationError: ")


def test_cli_verify(cli_files, capsys):
    report = cli_files / "report.csv"
    code, out = _run(capsys, [
        "verify", str(cli_files / "scenario.json"), "--out", str(report),
    ])
    assert code == 0
    assert out["passed"] is True and out["failures"] == []
    assert report.exists()
    assert (cli_files / "report.json").exists()


def test_cli_verify_json_report_beside_an_out_without_extension(cli_files, capsys):
    # the JSON path drops the extension of the file name, never a directory's
    out_dir = cli_files / "out.d"
    out_dir.mkdir()
    code, _ = _run(capsys, [
        "verify", str(cli_files / "scenario.json"), "--out", str(out_dir / "report"),
    ])
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["report", "report.json"]
    assert not (cli_files / "out.json").exists()


def test_scenario_rejects_unknown_check_and_window_names(w1, tmp_path, capsys):
    measures = (("dA", indicator_density(0.0, 1.0)),)
    with pytest.raises(ParameterError, match="schatten'"):
        Scenario("bad", w1, measures, checks=("boundedness", "schatten"))
    with pytest.raises(ParameterError, match="schaten_ratio"):
        Scenario("bad", w1, measures, windows={"schaten_ratio": (1e-3, 1e10)})
    data = {
        "id": "typo",
        "weight": {"family": "exponential", "alpha": 1.0},
        "measures": [{"id": "dA", "kind": "radial", "density": "indicator"}],
        "checks": ["schatten"],
    }
    with pytest.raises(ParameterError, match="unknown check"):
        scenario_from_json(data)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert cli_main(["verify", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("btk: ParameterError: ") and "schatten" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("loader, data, key", [
    (btk.weight_from_json, {"family": "exponential"}, "'alpha'"),
    (btk.weight_from_json, {"family": "double_exponential", "alpha": 1.0}, "'beta', 'gamma'"),
    (btk.measures.measure_from_json, {"atoms": []}, "'kind'"),
    (btk.measures.measure_from_json, {"kind": "radial"}, "'density'"),
    (btk.measures.measure_from_json, {"kind": "radial", "density": "power"}, "'beta'"),
    (btk.measures.measure_from_json, {"kind": "grid", "nr": 2, "cells": [1.0]}, "'ntheta'"),
    (btk.measures.measure_from_json,
     {"kind": "grid", "nr": 2, "ntheta": 3, "cells": [1.0, 2.0, 3.0]}, "3 cells"),
    (btk.measures.measure_from_json, {"kind": "atomic", "atoms": [[0.1, 0.2]]}, "triples"),
    (scenario_from_json, {"weight": {"family": "exponential", "alpha": 1.0}}, "'measures'"),
    # values of the wrong JSON type
    (btk.weight_from_json, [1, 2], "weight JSON must be an object, not list"),
    (btk.weight_from_json, {"family": "double_exponential", "alpha": 1.0, "beta": True,
                            "gamma": "1"}, "numbers at 'beta', 'gamma'"),
    (btk.measures.measure_from_json, "grid", "measure JSON must be an object, not str"),
    (btk.measures.measure_from_json, {"kind": "atomic", "atoms": [[0.1, "0.2", 1.0]]},
     "numbers at 'atoms'"),
    (btk.measures.measure_from_json, {"kind": "atomic", "atoms": [0.1, 0.2, 1.0]}, "triples"),
    (btk.measures.measure_from_json, {"kind": "radial", "density": "indicator",
                                      "support": [0.0, None]}, "numbers at 'support'"),
    (btk.measures.measure_from_json, {"kind": "radial", "density": "power",
                                      "beta": 2.0, "scale": "2"}, "numbers at 'scale'"),
    (btk.measures.measure_from_json, {"kind": "grid", "nr": 2.0, "ntheta": 1,
                                      "cells": [1.0, 2.0]}, "integers at 'nr'"),
    (scenario_from_json, {"weight": {"family": "exponential", "alpha": 1.0},
                          "measures": [[0.3, 0.0, 1.0]]}, "list of objects at 'measures'"),
    (scenario_from_json, {"weight": {"family": "exponential", "alpha": 1.0}, "measures": [],
                          "dim": "32", "delta": "0.02"}, "integers at 'dim'"),
    (scenario_from_json, {"weight": {"family": "exponential", "alpha": 1.0}, "measures": [],
                          "delta": "0.02"}, "numbers at 'delta'"),
    (scenario_from_json, {"weight": {"family": "exponential", "alpha": 1.0}, "measures": [],
                          "windows": {"schatten_ratio": ["0", 1e10]}}, "'schatten_ratio'"),
    # values of the right type in the wrong shape
    (btk.measures.measure_from_json, {"kind": "radial", "density": "indicator",
                                      "support": 0.5}, "pair at 'support'"),
    (btk.measures.measure_from_json, {"kind": "radial", "density": "power", "beta": 1.0,
                                      "support": [0.1, 0.2, 0.3]}, "pair at 'support'"),
    (btk.measures.measure_from_json, {"kind": "grid", "nr": 2, "ntheta": 2,
                                      "cells": [[1.0, 2.0], [3.0]]}, "rectangular list at 'cells'"),
    (scenario_from_json, {"weight": {"family": "exponential", "alpha": 1.0}, "measures": [],
                          "windows": {"schatten_ratio": 1e10}}, "pair at 'schatten_ratio'"),
    (scenario_from_json, {"weight": {"family": "exponential", "alpha": 1.0}, "measures": [],
                          "windows": {"boundedness_ratio": [1e-2, 1e5, 1e7]}},
     "pair at 'boundedness_ratio'"),
    (scenario_from_json, {"weight": {"family": "exponential", "alpha": 1.0}, "measures": [],
                          "windows": {"berezin_rel_error": [1e-8, 1e-6]}},
     "one number at 'berezin_rel_error'"),
    (scenario_from_json, {"weight": {"family": "exponential", "alpha": 1.0}, "measures": [],
                          "windows": {"berezin_rel_error": True}},
     "one number at 'berezin_rel_error'"),
    (scenario_from_json, {"weight": {"family": "exponential", "alpha": 1.0}, "measures": [],
                          "windows": [1e-8]}, "scenario windows JSON must be an object"),
    (btk.measures.measure_from_json, {"kind": "radial", "density": "gauss"},
     "unknown radial density family 'gauss'"),
])
def test_json_loaders_name_what_is_malformed(loader, data, key):
    with pytest.raises(ParameterError, match=key):
        loader(data)


@pytest.mark.parametrize("command, payloads, message", [
    ("certify-weight", ([1, 2],), "weight JSON must be an object, not list"),
    ("certify-weight", ({"family": "exponential", "alpha": "one"},), "numbers at 'alpha'"),
    ("toeplitz", ({"family": "exponential", "alpha": 1.0},
                  {"kind": "radial", "density": "power", "beta": "two"}), "numbers at 'beta'"),
    ("toeplitz", ({"family": "exponential", "alpha": 1.0},
                  {"kind": "radial", "density": "indicator", "support": 0.5}), "pair at 'support'"),
])
def test_cli_wrong_json_types_exit_2(tmp_path, capsys, command, payloads, message):
    paths = []
    for i, payload in enumerate(payloads):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(payload))
    extra = ["--dim", "8", "--degree", "50"] if command == "toeplitz" else []
    assert cli_main([command, *map(str, paths), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("btk: ParameterError: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("measure, error, message", [
    ({"kind": "grid", "nr": -1, "ntheta": -1, "cells": [1.0]}, "ParameterError",
     "nr, ntheta >= 1"),
    ({"kind": "grid", "nr": 0, "ntheta": 2, "cells": []}, "ParameterError", "nr, ntheta >= 1"),
    ({"kind": "grid", "nr": 1, "ntheta": 2, "cells": [1.0, float("nan")]}, "DomainError",
     "finite and nonnegative"),
    ({"kind": "radial", "density": "power", "beta": 2.0, "scale": -1.0}, "DomainError",
     "scale -1.0"),
    ({"kind": "radial", "density": "power", "beta": 2.0, "scale": float("nan")}, "DomainError",
     "scale nan"),
    ({"kind": "radial", "density": "power", "beta": 2.0, "scale": float("inf")}, "DomainError",
     "scale inf"),
    ({"kind": "atomic", "atoms": [[0.1, 0.2, float("nan")]]}, "DomainError",
     "finite and nonnegative"),
    ({"kind": "atomic", "atoms": [[float("nan"), 0.2, 1.0]]}, "DomainError", "unit disk"),
])
def test_cli_malformed_measure_values_exit_2(tmp_path, capsys, measure, error, message):
    # json reads NaN and Infinity, and a grid of -1 x -1 holds one cell: each
    # is one btk: line with exit 2, not a traceback or a measure of nan mass
    weight = tmp_path / "weight.json"
    weight.write_text(json.dumps({"family": "exponential", "alpha": 1.0}))
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(measure))
    assert cli_main(["toeplitz", str(weight), str(path), "--dim", "8", "--degree", "50"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"btk: {error}: ") and message in err
    assert err.count("\n") == 1


def test_cli_malformed_json_exits_2(tmp_path, capsys):
    weight = tmp_path / "weight.json"
    weight.write_text(json.dumps({"family": "exponential"}))
    assert cli_main(["certify-weight", str(weight)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("btk: ParameterError: ") and "'alpha'" in err
    weight.write_text(json.dumps({"family": "exponential", "alpha": 1.0}))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"kind": "grid", "nr": 2, "ntheta": 3, "cells": [1.0, 2.0, 3.0]}))
    assert cli_main(["toeplitz", str(weight), str(grid), "--dim", "8", "--degree", "50"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("btk: ParameterError: ") and "3 cells" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["certify-weight", "toeplitz", "verify"])
def test_cli_invalid_json_exits_2(cli_files, capsys, command):
    # a file cut short is named with the position where parsing stopped
    broken = cli_files / "broken.json"
    broken.write_text('{"family": "exponential",')
    weight = str(cli_files / "weight.json")
    argv = {
        "certify-weight": ["certify-weight", str(broken)],
        "toeplitz": ["toeplitz", weight, str(broken), "--dim", "8", "--degree", "50"],
        "verify": ["verify", str(broken), "--out", str(cli_files / "r.csv")],
    }[command]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"btk: ParameterError: {broken} is not valid JSON: ")
    assert "line 1 column 26" in captured.err
    assert captured.err.count("\n") == 1
