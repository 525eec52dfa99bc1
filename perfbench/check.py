"""Output check: compare a run's outputs with the recorded reference.

Tolerances are the ones the repository's tests already state for the same
quantity; a value outside them is a failed operation.

* lattice point digest, counts, flags, structure names: exact
  (test_build_is_deterministic, test_count_in_ball_matches_brute_force).
* report.csv quantities: relative 1e-6, the runner tests' tolerance on
  C_mu and lambda1_over_Cmu; berezin_max_rel_err must stay within the
  runner's 1e-8 window rather than near a rounding-level reference.
* leading eigenvalues: absolute 1e-10 times the largest (test_toeplitz's
  dense-versus-fast-path oracles).
* Schatten norms and Carleson values: relative 1e-6 (pytest.approx).
* operator Berezin symbol: relative 1e-8 (test_berezin_operator_*), and
  never above lambda_1 (1 + 1e-12).
"""

from __future__ import annotations

import math

REL_REPORT = 1e-6
REL_SCHATTEN = 1e-6
REL_CARLESON = 1e-6
REL_BEREZIN_OPERATOR = 1e-8
ABS_EIGENVALUE = 1e-10
REL_SEPARATION = 1e-12
BEREZIN_REL_ERR_WINDOW = 1e-8


def _close(a, b, rel: float = 0.0, abs_tol: float = 0.0) -> bool:
    if isinstance(b, float) and math.isnan(b):
        return isinstance(a, float) and math.isnan(a)
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _same(path: str, got, want, problems: list, rel: float = 0.0, abs_tol: float = 0.0):
    if isinstance(want, (bool, int, str)) or want is None:
        ok = type(got) is type(want) and got == want
    elif isinstance(want, float):
        ok = isinstance(got, (int, float)) and not isinstance(got, bool) and _close(
            float(got), want, rel, abs_tol)
    elif isinstance(want, list):
        ok = isinstance(got, list) and len(got) == len(want)
        if ok:
            for i, (g, w) in enumerate(zip(got, want)):
                _same(f"{path}[{i}]", g, w, problems, rel, abs_tol)
            return
    else:
        raise TypeError(f"{path}: unexpected reference value {want!r}")
    if not ok:
        problems.append(f"{path}: got {got!r}, reference {want!r}")


def _verify_row(row: dict, ref: dict, problems: list) -> None:
    _same("error", row["error"], ref["error"], problems)
    if set(row["cells"]) != set(ref["cells"]):
        problems.append(f"columns {sorted(set(row['cells']) ^ set(ref['cells']))} "
                        "differ from the reference")
        return
    for key, val in ref["cells"].items():
        got = row["cells"][key]
        if key == "q:berezin_max_rel_err":
            if not got <= BEREZIN_REL_ERR_WINDOW:
                problems.append(f"{key}: {got!r} above {BEREZIN_REL_ERR_WINDOW:g}")
        else:
            _same(key, got, val, problems, rel=REL_REPORT)


def _spectrum(got: dict, want: dict, problems: list) -> None:
    for key in ("structure", "dim"):
        _same(key, got[key], want[key], problems)
    lam1 = want["eigenvalues"][0]
    _same("eigenvalues", got["eigenvalues"], want["eigenvalues"], problems,
          abs_tol=ABS_EIGENVALUE * max(lam1, 1e-300))
    for p, val in want["schatten"].items():
        _same(f"schatten.{p}", got["schatten"].get(p), val, problems, rel=REL_SCHATTEN)
    _same("berezin", got["berezin"], want["berezin"], problems, rel=REL_BEREZIN_OPERATOR)
    top = got["eigenvalues"][0] * (1.0 + 1e-12)
    if any(not (0.0 <= b <= top) for b in got["berezin"]):
        problems.append("berezin: operator symbol outside [0, lambda_1]")


def _geometry(got: dict, want: dict, problems: list) -> None:
    for key, val in want.items():
        if key == "min_separation_ratio":
            _same(key, got[key], val, problems, rel=REL_SEPARATION)
        elif key in ("value", "tail_sups"):
            _same(key, got[key], val, problems, rel=REL_CARLESON)
        else:
            _same(key, got[key], val, problems)


def units(workload: str, op: str, output: dict) -> dict:
    """Operations counted in one output -> the guard error each one raised.

    A `btk verify` run counts one operation per report row; the row's error
    note (a ConvergenceError, TruncationError, ...) is its guard error.
    """
    if workload == "verify_ref":
        return {row_id: row["error"] for row_id, row in output["rows"].items()}
    return {op: None}


def _checked(fn, *args) -> list[str]:
    problems: list[str] = []
    try:
        fn(*args, problems)
    except (KeyError, TypeError) as exc:
        problems.append(f"output shape differs from the reference: {exc!r}")
    return problems


def compare(workload: str, op: str, got: dict, want: dict | None) -> dict:
    """Operation -> problems found against the reference (empty list: matches)."""
    if want is None:
        return {unit: ["no reference recorded"] for unit in units(workload, op, got)}
    if workload == "verify_ref":
        out = {}
        for row_id in set(got["rows"]) | set(want["rows"]):
            if row_id not in want["rows"] or row_id not in got["rows"]:
                out[row_id] = ["row missing from the run or the reference"]
            else:
                out[row_id] = _checked(_verify_row, got["rows"][row_id], want["rows"][row_id])
        return out
    if workload == "operator_spectra":
        return {op: _checked(_spectrum, got, want)}
    return {op: _checked(_geometry, got, want)}
