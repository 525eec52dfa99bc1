"""Criterion-9 delta sweep, an untimed report kept out of the timed runs.

The acceptance test for criterion 9 asks that the integral, lattice-sum and
Berezin forms of the L^p functional agree within an absolute factor window.
They cannot at the default delta: mu_hat_delta(dA) = delta^2 while
B(dA) = 1, so their p-th powers differ by a power of delta.  This sweep
measures that power.  It runs the runner's own ``sweep_family`` over
delta = m_tau * {1/8, 1/16, 1/32} on power2_r07 and fits, for each pair of
forms, the exponent k in ratio ~ delta^k, printed next to the 2p the README
states.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

SWEEP_FRACTIONS = (1 / 8, 1 / 16, 1 / 32)
SWEEP_PS = (1.0, 2.0)


def _forms(entry: dict, p: float, r_ref: float) -> dict:
    """p-th powers of the three forms in one sweep_family entry."""
    keys = {
        "integral": f"q:muhat_L{p:g}_r{r_ref:g}",
        "lattice": f"q:lattice_l{p:g}",
        "berezin": f"q:berezin_L{p:g}",
    }
    return {form: entry[key] ** p for form, key in keys.items() if key in entry}


def sweep() -> dict:
    import btk
    from btk.runner import Scenario, sweep_family

    w = btk.make_exponential_weight(1.0)
    scenario = Scenario(
        scenario_id="criterion9",
        weight=w,
        measures=(("power2_r07", btk.power_density(2.0, support=(0.0, 0.7))),),
        r_max_ladder=(0.7,),
        ps=SWEEP_PS,
        checks=("schatten_equivalence", "berezin_equivalence"),
        degree_max=800,
        lattice_r_max=0.5,
    )
    deltas = [w.m_tau * f for f in SWEEP_FRACTIONS]
    table = sweep_family(scenario, "delta", deltas)
    rows = [e for e in table if e["measure_id"] == "power2_r07"]
    fits = {}
    for p in SWEEP_PS:
        forms = [_forms(e, p, scenario.r_max_ladder[0]) for e in rows]
        for a, b in itertools.combinations(("integral", "lattice", "berezin"), 2):
            if not all(a in f and b in f for f in forms):
                fits[f"p{p:g} {a}/{b}"] = {"exponent": None, "two_p": 2 * p}
                continue
            ratios = [f[a] / f[b] for f in forms]
            slope = float(np.polyfit(np.log(deltas), np.log(ratios), 1)[0])
            fits[f"p{p:g} {a}/{b}"] = {"exponent": slope, "two_p": 2 * p, "ratios": ratios}
    return {"deltas": deltas, "fits": fits}


def report() -> None:
    result = sweep()
    print("criterion 9: ratio ~ delta^k over delta = "
          + ", ".join(f"{d:.5g}" for d in result["deltas"]))
    for pair, fit in result["fits"].items():
        k = "missing" if fit["exponent"] is None else f"{fit['exponent']:+.3f}"
        print(f"  {pair:<24} k = {k:>8}   (2p = {fit['two_p']:g})")
    print(json.dumps(result))
