import json
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btk
from btk.basis import kernel_at_points, kernel_norm_sq, kernel_norm_sq_many
from btk.errors import ConvergenceError, DomainError, ParameterError, TruncationError
from btk.measures import (
    AtomicMeasure,
    GridDensityMeasure,
    RadialDensityMeasure,
    _atom_region_radii,
    _atomic_muhat_lp_integral,
    _berezin_polar_field,
    berezin_many,
    carleson_constant,
    compensated_density,
    indicator_density,
    lattice_lp_sum,
    load_measure,
    lp_lambda_tau_norm,
    measure_from_json,
    mu_hat,
    mu_hat_lp_norm,
    polar_points,
    power_density,
    save_measure,
    zero_measure,
)

from oracles import (
    berezin_measure,
    fubini_muhat_l1,
    gridded_muhat_lp_integral,
    region_radii_60_steps,
    simpson_doubling,
)


@pytest.fixture(scope="module")
def dA():
    return indicator_density(0.0, 1.0)


# --- measure types ----------------------------------------------------------


def test_atomic_disk_mass():
    mu = AtomicMeasure([0.3, -0.4j], [1.0, 2.0])
    assert mu.total_mass == 3.0
    assert mu.disk_mass(0.3, 0.05) == 1.0
    assert mu.disk_mass(0.0, 0.5) == 3.0
    assert mu.disk_mass(0.9, 0.01) == 0.0
    np.testing.assert_allclose(
        mu.disk_mass_many(np.array([0.3, 0.0]), np.array([0.05, 0.5])), [1.0, 3.0]
    )


def test_atomic_validation():
    with pytest.raises(DomainError):
        AtomicMeasure([1.0], [1.0])
    with pytest.raises(DomainError):
        AtomicMeasure([0.5], [-1.0])
    with pytest.raises(DomainError):
        AtomicMeasure([0.5, 0.2], [1.0])


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: RadialDensityMeasure(lambda r: 0.0 * r, (-0.1, 0.5)),
                 "bad radial support", id="radial-below-0"),
    pytest.param(lambda: RadialDensityMeasure(lambda r: 0.0 * r, (0.2, 1.5)),
                 "bad radial support", id="radial-above-1"),
    pytest.param(lambda: RadialDensityMeasure(lambda r: 0.0 * r, (0.6, 0.3)),
                 "bad radial support", id="radial-reversed"),
    pytest.param(lambda: GridDensityMeasure([1.0, 2.0, 3.0]), "2-D", id="grid-1d-cells"),
    pytest.param(lambda: GridDensityMeasure(np.ones((2, 3)), r_outer=1.0), "r_outer",
                 id="grid-r_outer-1"),
    pytest.param(lambda: GridDensityMeasure(np.ones((2, 3)), r_outer=0.0), "r_outer",
                 id="grid-r_outer-0"),
])
def test_density_measure_validation(make, message):
    with pytest.raises(DomainError, match=message):
        make()


@pytest.mark.parametrize("make", [
    pytest.param(lambda: GridDensityMeasure(np.zeros((0, 5))), id="no-rings"),
    pytest.param(lambda: GridDensityMeasure(np.zeros((3, 0))), id="no-sectors"),
    pytest.param(lambda: GridDensityMeasure.area_measure(0, 4), id="area-no-rings"),
])
def test_empty_grid_is_refused(make):
    with pytest.raises(ParameterError, match="nr, ntheta >= 1"):
        make()


@pytest.mark.parametrize("make", [
    pytest.param(lambda: power_density(2.0, support=(0.3, 0.3)), id="point-support"),
    # the support [1, 1 - 1e-12] ends below its start once clipped
    pytest.param(lambda: indicator_density(1.0, 1.0), id="clipped-support"),
])
def test_radial_density_on_an_empty_support_is_zero(make):
    mu = make()
    assert mu.total_mass == 0.0
    assert mu.is_zero


def test_power_density_total_mass():
    # 2 int (1 - r^2) r dr = 1/2
    mu = power_density(1.0)
    assert mu.total_mass == pytest.approx(0.5, rel=1e-10)


@pytest.mark.parametrize("beta, rtol", [
    # g(r) = (1 - r^2)^beta is singular at r = 1, 1e-12 past the support edge,
    # where doubles lie 1.1e-16 apart: rounding the Gauss nodes alone leaves
    # 3.5e-8 relative at beta = -0.99 (the same nodes at 40 digits give 2e-16)
    (-0.99, 1e-7), (-0.9, 1e-7), (-0.5, 1e-10), (0.0, 1e-10), (2.0, 1e-10),
])
def test_power_density_total_mass_matches_closed_form(beta, rtol):
    # 2 int_0^b (1 - r^2)^beta r dr = (1 - (1 - b^2)^(beta + 1)) / (beta + 1)
    mu = power_density(beta)
    b = mu.support[1]
    gap = (1.0 - b) * (1.0 + b)  # 1 - b is exact in doubles
    assert mu.total_mass == pytest.approx((1.0 - gap ** (beta + 1.0)) / (beta + 1.0), rel=rtol)


def test_radial_total_mass_raises_when_orders_never_agree():
    rng = np.random.default_rng(0)
    with pytest.raises(ConvergenceError, match="total mass"):
        RadialDensityMeasure(lambda r: rng.normal(size=np.shape(r)))


def test_indicator_total_mass():
    mu = indicator_density(0.3, 0.7)
    assert mu.total_mass == pytest.approx(0.7**2 - 0.3**2, rel=1e-12)


def test_radial_disk_mass_centered(dA):
    # disk at the origin of radius rho has dA-mass rho^2
    for rho in (0.1, 0.35, 0.8):
        assert dA.disk_mass(0.0, rho) == pytest.approx(rho**2, rel=1e-10)


def test_radial_disk_mass_off_center(dA):
    # any disk contained in the support has dA-mass rho^2
    for c, rho in ((0.4, 0.2), (0.3 + 0.5j, 0.15), (-0.6j, 0.3)):
        assert dA.disk_mass(c, rho) == pytest.approx(rho**2, rel=1e-9)


def test_radial_disk_mass_annulus_cases():
    mu = indicator_density(0.4, 0.6)
    # disk strictly inside the hole
    assert mu.disk_mass(0.0, 0.3) == pytest.approx(0.0, abs=1e-12)
    # disk containing the whole annulus
    assert mu.disk_mass(0.0, 0.9) == pytest.approx(mu.total_mass, rel=1e-10)


def _mp_disk_mass(g, support, d, rho):
    """mu(D(c, rho)) for |c| = d and the density g(r) on support, at 30 digits.

    (1/pi) int r g(r) Theta(r) dr over the radii whose circle meets the disk
    in an arc, Theta = 2 acos((d^2 + r^2 - rho^2) / (2 d r)), plus
    2 int r g(r) dr over the circles inside the disk whole.
    """
    with mpmath.workdps(30):
        lo, hi = mpmath.mpf(support[0]), mpmath.mpf(support[1])
        d, rho = mpmath.mpf(d), mpmath.mpf(rho)
        total = mpmath.mpf(0)
        if min(hi, rho - d) > lo:
            total += 2 * mpmath.quad(lambda r: r * g(r), [lo, min(hi, rho - d)])
        a, b = max(lo, abs(d - rho)), min(hi, d + rho)
        if b > a and d > 0:
            def theta(r):
                c = (d * d + r * r - rho * rho) / (2 * d * r)
                return 2 * mpmath.acos(max(min(c, 1), -1))

            total += mpmath.quad(lambda r: r * g(r) * theta(r), [a, b]) / mpmath.pi
        return total


def _radial_oracle_cases(w1, delta1):
    rho_of = lambda d: delta1 * float(w1.tau(d))  # noqa: E731  mu_hat's radius
    power2 = lambda r: (1 - r * r) ** 2  # noqa: E731
    rho = 0.02
    near = [rho * (1 + e) for e in (-1e-3, -1e-5, 0.0, 1e-5, 1e-3)]
    return [
        # centre at 0, inside its own disk, d ~ rho, and d / rho from 1.4 to 500
        ("power2", power_density(2.0), power2,
         [(0.0, rho), (0.005, 0.0208), (0.01, 0.0208), (0.015, rho)]
         + [(d, rho) for d in near] + [(k * rho, rho) for k in (1.4, 3.0, 20.0)]
         + [(0.5, 0.001)]),
        ("power2_r07", power_density(2.0, (0.0, 0.7)), power2,
         [(d, rho_of(d)) for d in (0.69, 0.695, 0.7, 0.705, 0.71)]),
        ("indicator", indicator_density(0.3, 0.6), lambda r: mpmath.mpf(1),
         [(d, rho_of(d)) for d in (0.28, 0.29, 0.3, 0.31, 0.59, 0.6, 0.61)]),
        ("compensated", compensated_density(w1, 0.5, 1.0),
         lambda r: mpmath.exp(0.5 / (1 - r * r)) * (1 - r * r),
         [(d, rho_of(d)) for d in (0.96, 0.965, 0.97, 0.975)]),
    ]


def test_radial_disk_mass_matches_mpmath_oracle(w1, delta1):
    for name, mu, g, cases in _radial_oracle_cases(w1, delta1):
        d, rho = np.array(cases).T
        # turn the centres off the real axis; the oracle takes the |c| used
        centers = d * np.exp(0.7j)
        got = mu.disk_mass_many(centers, rho)
        for k, (dk, rk) in enumerate(zip(np.abs(centers), rho)):
            want = float(_mp_disk_mass(g, mu.support, dk, rk))
            assert abs(got[k] - want) <= 1e-13 * want, (name, dk, rk, got[k], want)


def test_radial_disk_mass_gauss_path_takes_rows_the_trapezoid_leaves_open():
    # log g has a kink at r = 0.5 inside each disk, so the trapezoid levels in
    # v stay apart and the whole arcs fall through to the Gauss path.  With
    # hi = d + rho the same arc is clipped there and goes to that path at once.
    log_g = lambda r: -10.0 * np.abs(r - 0.5)  # noqa: E731
    mu = RadialDensityMeasure(log_g)
    v = np.arange(1, 32) * (np.pi / 32)
    for d, rho in ((0.5, 0.05), (0.52, 0.03), (0.47, 0.04)):
        got = mu.disk_mass(d, rho)
        assert got == RadialDensityMeasure(log_g, (0.0, d + rho)).disk_mass(d, rho)
        r = d - rho * np.cos(v)
        theta_4 = np.arcsin(rho * np.sin(v) / (2 * np.sqrt(d * r)))
        trapezoid32 = 4.0 * rho * np.sum(r * np.exp(log_g(r)) * theta_4 * np.sin(v)) / 32
        assert abs(trapezoid32 - got) > 1e-8 * got


def test_grid_area_measure_matches_radial(dA):
    grid = GridDensityMeasure.area_measure(nr=64, ntheta=64, r_outer=0.95)
    assert grid.total_mass == pytest.approx(0.95**2, rel=1e-12)
    for c, rho in ((0.2, 0.3), (0.3 + 0.4j, 0.2)):
        assert grid.disk_mass(c, rho) == pytest.approx(
            dA.disk_mass(c, rho), rel=2e-2
        )


def test_grid_warns_when_under_resolved():
    grid = GridDensityMeasure.area_measure(nr=16, ntheta=16)
    with pytest.warns(RuntimeWarning):
        grid.disk_mass(0.3, 1e-3)


def _cell_fraction(mu, r1, r2, t1, t2, center, rho, depth):
    """The recursive per-cell classification that disk_mass_many batches."""
    rs = np.array([r1, 0.5 * (r1 + r2), r2])
    ts = np.array([t1, 0.5 * (t1 + t2), t2])
    pts = rs[:, None] * np.exp(1j * ts)[None, :]
    inside = np.abs(pts - center) < rho
    diam = (r2 - r1) + r2 * (t2 - t1)
    if inside.all():
        return 1.0
    if not inside.any() and diam <= rho:
        return 0.0
    if depth >= mu.MAX_DEPTH:
        rq = np.linspace(r1, r2, 9)[1::2]
        tq = np.linspace(t1, t2, 9)[1::2]
        sq = rq[:, None] * np.exp(1j * tq)[None, :]
        return float(np.mean(np.abs(sq - center) < rho))
    rm, tm = 0.5 * (r1 + r2), 0.5 * (t1 + t2)
    quads = [(r1, rm, t1, tm), (r1, rm, tm, t2), (rm, r2, t1, tm), (rm, r2, tm, t2)]
    fr, total = 0.0, 0.0
    for q in quads:
        a = (q[1] ** 2 - q[0] ** 2) * (q[3] - q[2])
        fr += a * _cell_fraction(mu, *q, center, rho, depth + 1)
        total += a
    return fr / total


def _grid_disk_mass_loop(mu, center, rho):
    """The per-centre, per-cell loop that disk_mass_many replaced."""
    if rho <= 0.0 or mu.total_mass == 0.0:
        return 0.0
    d = abs(center)
    i_lo = np.searchsorted(mu.r_edges, max(d - rho, 0.0), side="right") - 1
    i_hi = np.searchsorted(mu.r_edges, min(d + rho, mu.r_outer), side="left")
    total = 0.0
    for i in range(max(i_lo, 0), min(i_hi, mu.nr)):
        for j in range(mu.ntheta):
            if mu.cells[i, j] == 0.0:
                continue
            f = _cell_fraction(mu, mu.r_edges[i], mu.r_edges[i + 1],
                               mu.t_edges[j], mu.t_edges[j + 1], center, rho, 0)
            total += mu.cells[i, j] * f
    return total


def test_grid_disk_mass_matches_cell_loop(rng, monkeypatch):
    cells = rng.random((8, 12))
    cells[2] = 0.0
    cells[5, 3:7] = 0.0
    mu = GridDensityMeasure(cells, r_outer=0.95)
    seam = [0.4 * np.exp(s * 1j) for s in (0.0, 1e-13, -1e-13, 2.0 * np.pi - 1e-13)]
    centers = np.concatenate([
        0.95 * np.sqrt(rng.random(60)) * np.exp(2j * np.pi * rng.random(60)),
        [0.0, 0.0, -0.3 + 0.0j, -0.3 - 0.0j], seam,
    ])
    rhos = np.concatenate([
        rng.uniform(0.01, 0.5, 60), [0.05, 0.7, 0.2, 0.2], [0.15, 0.15, 0.05, 0.3],
    ])
    # under-resolved: smaller than the radial cell size 0.95 / 8
    rhos[::9] = 0.02
    with pytest.warns(RuntimeWarning):
        got = mu.disk_mass_many(centers, rhos)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = np.array([_grid_disk_mass_loop(mu, c, p) for c, p in zip(centers, rhos)])
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
        assert np.any(ref == 0.0) and np.any(ref > 0.0)
        # several chunks give what one call per centre gives
        one = np.array([mu.disk_mass(c, p) for c, p in zip(centers, rhos)])
        monkeypatch.setattr(btk.measures, "GRID_PAIR_CHUNK", 5 * np.count_nonzero(cells))
        np.testing.assert_allclose(mu.disk_mass_many(centers, rhos), one, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got, one, rtol=1e-12, atol=0.0)


def test_grid_disk_mass_zero_cells_and_radii():
    empty = GridDensityMeasure(np.zeros((4, 6)))
    assert np.all(empty.disk_mass_many(np.array([0.0, 0.3j]), 0.5) == 0.0)
    grid = GridDensityMeasure.area_measure(nr=8, ntheta=8)
    np.testing.assert_array_equal(grid.disk_mass_many(np.array([0.2, 0.5]), [0.0, -1.0]), 0.0)
    assert grid.disk_mass_many(np.array([], dtype=complex), 0.3).shape == (0,)


def test_scaling_homogeneity(dA):
    for mu in (dA, AtomicMeasure([0.3], [2.0]),
               GridDensityMeasure.area_measure(nr=16, ntheta=16)):
        s = mu.scaled(3.5)
        assert s.total_mass == pytest.approx(3.5 * mu.total_mass, rel=1e-12)
        assert s.disk_mass(0.2, 0.25) == pytest.approx(
            3.5 * mu.disk_mass(0.2, 0.25), rel=1e-10
        )


def test_radial_scaled_by_zero_is_the_zero_density_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = power_density(2.0).scaled(0.0)
        assert s.log_g(np.array([0.1, 0.5])).tolist() == [-np.inf, -np.inf]
    assert s.meta["scale"] == 0.0


def test_measure_json_round_trips(w1, tmp_path, dA):
    cases = [
        AtomicMeasure([0.3, 0.1 - 0.2j], [1.0, 0.5]),
        power_density(2.0, (0.0, 0.7)),
        compensated_density(w1, 0.5, 1.0),
        GridDensityMeasure.area_measure(nr=8, ntheta=12),
        zero_measure(),
    ]
    for k, mu in enumerate(cases):
        path = str(tmp_path / f"m{k}.json")
        save_measure(mu, path)
        again = load_measure(path, w1)
        assert type(again) is type(mu)
        assert again.total_mass == pytest.approx(mu.total_mass, rel=1e-9, abs=1e-15)
        assert again.disk_mass(0.2, 0.3) == pytest.approx(
            mu.disk_mass(0.2, 0.3), rel=1e-9, abs=1e-15
        )
    with pytest.raises(ParameterError):
        measure_from_json({"kind": "radial", "density": "compensated", "s": 0.5,
                           "beta": 1.0})  # needs the weight
    with pytest.raises(ParameterError):
        measure_from_json({"kind": "nope"})


def test_radial_density_mass_overflow_raises_domain_error(w2):
    # omega^(-1/2) at alpha = 2 reaches exp(1250) by r = 0.99: no double holds it
    with pytest.raises(DomainError, match=r"compensated.*\[0\.0, 0\.99\]"):
        compensated_density(w2, 0.5, 1.0)
    with pytest.raises(DomainError, match="compensated"):
        measure_from_json(
            {"kind": "radial", "density": "compensated", "s": 0.5, "beta": 1.0}, w2
        )
    # the same density is representable on a shorter support
    assert np.isfinite(compensated_density(w2, 0.5, 1.0, (0.0, 0.9)).total_mass)


@pytest.mark.parametrize("beta, message", [
    (float("nan"), "'beta': nan} has total mass nan "),
    (-np.inf, "'beta': -inf} has total mass inf "),
])
def test_radial_density_refuses_a_non_finite_total_mass(w1, beta, message):
    # unchecked, NaN built a measure whose operator had an all-zero spectrum
    with pytest.raises(DomainError, match=re.escape(message)):
        power_density(beta)
    # Python's JSON parser reads NaN and -Infinity
    text = json.dumps({"kind": "radial", "density": "power", "beta": beta})
    with pytest.raises(DomainError, match=re.escape(message)):
        measure_from_json(json.loads(text), w1)


def test_measure_json_omitted_keys_take_constructor_defaults(w1):
    cells = np.arange(1.0, 7.0).reshape(2, 3)
    cases = [
        ({"density": "power", "beta": 2.0}, power_density(2.0)),
        ({"density": "indicator"}, indicator_density()),
        ({"density": "compensated", "s": 0.5, "beta": 1.0},
         compensated_density(w1, 0.5, 1.0)),
    ]
    r = np.linspace(0.0, 0.999, 41)
    for data, want in cases:
        got = measure_from_json({"kind": "radial", **data}, w1)
        assert got.to_json() == want.to_json()
        assert got.total_mass == want.total_mass
        assert got.g(r).tobytes() == want.g(r).tobytes()
    assert compensated_density(w1, 0.5, 1.0).support == (0.0, 0.99)
    assert indicator_density().support == indicator_density(0.0, 1.0).support
    got = measure_from_json({"kind": "grid", "nr": 2, "ntheta": 3,
                             "cells": cells.ravel().tolist()})
    assert got.to_json() == GridDensityMeasure(cells).to_json()


# --- averaging function and Carleson constant ------------------------------


def test_mu_hat_area_measure_is_delta_sq(w1, delta1, dA):
    for z in (0.0, 0.3, 0.5 * np.exp(1.1j), 0.85):
        assert mu_hat(w1, dA, delta1, z) == pytest.approx(delta1**2, rel=1e-9)


def test_mu_hat_atomic(w1, delta1):
    mu = AtomicMeasure([0.3], [2.0])
    tau = float(w1.tau(0.3))
    assert mu_hat(w1, mu, delta1, 0.3) == pytest.approx(2.0 / tau**2, rel=1e-12)
    assert mu_hat(w1, mu, delta1, 0.8) == 0.0


def test_mu_hat_many_matches_scalar(w1, delta1, dA):
    zs = np.array([[0.1, 0.4 + 0.2j, 0.7j], [0.0, -0.5, 0.3 - 0.3j]])
    for mu in (dA, AtomicMeasure([0.4 + 0.2j, -0.5], [1.0, 2.0])):
        many = mu_hat(w1, mu, delta1, zs)
        assert many.shape == zs.shape
        for k, z in np.ndenumerate(zs):
            one = mu_hat(w1, mu, delta1, z)
            assert type(one) is float
            assert many[k] == pytest.approx(one, rel=1e-12)


def test_mu_hat_validation(w1, delta1, dA):
    with pytest.raises(ParameterError):
        mu_hat(w1, dA, w1.m_tau, 0.3)
    with pytest.raises(DomainError):
        mu_hat(w1, dA, delta1, 1.0)


def test_mu_hat_array_outside_disk_raises(w1, delta1, dA):
    with pytest.raises(ParameterError):
        mu_hat(w1, dA, w1.m_tau, np.array([0.3]))
    for zs in (np.array([0.5, 1.0, 1.2]), np.array([[0.1], [1.0j]])):
        with pytest.raises(DomainError):
            mu_hat(w1, dA, delta1, zs)


def test_carleson_area_measure(w1, delta1, dA):
    rep = carleson_constant(w1, dA, delta1, 0.9)
    assert rep.value == pytest.approx(delta1**2, rel=1e-8)
    # mu_hat is constant, so the tail ladder never decays
    for t in rep.tail_sups:
        assert t == pytest.approx(rep.value, rel=1e-8)
    assert not rep.compact_signature


def test_carleson_atomic_compact(w1, delta1):
    mu = AtomicMeasure([0.4], [1.0])
    rep = carleson_constant(w1, mu, delta1, 0.9)
    tau = float(w1.tau(0.4))
    assert rep.value >= 1.0 / tau**2  # grid refinement hits the atom
    # the sup sits within delta*tau of the atom (tau shrinks outward, so the
    # argmax is pushed just past the atom toward the boundary)
    assert abs(rep.argmax - 0.4) < 2.0 * delta1 * tau
    assert rep.compact_signature


def test_carleson_validation(w1, delta1, dA):
    for r_max in (0.0, 1.0, 1.5, float("nan")):
        with pytest.raises(DomainError, match="r_max"):
            carleson_constant(w1, dA, delta1, r_max)


@pytest.mark.parametrize("options", [
    # unchecked: numpy's ValueError from an empty argmax, a ZeroDivisionError
    # from an empty ring of angles, and an IndexError in compact_signature
    pytest.param({"n_r": 0}, id="n_r-0"),
    pytest.param({"n_theta": 0}, id="n_theta-0"),
    pytest.param({"tail_radii": ()}, id="no-tail-radii"),
])
@pytest.mark.parametrize("mu", [AtomicMeasure([0.3, -0.2j], [1.0, 0.5]), power_density(2.0),
                                zero_measure()], ids=["atoms", "radial", "zero"])
def test_carleson_rejects_an_empty_grid_or_tail_ladder(w1, delta1, mu, options):
    with pytest.raises(ParameterError, match="carleson_constant needs"):
        carleson_constant(w1, mu, delta1, 0.9, **options)


def test_carleson_zero_measure(w1, delta1):
    rep = carleson_constant(w1, zero_measure(), delta1, 0.9)
    assert rep.value == 0.0
    assert rep.compact_signature


def test_carleson_power2_tail_sups_match_mpmath(w1, delta1):
    # the report.csv cells q:tail_sup_0.765 and q:tail_sup_0.855 of power2
    rep = carleson_constant(w1, power_density(2.0), delta1, 0.9)
    radii = np.linspace(0.0, 0.9, 800)
    power2 = lambda r: (1 - r * r) ** 2  # noqa: E731
    for f in (0.85, 0.95):
        k = rep.tail_radii.index(f * 0.9)
        # mu_hat falls beyond 0.7, so the tail sup sits on the first radius past the cut
        first = radii[radii > rep.tail_radii[k]][:3]
        tau = w1.tau(first)
        want = max(
            float(_mp_disk_mass(power2, (0.0, 1.0 - 1e-12), r, delta1 * t)) / t**2
            for r, t in zip(first, tau)
        )
        assert abs(rep.tail_sups[k] - want) <= 1e-14 * want


# --- Berezin transform ------------------------------------------------------


def test_berezin_area_measure_is_one(bt400, dA):
    for z in (0.0, 0.3, 0.55 * np.exp(0.4j)):
        assert berezin_measure(bt400, dA, z) == pytest.approx(1.0, rel=1e-10)


def test_berezin_many_matches_scalar(bt400, dA):
    zs = np.array([0.0, 0.2 + 0.1j, 0.5, 0.6j])
    mus = [
        dA,
        AtomicMeasure([0.3, -0.2j], [1.0, 0.4]),
        GridDensityMeasure.area_measure(nr=12, ntheta=16, r_outer=0.7),
    ]
    for mu in mus:
        many = berezin_many(bt400, mu, zs)
        for k, z in enumerate(zs):
            assert many[k] == pytest.approx(
                berezin_measure(bt400, mu, z), rel=1e-9
            )


def test_berezin_grid_approximates_area_measure(bt400):
    grid = GridDensityMeasure.area_measure(nr=48, ntheta=64, r_outer=0.98)
    assert berezin_measure(bt400, grid, 0.3) == pytest.approx(1.0, rel=5e-2)


def test_berezin_atomic_formula(bt400, w1):
    # single atom: B(z) = m |k_z(xi)|^2 omega(xi)
    from btk.basis import kernel_norm_sq, normalized_kernel

    xi, m = 0.35 * np.exp(0.8j), 1.7
    mu = AtomicMeasure([xi], [m])
    z = 0.2 - 0.1j
    la, _ = normalized_kernel(bt400, z, xi)
    expect = m * np.exp(2.0 * la + float(w1.log_weight(abs(xi))))
    assert berezin_measure(bt400, mu, z) == pytest.approx(expect, rel=1e-12)


@pytest.fixture(scope="module")
def bt60(w1):
    """Degree-60 table: its kernel series stop being adequate near |w| = 0.44."""
    return btk.build_basis_table(w1, 60)


def _tail_threshold(bt):
    """Largest |w| (to bisection precision) where the series passes its tail check."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        try:
            kernel_norm_sq(bt, np.sqrt(mid))
            lo = mid
        except TruncationError:
            hi = mid
    return lo


def _per_point_checks_raise(bt, nodes, zs):
    """The per-point truncation checks that berezin_many's two-call guard replaced."""
    try:
        kernel_norm_sq_many(bt, np.abs(zs))
        for xi in nodes:
            kernel_at_points(bt, xi, zs)
    except TruncationError:
        return True
    return False


def _guard_case(bt, kind, side):
    """(measure, its nodes, largest |z|) on either side of bt's tail threshold."""
    w_crit = _tail_threshold(bt)
    if kind == "atoms":
        # the pair (outer atom, outer z) crosses the threshold; |z|^2 does not
        mu = AtomicMeasure([0.9 * np.exp(0.3j), 0.2, -0.5j], [1.0, 0.5, 0.25])
        return mu, mu.points, side * w_crit / 0.9
    if kind == "grid":
        mu = GridDensityMeasure(np.ones((4, 6)), r_outer=0.95)
        nodes, _ = mu.nodes()
        return mu, nodes, side * w_crit / np.max(np.abs(nodes))
    # |z|^2 crosses the threshold; every (node, z) pair stays far inside
    if kind == "z_atomic":
        mu = AtomicMeasure([0.1, 0.05j], [1.0, 1.0])
        return mu, mu.points, np.sqrt(side * w_crit)
    return power_density(2.0), [], np.sqrt(side * w_crit)


@pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3], ids=["inside", "outside"])
@pytest.mark.parametrize("kind", ["atoms", "grid", "z_atomic", "z_radial"])
def test_berezin_many_guard_matches_per_point_checks(bt60, kind, side):
    mu, nodes, r_z = _guard_case(bt60, kind, side)
    ring = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 7))
    zs = np.concatenate([[0.0], 0.3 * ring, r_z * ring])
    expect = _per_point_checks_raise(bt60, nodes, zs)
    assert expect == (side > 1.0)
    if expect:
        with pytest.raises(TruncationError):
            berezin_many(bt60, mu, zs)
    else:
        assert np.all(np.isfinite(berezin_many(bt60, mu, zs)))


def _raises_truncation(fn, *args):
    try:
        fn(*args)
    except TruncationError:
        return True
    return False


@pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3], ids=["inside", "outside"])
@pytest.mark.parametrize("kind", ["atoms", "grid", "z_atomic", "z_radial"])
def test_berezin_polar_field_guard_matches_berezin_many(bt60, kind, side):
    mu, _, r_z = _guard_case(bt60, kind, side)
    r = np.array([0.0, 0.3, r_z])
    expect = _raises_truncation(berezin_many, bt60, mu, polar_points(r, 7))
    assert expect == (side > 1.0)
    field = _berezin_polar_field(bt60, mu)
    assert _raises_truncation(field, r, 7) == expect
    if not expect:
        assert np.all(np.isfinite(field(r, 7)))


@pytest.mark.parametrize("kind", ["atoms", "grid", "radial"])
@pytest.mark.parametrize("table", ["bt60", "bt400"])
def test_berezin_polar_field_matches_berezin_many(request, monkeypatch, table, kind):
    bt = request.getfixturevalue(table)
    n_terms = bt.degree_max + 1
    rng = np.random.default_rng(11)
    if kind == "atoms":
        mu = AtomicMeasure(0.6 * np.sqrt(rng.random(5)) * np.exp(2j * np.pi * rng.random(5)),
                           0.1 + rng.random(5))
    elif kind == "grid":
        mu = GridDensityMeasure(rng.random((3, 5)), r_outer=0.6)
    else:
        mu = power_density(2.0)
    # r_max inside each table's adequate range
    r = np.linspace(0.0, 0.6 if table == "bt60" else 0.9, 40)
    # n_theta dividing degree_max + 1, not dividing it, and exceeding it
    expect = {n: berezin_many(bt, mu, polar_points(r, n)) for n in (n_terms, 32, n_terms + 9)}
    # a small chunk budget makes every case span several chunks of radii
    monkeypatch.setattr(btk.measures, "CHUNK_ENTRIES", 2**11)
    field = _berezin_polar_field(bt, mu)
    for n_theta, ref in expect.items():
        got = field(r, n_theta)
        assert got.shape == (r.size, 1 if kind == "radial" else n_theta)
        np.testing.assert_allclose(np.broadcast_to(got, ref.shape), ref, rtol=1e-13, atol=0)


def _cell_rule_loop(mu):
    """The per-cell loop that GridDensityMeasure.nodes() replaced."""
    offs = np.array([0.25, 0.75])
    re, te = mu.r_edges, mu.t_edges
    pts, wts = [], []
    for i in range(mu.nr):
        row = mu.cells[i]
        if not row.any():
            continue
        rs = re[i] + (re[i + 1] - re[i]) * offs
        rw = rs / np.sum(rs) / 2.0
        for j in range(mu.ntheta):
            if row[j] == 0.0:
                continue
            ts = te[j] + (te[j + 1] - te[j]) * offs
            pts.append((rs[:, None] * np.exp(1j * ts)[None, :]).ravel())
            wts.append(row[j] * np.repeat(rw, 2))
    return np.concatenate(pts), np.concatenate(wts)


def test_grid_nodes_match_cell_loop(rng):
    cells = rng.random((5, 7))
    cells[1] = 0.0
    cells[3, 2] = 0.0
    mu = GridDensityMeasure(cells, r_outer=0.9)
    pts, wts = mu.nodes()
    ref_pts, ref_wts = _cell_rule_loop(mu)
    assert pts.tobytes() == ref_pts.tobytes()
    assert wts.tobytes() == ref_wts.tobytes()
    assert np.sum(wts) == pytest.approx(mu.total_mass, rel=1e-13)
    area = GridDensityMeasure.area_measure(nr=12, ntheta=16, r_outer=0.7)
    assert np.sum(area.nodes()[1]) == pytest.approx(area.total_mass, rel=1e-13)


def test_berezin_zero_measure(bt400):
    assert berezin_measure(bt400, zero_measure(), 0.3) == 0.0
    assert np.all(berezin_many(bt400, zero_measure(), np.array([0.1, 0.2])) == 0.0)


# --- L^p norms and lattice sums --------------------------------------------


def _lambda_tau_mass(w, r_max):
    # lambda_tau({|z| <= r_max}) = 2 int_0^r_max r tau(r)^(-2) dr
    return simpson_doubling(
        lambda r: 2.0 * r * np.exp(-2.0 * w.log_tau(r)), 0.0, r_max, tol=1e-12
    )


def _ones(r, n_theta):
    return np.ones((len(r), n_theta))


def test_lp_norm_constant_field(w1):
    lam = _lambda_tau_mass(w1, 0.9)
    got = lp_lambda_tau_norm(w1, _ones, 1.0, 0.9)
    assert got == pytest.approx(lam, rel=1e-8)
    # p = 2: norm = sqrt of the same mass
    got2 = lp_lambda_tau_norm(w1, _ones, 2.0, 0.9)
    assert got2 == pytest.approx(np.sqrt(lam), rel=1e-8)


def test_lp_norm_radial_flag_consistent(w1):
    # a radial field may return one column instead of n_theta equal ones
    radial = lambda r, n_theta: (r**2 + 0.1)[:, None]
    full = lambda r, n_theta: np.repeat(radial(r, n_theta), n_theta, axis=1)
    a = lp_lambda_tau_norm(w1, full, 1.0, 0.8, n_theta=32)
    b = lp_lambda_tau_norm(w1, radial, 1.0, 0.8)
    assert a == pytest.approx(b, rel=1e-8)


def test_lp_norm_validation(w1):
    with pytest.raises(ParameterError):
        lp_lambda_tau_norm(w1, _ones, 0.0, 0.5)
    with pytest.raises(DomainError):
        lp_lambda_tau_norm(w1, _ones, 1.0, 1.5)


def test_muhat_lp_area_measure(w1, delta1, dA):
    # mu_hat = delta^2 everywhere, so the norm is delta^2 lambda_tau^(1/p)
    lam = _lambda_tau_mass(w1, 0.9)
    for p in (0.5, 1.0, 2.0):
        got = mu_hat_lp_norm(w1, dA, delta1, p, 0.9)
        assert got == pytest.approx(delta1**2 * lam ** (1.0 / p), rel=1e-4)


def test_atomic_lp_geometric_vs_grid_oracle(w1, delta1):
    mu = AtomicMeasure([0.3], [1.0])
    geo = _atomic_muhat_lp_integral(w1, mu, delta1, [0.5, 1.0, 2.0], [0.9])[0]
    grid = gridded_muhat_lp_integral(w1, mu, delta1, [0.5, 1.0, 2.0], [0.9])[0]
    assert geo == pytest.approx(grid, rel=2e-3)


def _overlapping(w, delta, name):
    """Atoms whose regions overlap: a pair 0.5 delta tau(0.3) apart, or k
    atoms of masses in [0.5, 1.5) within 3 delta tau(0.5) of 0.5."""
    if name == "pair":
        return AtomicMeasure([0.3, 0.3 + 0.5 * delta * float(w.tau(0.3))], [1.0, 0.5])
    k = int(name.removeprefix("cluster"))
    rng = np.random.default_rng(k)
    reach = 3.0 * delta * float(w.tau(0.5))
    pts = 0.5 + reach * np.sqrt(rng.random(k)) * np.exp(2j * np.pi * rng.random(k))
    return AtomicMeasure(pts, 0.5 + rng.random(k))


@pytest.mark.parametrize("name", ["pair", "cluster16"])
def test_atomic_lp_overlapping_atoms_share_the_rays(w1, delta1, name):
    # the grid oracle resolves these regions to a few 1e-5
    mu = _overlapping(w1, delta1, name)
    one = _atomic_muhat_lp_integral(w1, mu, delta1, PS, [0.9])[0]
    grid = gridded_muhat_lp_integral(w1, mu, delta1, PS, [0.9])[0]
    assert one == pytest.approx(grid, rel=5e-4)


@pytest.mark.parametrize("name", ["pair", "cluster16", "cluster32"])
def test_atomic_lp_overlapping_atoms_sum_to_fubini_at_p1(w1, delta1, name):
    mu = _overlapping(w1, delta1, name)
    got = mu_hat_lp_norm(w1, mu, delta1, 1.0, 0.9)
    assert got == pytest.approx(fubini_muhat_l1(w1, mu, delta1, 0.9), rel=2e-4)


def test_atomic_lp_overlap_leaves_distant_atoms_exact(w1, delta1):
    # atoms at 0.85 and 0.9i overlap nothing, and keep their region rule
    # next to an overlapping pair: a grid over all four missed by 4.8%
    sep = 0.5 * delta1 * float(w1.tau(0.3))
    mu = AtomicMeasure([0.3, 0.3 + sep, 0.85, 0.9j], [1.0, 0.5, 1.0, 1.0])
    got = mu_hat_lp_norm(w1, mu, delta1, 1.0, 0.95)
    assert got == pytest.approx(fubini_muhat_l1(w1, mu, delta1, 0.95), rel=1e-4)


def test_atomic_lp_coincident_atoms_are_one_atom(w1, delta1):
    # two atoms at one point hold the same region, where mu_hat sums them
    for xi in (0.3, 0.703):
        one = mu_hat_lp_norm(w1, AtomicMeasure([xi], [1.5]), delta1, PS, [0.9, 0.7])
        two = mu_hat_lp_norm(w1, AtomicMeasure([xi, xi], [1.0, 0.5]), delta1, PS,
                             [0.9, 0.7])
        for a, b in zip(one, two):
            np.testing.assert_allclose(b, a, rtol=1e-12)


def test_atomic_lp_drops_massless_atoms(w1, delta1, monkeypatch):
    solved = []

    def counted(w, xi, delta, theta, _f=_atom_region_radii):
        solved.append(xi)
        return _f(w, xi, delta, theta)

    monkeypatch.setattr(btk.measures, "_atom_region_radii", counted)
    sep = 0.5 * delta1 * float(w1.tau(0.3))
    single = mu_hat_lp_norm(w1, AtomicMeasure([0.3], [1.0]), delta1, PS, 0.9)
    with_massless = mu_hat_lp_norm(w1, AtomicMeasure([0.3, 0.3 + sep], [1.0, 0.0]),
                                   delta1, PS, 0.9)
    assert with_massless.tobytes() == single.tobytes()
    assert solved == [0.3, 0.3]
    # overlapping or not, massless atoms solve no region and give the float 0.0
    for pts in ([0.3, 0.3 + sep], [0.3, -0.4j]):
        got = mu_hat_lp_norm(w1, AtomicMeasure(pts, [0.0, 0.0]), delta1, 1.0, 0.9)
        assert got == 0.0 and type(got) is float
    assert len(solved) == 2


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
def test_region_solve_returns_the_60_step_bits(alpha):
    w = btk.make_exponential_weight(alpha)
    theta = np.arange(256) * (2.0 * np.pi / 256)
    rng = np.random.default_rng(int(100 * alpha))
    spread = 0.97 * np.sqrt(rng.random(8)) * np.exp(2j * np.pi * rng.random(8))
    for divisor in (4, 8, 16):
        delta = w.m_tau / divisor
        for xi in [0.0, 0.5, 0.97, *spread]:
            got = _atom_region_radii(w, xi, delta, theta)
            assert got.tobytes() == region_radii_60_steps(w, xi, delta, theta).tobytes()


@pytest.mark.parametrize("xi", [0.5, 0.5 * np.exp(1j * np.pi * (7 / 24 + 1))],
                         ids=["two_cycles", "three_cycles"])
def test_region_solve_stops_once_its_rays_cycle(w1, delta1, xi, monkeypatch):
    # at 0.5 the rays settle on cycles of 1 or 2 steps; at the second atom
    # (the reference scenario's, at phase 7 pi / 24) one ray cycles in 3
    calls = []
    tau = btk.weights.RadialWeight.tau

    def counted(self, r):
        calls.append(np.size(r))
        return tau(self, r)

    theta = np.arange(256) * (2.0 * np.pi / 256)
    with monkeypatch.context() as m:
        m.setattr(btk.weights.RadialWeight, "tau", counted)
        got = _atom_region_radii(w1, xi, delta1, theta)
    # one call for the starting radius, then one per step on all 256 rays
    assert calls[0] == 1 and set(calls[1:]) == {256}
    assert len(calls) - 1 <= 20
    assert got.tobytes() == region_radii_60_steps(w1, xi, delta1, theta).tobytes()


def test_region_rule_integrates_only_inside_r_max(w1, delta1):
    # at r_max 0.7 the regions of atoms at 0.85 and 0.71 lie outside
    # |z| <= r_max, and the one at 0.703 crosses it
    for xi in (0.85, 0.71, 0.703):
        mu = AtomicMeasure([xi], [1.0])
        (geo,) = _atomic_muhat_lp_integral(w1, mu, delta1, [1.0], [0.7])[0]
        (grid,) = gridded_muhat_lp_integral(w1, mu, delta1, [1.0], [0.7])[0]
        if xi < 0.705:
            assert grid > 0.0
            assert geo == pytest.approx(grid, rel=1e-3)
        else:
            assert geo == grid == 0.0


def test_lattice_sum_area_measure(w1, delta1, lat_half, dA):
    # every lattice disk lies inside the support, so each term is delta^2
    got = lattice_lp_sum(w1, dA, lat_half, delta1, 1.0)
    assert got == pytest.approx(delta1**2 * len(lat_half), rel=1e-9)
    got2 = lattice_lp_sum(w1, dA, lat_half, delta1, 2.0)
    assert got2 == pytest.approx(delta1**2 * np.sqrt(len(lat_half)), rel=1e-9)


def test_lattice_sum_atomic(w1, delta1, lat_half):
    mu = AtomicMeasure([0.2], [1.0])
    got = lattice_lp_sum(w1, mu, lat_half, delta1, 1.0)
    assert got > 0.0
    # the atom is seen only by lattice points within delta*tau of it
    near = np.abs(lat_half.points - 0.2) < delta1 * lat_half.taus
    assert near.sum() >= 1
    upper = float(np.sum(1.0 / lat_half.taus[near] ** 2))
    assert got <= upper * (1.0 + 1e-12)


def test_zero_measure_through_all_functionals(w1, bt400, delta1, lat_half):
    z0 = zero_measure()
    assert mu_hat(w1, z0, delta1, 0.3) == 0.0
    assert mu_hat_lp_norm(w1, z0, delta1, 1.0, 0.9) == 0.0
    assert btk.measures.berezin_lp_norm(bt400, z0, 1.0, 0.9) == 0.0
    assert lattice_lp_sum(w1, z0, lat_half, delta1, 1.0) == 0.0


@pytest.mark.parametrize("mu", [
    pytest.param(zero_measure(), id="atomic"),
    pytest.param(power_density(2.0).scaled(0.0), id="radial"),
    pytest.param(GridDensityMeasure(np.zeros((4, 6)), r_outer=0.9), id="grid"),
])
def test_zero_measure_lp_takes_the_general_rules(w1, delta1, lat_half, mu):
    # the general rules sum zeros to the float 0.0
    with warnings.catch_warnings():
        # the coarse grid's cells are larger than the query disks
        warnings.simplefilter("ignore", RuntimeWarning)
        assert mu_hat_lp_norm(w1, mu, delta1, 1.0, 0.8) == 0.0
        ladder = mu_hat_lp_norm(w1, mu, delta1, PS, [0.8, 0.6])
        assert [v.tolist() for v in ladder] == [[0.0, 0.0, 0.0]] * 2
        assert lattice_lp_sum(w1, mu, lat_half, delta1, 1.0) == 0.0
        assert lattice_lp_sum(w1, mu, lat_half, delta1, PS).tolist() == [0.0, 0.0, 0.0]
    if not isinstance(mu, AtomicMeasure):
        # and its quadrature options are checked like any other measure's
        with pytest.raises(ParameterError):
            mu_hat_lp_norm(w1, mu, delta1, 1.0, 0.8, n_theta=0)
        with pytest.raises(ParameterError):
            mu_hat_lp_norm(w1, mu, delta1, 1.0, 0.8, max_doublings=0)


# --- one quadrature pass for a ladder of p ----------------------------------

PS = [0.5, 1.0, 2.0]


def _assert_batch_is_scalar(fn, ps=PS):
    # each p of a batch is bitwise the float a scalar call returns
    batch = fn(ps)
    assert isinstance(batch, np.ndarray) and batch.shape == (len(ps),)
    scalars = [fn(p) for p in ps]
    assert all(isinstance(v, float) for v in scalars)
    assert batch.tolist() == scalars


@pytest.fixture(scope="module")
def grid_patch():
    # a 3x3 patch of an 8x12 grid: r in [0.25, 0.625], theta in [0, pi/2]
    cells = np.zeros((8, 12))
    cells[2:5, 0:3] = 1.0
    return GridDensityMeasure(cells)


def test_muhat_lp_batch_matches_scalar(w1, delta1, grid_patch):
    sep = 0.5 * delta1 * float(w1.tau(0.3))
    cases = [
        (power_density(2.0), 0.8, {}),
        # a coarse rule keeps the grid's disk masses cheap
        (grid_patch, 0.5, {"n_theta": 16, "tol": 1e-2}),
        (AtomicMeasure([0.3, -0.4j], [1.0, 0.5]), 0.9, {}),
        # overlapping regions share their rays
        (AtomicMeasure([0.3, 0.3 + sep], [1.0, 1.0]), 0.9, {}),
    ]
    with warnings.catch_warnings():
        # the grid patch's query disks are smaller than its cells
        warnings.simplefilter("ignore", RuntimeWarning)
        for mu, r_max, kw in cases:
            _assert_batch_is_scalar(
                lambda p: mu_hat_lp_norm(w1, mu, delta1, p, r_max, **kw))
    zeros = mu_hat_lp_norm(w1, zero_measure(), delta1, PS, 0.9)
    assert isinstance(zeros, np.ndarray) and zeros.tolist() == [0.0, 0.0, 0.0]


def test_berezin_lp_batch_matches_scalar(bt400, grid_patch):
    for mu in (power_density(2.0), AtomicMeasure([0.3, -0.4j], [1.0, 0.5]),
               grid_patch):
        _assert_batch_is_scalar(lambda p: btk.measures.berezin_lp_norm(bt400, mu, p, 0.8))
    zeros = btk.measures.berezin_lp_norm(bt400, zero_measure(), PS, 0.8)
    assert zeros.tolist() == [0.0, 0.0, 0.0]


def test_lattice_lp_batch_matches_scalar(w1, delta1, lat_half):
    for mu in (power_density(2.0), AtomicMeasure([0.2, -0.3j], [1.0, 0.5])):
        _assert_batch_is_scalar(lambda p: lattice_lp_sum(w1, mu, lat_half, delta1, p))
    zeros = lattice_lp_sum(w1, zero_measure(), lat_half, delta1, PS)
    assert zeros.tolist() == [0.0, 0.0, 0.0]


def test_lp_norm_batch_each_p_stops_at_its_own_level(w1):
    calls = []

    def kink(r, n_theta):
        calls.append(len(r))
        return np.abs(r - 0.5)[:, None]

    levels, scalars = [], []
    for p in PS:
        calls.clear()
        scalars.append(lp_lambda_tau_norm(w1, kink, p, 0.9))
        levels.append(len(calls))
    # p = 0.5 needs more doublings than p = 1 and 2 on this kink
    assert levels[0] > levels[1] == levels[2]
    calls.clear()
    batch = lp_lambda_tau_norm(w1, kink, PS, 0.9)
    # one field evaluation per level for the whole batch, and each p stops
    # with the value its scalar call returns
    assert calls == [24 * 16 * 2**k for k in range(max(levels))]
    assert batch.tolist() == scalars


def test_lp_batch_rejects_nonpositive_p(w1, bt400, delta1, lat_half, dA):
    bad = [0.5, 0.0, 2.0]
    with pytest.raises(ParameterError):
        lp_lambda_tau_norm(w1, _ones, bad, 0.9)
    with pytest.raises(ParameterError):
        mu_hat_lp_norm(w1, dA, delta1, bad, 0.9)
    with pytest.raises(ParameterError):
        mu_hat_lp_norm(w1, zero_measure(), delta1, [1.0, -1.0], 0.9)
    with pytest.raises(ParameterError):
        btk.measures.berezin_lp_norm(bt400, zero_measure(), bad, 0.9)
    with pytest.raises(ParameterError):
        lattice_lp_sum(w1, dA, lat_half, delta1, bad)


def test_lp_batch_raises_when_any_p_fails_to_converge(w1, delta1):
    # mu_hat kinks where D(z, delta tau(z)) crosses the support edge at 0.7;
    # p = 0.5 does not converge under the default tolerance
    mu = power_density(2.0, support=(0.0, 0.7))
    with pytest.raises(ConvergenceError):
        mu_hat_lp_norm(w1, mu, delta1, PS, 0.9)


def test_muhat_lp_ladder_matches_scalar(w1, delta1, grid_patch):
    sep = 0.5 * delta1 * float(w1.tau(0.3))
    sep_rim = 0.5 * delta1 * float(w1.tau(0.703))
    # (measure, ladder, quadrature options, the p forms tried)
    cases = [
        (power_density(2.0), (0.7, 0.8, 0.6), {}, (1.0, PS)),
        # a coarse rule keeps the grid's disk masses cheap
        (grid_patch, (0.35, 0.3), {"n_theta": 16, "tol": 1e-2}, (PS,)),
        # the atom at 0.703 is clipped differently by every rung; the one at
        # -0.4j by none, so its ray integrals are reused
        (AtomicMeasure([0.3, -0.4j, 0.703], [1.0, 0.5, 2.0]), (0.9, 0.7, 0.8, 0.9), {},
         (1.0, PS)),
        # overlapping regions, inside every rung and clipped by the rung 0.7
        (AtomicMeasure([0.3, 0.3 + sep], [1.0, 1.0]), (0.9, 0.35), {}, (PS,)),
        (AtomicMeasure([0.703, 0.703 + sep_rim], [1.0, 1.0]), (0.9, 0.7), {}, (PS,)),
    ]
    with warnings.catch_warnings():
        # the grid patch's query disks are smaller than its cells
        warnings.simplefilter("ignore", RuntimeWarning)
        for mu, ladder, kw, p_forms in cases:
            for p in p_forms:
                rungs = mu_hat_lp_norm(w1, mu, delta1, p, ladder, **kw)
                assert isinstance(rungs, list) and len(rungs) == len(ladder)
                for got, r_max in zip(rungs, ladder):
                    want = mu_hat_lp_norm(w1, mu, delta1, p, r_max, **kw)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
                    assert type(got) is type(want)
    zeros = mu_hat_lp_norm(w1, zero_measure(), delta1, PS, [0.9, 0.5])
    assert [z.tolist() for z in zeros] == [[0.0, 0.0, 0.0]] * 2


def test_muhat_lp_ladder_raises_before_the_smaller_rungs(w1, delta1, monkeypatch):
    # the ladder's largest rung, 0.9, is the one that cannot converge
    mu = power_density(2.0, support=(0.0, 0.7))
    with pytest.raises(ConvergenceError) as scalar:
        mu_hat_lp_norm(w1, mu, delta1, PS, 0.9)
    calls = []

    def counted(*args, _f=btk.measures.lp_lambda_tau_norm, **kw):
        calls.append(args[3])
        return _f(*args, **kw)

    monkeypatch.setattr(btk.measures, "lp_lambda_tau_norm", counted)
    with pytest.raises(ConvergenceError) as ladder:
        mu_hat_lp_norm(w1, mu, delta1, PS, (0.7, 0.8, 0.9))
    assert str(ladder.value) == str(scalar.value)
    assert calls == [0.9]


def test_muhat_lp_ladder_checks_every_rung_first(w1, delta1, dA):
    for mu in (dA, AtomicMeasure([0.3], [1.0]), zero_measure()):
        for bad in (1.0, [0.5, 1.2], [0.9, 0.0]):
            with pytest.raises(DomainError):
                mu_hat_lp_norm(w1, mu, delta1, 1.0, bad)


def test_muhat_lp_rejects_options_it_would_ignore(w1, delta1, dA):
    atom = AtomicMeasure([0.3], [1.0])
    with pytest.raises(ParameterError):
        mu_hat_lp_norm(w1, atom, delta1, 1.0, 0.9, tol=-5)
    with pytest.raises(ParameterError):
        mu_hat_lp_norm(w1, zero_measure(), delta1, 1.0, 0.9, n_theta=8)
    with pytest.raises(TypeError):
        mu_hat_lp_norm(w1, atom, delta1, 1.0, 0.9, tol=-5, bogus=1)
    with pytest.raises(TypeError):
        mu_hat_lp_norm(w1, dA, delta1, 1.0, 0.9, bogus=1)


def test_lp_norm_rejects_empty_quadrature(w1):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError):
            lp_lambda_tau_norm(w1, _ones, 1.0, 0.9, n_theta=0)
        with pytest.raises(ParameterError):
            lp_lambda_tau_norm(w1, _ones, 1.0, 0.9, max_doublings=0)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_mu_hat_scales_linearly(c):
    w = btk.make_exponential_weight(1.0)
    delta = w.m_tau / 8.0
    mu = AtomicMeasure([0.25], [1.0])
    base = mu_hat(w, mu, delta, 0.25)
    assert mu_hat(w, mu.scaled(c), delta, 0.25) == pytest.approx(
        c * base, rel=1e-12
    )
