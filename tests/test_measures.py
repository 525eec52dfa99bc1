import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btk
from btk.basis import kernel_at_points, kernel_norm_sq, kernel_norm_sq_many
from btk.errors import DomainError, ParameterError, TruncationError
from btk.measures import (
    AtomicMeasure,
    GridDensityMeasure,
    RadialDensityMeasure,
    _atomic_muhat_lp_integral,
    _gridded_muhat_lp_integral,
    berezin_many,
    berezin_measure,
    carleson_constant,
    compensated_density,
    indicator_density,
    lattice_lp_sum,
    load_measure,
    lp_lambda_tau_norm,
    measure_from_json,
    mu_hat,
    mu_hat_lp_norm,
    mu_hat_many,
    power_density,
    save_measure,
    zero_measure,
)
from btk.quadrature import simpson_doubling


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


def test_power_density_total_mass():
    # 2 int (1 - r^2) r dr = 1/2
    mu = power_density(1.0)
    assert mu.total_mass == pytest.approx(0.5, rel=1e-10)


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


def test_scaling_homogeneity(dA):
    for mu in (dA, AtomicMeasure([0.3], [2.0]),
               GridDensityMeasure.area_measure(nr=16, ntheta=16)):
        s = mu.scaled(3.5)
        assert s.total_mass == pytest.approx(3.5 * mu.total_mass, rel=1e-12)
        assert s.disk_mass(0.2, 0.25) == pytest.approx(
            3.5 * mu.disk_mass(0.2, 0.25), rel=1e-10
        )


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
    zs = np.array([0.1, 0.4 + 0.2j, 0.7j])
    many = mu_hat_many(w1, dA, delta1, zs)
    for k, z in enumerate(zs):
        assert many[k] == pytest.approx(mu_hat(w1, dA, delta1, z), rel=1e-12)


def test_mu_hat_validation(w1, delta1, dA):
    with pytest.raises(ParameterError):
        mu_hat(w1, dA, w1.m_tau, 0.3)
    with pytest.raises(DomainError):
        mu_hat(w1, dA, delta1, 1.0)


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


def test_carleson_zero_measure(w1, delta1):
    rep = carleson_constant(w1, zero_measure(), delta1, 0.9)
    assert rep.value == 0.0
    assert rep.compact_signature


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


@pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3], ids=["inside", "outside"])
@pytest.mark.parametrize("kind", ["atoms", "grid", "z_atomic", "z_radial"])
def test_berezin_many_guard_matches_per_point_checks(bt60, kind, side):
    w_crit = _tail_threshold(bt60)
    ring = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 7))
    if kind == "atoms":
        # the pair (outer atom, outer z) crosses the threshold; |z|^2 does not
        mu = AtomicMeasure([0.9 * np.exp(0.3j), 0.2, -0.5j], [1.0, 0.5, 0.25])
        nodes = mu.points
        r_z = side * w_crit / 0.9
    elif kind == "grid":
        mu = GridDensityMeasure(np.ones((4, 6)), r_outer=0.95)
        nodes, _ = mu.nodes()
        r_z = side * w_crit / np.max(np.abs(nodes))
    else:
        # |z|^2 crosses the threshold; every (node, z) pair stays far inside
        mu = (AtomicMeasure([0.1, 0.05j], [1.0, 1.0]) if kind == "z_atomic"
              else power_density(2.0))
        nodes = mu.points if kind == "z_atomic" else []
        r_z = np.sqrt(side * w_crit)
    zs = np.concatenate([[0.0], 0.3 * ring, r_z * ring])
    expect = _per_point_checks_raise(bt60, nodes, zs)
    assert expect == (side > 1.0)
    if expect:
        with pytest.raises(TruncationError):
            berezin_many(bt60, mu, zs)
    else:
        assert np.all(np.isfinite(berezin_many(bt60, mu, zs)))


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
        lambda r: 2.0 * r * np.exp(w.log_laplacian_phi(r)), 0.0, r_max, tol=1e-12
    )


def test_lp_norm_constant_field(w1):
    lam = _lambda_tau_mass(w1, 0.9)
    got = lp_lambda_tau_norm(w1, lambda z: np.ones(np.shape(z)), 1.0, 0.9)
    assert got == pytest.approx(lam, rel=1e-8)
    # p = 2: norm = sqrt of the same mass
    got2 = lp_lambda_tau_norm(w1, lambda z: np.ones(np.shape(z)), 2.0, 0.9)
    assert got2 == pytest.approx(np.sqrt(lam), rel=1e-8)


def test_lp_norm_radial_flag_consistent(w1):
    field = lambda z: np.abs(z) ** 2 + 0.1
    a = lp_lambda_tau_norm(w1, field, 1.0, 0.8, radial=False, n_theta=32)
    b = lp_lambda_tau_norm(w1, field, 1.0, 0.8, radial=True)
    assert a == pytest.approx(b, rel=1e-8)


def test_lp_norm_validation(w1):
    with pytest.raises(ParameterError):
        lp_lambda_tau_norm(w1, lambda z: np.ones(np.shape(z)), 0.0, 0.5)
    with pytest.raises(DomainError):
        lp_lambda_tau_norm(w1, lambda z: np.ones(np.shape(z)), 1.0, 1.5)


def test_muhat_lp_area_measure(w1, delta1, dA):
    # mu_hat = delta^2 everywhere, so the norm is delta^2 lambda_tau^(1/p)
    lam = _lambda_tau_mass(w1, 0.9)
    for p in (0.5, 1.0, 2.0):
        got = mu_hat_lp_norm(w1, dA, delta1, p, 0.9)
        assert got == pytest.approx(delta1**2 * lam ** (1.0 / p), rel=1e-4)


def test_atomic_lp_geometric_vs_grid_oracle(w1, delta1):
    mu = AtomicMeasure([0.3], [1.0])
    for p in (0.5, 1.0, 2.0):
        geo = _atomic_muhat_lp_integral(w1, mu, delta1, p, 0.9)
        grid = _gridded_muhat_lp_integral(w1, mu, delta1, p, 0.9)
        assert geo == pytest.approx(grid, rel=2e-3)


def test_atomic_lp_overlapping_atoms_fall_back(w1, delta1):
    sep = 0.5 * delta1 * float(w1.tau(0.3))
    mu = AtomicMeasure([0.3, 0.3 + sep], [1.0, 1.0])
    val = mu_hat_lp_norm(w1, mu, delta1, 1.0, 0.9)
    single = mu_hat_lp_norm(w1, AtomicMeasure([0.3], [1.0]), delta1, 1.0, 0.9)
    # two nearly coincident unit atoms behave like one atom of mass ~2
    assert single < val < 3.0 * single


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
