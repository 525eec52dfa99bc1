import warnings

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
    _berezin_polar_field,
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
    polar_points,
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
    monkeypatch.setattr(btk.measures, "_BEREZIN_CHUNK_ENTRIES", 2**11)
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
        lambda r: 2.0 * r * np.exp(w.log_laplacian_phi(r)), 0.0, r_max, tol=1e-12
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
