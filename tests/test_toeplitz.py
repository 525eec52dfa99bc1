import math

import numpy as np
import pytest
from numpy.linalg import LinAlgError, svd

import btk
from btk.basis import (
    basis_columns,
    basis_moduli,
    kernel,
    kernel_norm_sq,
    polar_parts,
    unit_powers,
)
from btk.errors import (
    ConvergenceError,
    DomainError,
    ParameterError,
    PSDViolationError,
    TruncationError,
)
from btk.measures import (
    AtomicMeasure,
    GridDensityMeasure,
    Measure,
    berezin_lp_norm,
    berezin_many,
    indicator_density,
    power_density,
    zero_measure,
)
from btk.toeplitz import (
    SpectrumReport,
    ToeplitzMatrix,
    assemble_toeplitz,
    berezin_operator,
    schatten_norm,
    spectrum,
    spectrum_to_json,
)

from oracles import (
    berezin_measure,
    dense_entries,
    matrix_trace,
    radial_factor,
    simpson_doubling,
)


# --- assembly ---------------------------------------------------------------


def test_area_measure_gives_identity(bt400):
    tm = assemble_toeplitz(bt400, indicator_density(0.0, 1.0), 128)
    assert tm.structure == "diagonal"
    np.testing.assert_allclose(tm.diag, np.ones(128), rtol=1e-8)


def test_radial_dense_oracle_matches_diagonal(bt400):
    mu = indicator_density(0.2, 0.6)
    dim = 48
    fast = assemble_toeplitz(bt400, mu, dim)
    m = dense_entries(ToeplitzMatrix(bt400, dim, "dense", factor=radial_factor(bt400, mu, dim)))
    off = m - np.diag(np.diag(m))
    assert np.max(np.abs(off)) < 1e-10 * np.max(np.abs(np.diag(m)))
    np.testing.assert_allclose(np.diag(m).real, fast.diag, rtol=1e-8)


def test_rank_one_atom_exact_eigenvalue(bt400, w1):
    xi, mass = 0.4 * np.exp(1j * np.pi / 7), 0.7
    tm = assemble_toeplitz(bt400, AtomicMeasure([xi], [mass]), 64)
    assert tm.structure == "finite_rank"
    rep = spectrum(tm)
    expect = mass * np.exp(
        float(w1.log_weight(abs(xi))) + kernel_norm_sq(bt400, xi)
    )
    assert rep.eigenvalues[0] == pytest.approx(expect, rel=1e-10)
    assert np.all(rep.eigenvalues[1:] == 0.0)


def test_finite_rank_gram_matches_per_pair_kernel_loop(bt400, w1):
    # oracle: one kernel() series per pair, independent of the basis-column
    # product; the atom at 0 takes the zero-point branch of the columns
    pts = np.array([0.3, -0.15 + 0.2j, 0.6j, 0.0, 0.8 * np.exp(2.0j)])
    masses = np.array([1.0, 0.6, 0.25, 0.5, 0.1])
    tm = assemble_toeplitz(bt400, AtomicMeasure(pts, masses), 64)
    log_scale = 0.5 * (np.log(masses) + w1.log_weight(np.abs(pts)))
    oracle = np.empty((len(pts), len(pts)), dtype=complex)
    for j, xj in enumerate(pts):
        for k, xk in enumerate(pts):
            la, ph = kernel(bt400, xj, xk)
            oracle[j, k] = np.exp(log_scale[j] + log_scale[k] + la + 1j * ph)
    gram = tm.factor.conj().T @ tm.factor
    np.testing.assert_allclose(gram, oracle, rtol=1e-13)


def test_finite_rank_factor_matches_dense_oracle(bt400):
    # the entries themselves are checked against per-pair kernel() series in
    # test_finite_rank_gram_matches_per_pair_kernel_loop
    mu = AtomicMeasure([0.3, -0.15 + 0.2j, 0.6j], [1.0, 0.6, 0.25])
    tm = assemble_toeplitz(bt400, mu, 48)
    assert matrix_trace(tm) == pytest.approx(np.trace(dense_entries(tm)).real, rel=1e-13)


def test_atomic_spectrum_relatively_accurate_against_mpmath(w1):
    # 24 atoms on a degree-2000 table: the eigenvalues span 1.7e10, so those
    # taken from the Gram Y^H Y carry absolute errors near eps * lambda_1 and
    # the smallest lose relative accuracy (a Jacobi solve of the Gram was 8.9e-8 off).
    # The oracle diagonalizes the exact Gram of the same double-precision
    # factor in 60 digits, with rows below 1e-40 of the peak dropped.
    import mpmath

    bt = btk.build_basis_table(w1, 2000)
    rng = np.random.default_rng(7)
    pts = 0.8 * np.sqrt(rng.random(24)) * np.exp(2j * np.pi * rng.random(24))
    mu = AtomicMeasure(pts, np.full(24, 1.0 / 24))
    got = spectrum(assemble_toeplitz(bt, mu, 64)).eigenvalues[:24]

    y = basis_columns(bt, pts, bt.degree_max + 1) * np.sqrt(mu.masses)
    rows = np.max(np.abs(y), axis=1) > 1e-40 * np.max(np.abs(y))
    with mpmath.workdps(60):
        ym = mpmath.matrix([[mpmath.mpc(v) for v in row] for row in y[rows].tolist()])
        exact = mpmath.eighe(ym.H * ym, eigvals_only=True)
        exact = np.sort([float(e) for e in exact])[::-1]
    assert exact[-1] < 1e-9 * exact[0]
    np.testing.assert_allclose(got, exact, rtol=1e-10, atol=0.0)


def test_clustered_atoms_spectrum_tail_against_mpmath(w1, delta1):
    # 16 atoms within 3 delta tau(0.5) of 0.5: the exact spectrum of this
    # factor spans 7e-36 lambda_1, far below eps, so Schatten sums at small p
    # lean on the tail.  An SVD that flushes values below eps * sigma_1 to 0
    # misses that mass.  The oracle diagonalizes the exact Gram of the same
    # double-precision factor in 60 digits.
    import mpmath

    bt = btk.build_basis_table(w1, 150)
    rng = np.random.default_rng(5)
    radius = 3.0 * delta1 * float(w1.tau(0.5))
    pts = 0.5 + radius * np.sqrt(rng.random(16)) * np.exp(2j * np.pi * rng.random(16))
    tm = assemble_toeplitz(bt, AtomicMeasure(pts, rng.uniform(0.5, 1.5, 16)), 64)
    got = spectrum(tm).eigenvalues[:16]

    with mpmath.workdps(60):
        ym = mpmath.matrix([[mpmath.mpc(v) for v in row] for row in tm.factor.tolist()])
        exact = mpmath.eighe(ym.H * ym, eigvals_only=True)
        exact = np.sort([float(e) for e in exact])[::-1]
    assert exact[-1] < 1e-30 * exact[0]
    assert not np.any((got == 0.0) & (exact > 0.0))
    resolved = exact >= 1e-20 * exact[0]
    np.testing.assert_allclose(got[resolved], exact[resolved], rtol=1e-7, atol=0.0)
    for p, rtol in ((0.05, 1e-4), (0.1, 1e-5)):
        assert math.fsum(got**p) == pytest.approx(math.fsum(exact**p), rel=rtol)


def _wide_atoms(w1, delta1):
    """40 atoms within 3 delta tau(0.3) of 0.3 on a degree-30 table: a 31 x 40 factor."""
    bt = btk.build_basis_table(w1, 30)
    rng = np.random.default_rng(5)
    radius = 3.0 * delta1 * float(w1.tau(0.3))
    pts = 0.3 + radius * np.sqrt(rng.random(40)) * np.exp(2j * np.pi * rng.random(40))
    return assemble_toeplitz(bt, AtomicMeasure(pts, rng.uniform(0.5, 1.5, 40)), 24)


def test_wide_atomic_spectrum_tail_against_mpmath(w1, delta1):
    # more atoms than degrees: the factor is wide, so LAPACK sees its
    # transpose; the oracle diagonalizes the exact 31 x 31 Gram F F^H of
    # the same double-precision factor in 60 digits
    import mpmath

    tm = _wide_atoms(w1, delta1)
    assert tm.factor.shape == (31, 40)
    got = spectrum(tm).eigenvalues
    with mpmath.workdps(60):
        ym = mpmath.matrix([[mpmath.mpc(v) for v in row] for row in tm.factor.tolist()])
        exact = mpmath.eighe(ym * ym.H, eigvals_only=True)
        exact = np.sort([float(e) for e in exact])[::-1]
    assert len(got) == len(exact) == 31
    resolved = exact >= 1e-20 * exact[0]
    np.testing.assert_allclose(got[resolved], exact[resolved], rtol=1e-7, atol=0.0)
    for p, rtol in ((0.05, 5e-4), (0.1, 1e-5)):
        assert math.fsum(got**p) == pytest.approx(math.fsum(exact**p), rel=rtol)


def _raises_truncation(fn, *args) -> bool:
    try:
        fn(*args)
    except TruncationError:
        return True
    return False


def test_finite_rank_truncation_guard_matches_every_pair(bt400):
    # the guard checks the outermost atom against itself only; the series
    # tail ratio grows with |xi_j xi_k|, so assembly must raise exactly when
    # some pair's kernel series is inadequate for the table
    for r_out, inadequate in ((0.9, False), (0.95, True)):
        pts = [0.3, -0.5 + 0.4j, r_out * np.exp(0.7j)]
        mu = AtomicMeasure(pts, [1.0, 0.5, 0.25])
        pair_raises = [_raises_truncation(kernel, bt400, a, b) for a in pts for b in pts]
        assert any(pair_raises) == inadequate
        assert _raises_truncation(assemble_toeplitz, bt400, mu, 32) == inadequate


def test_atomic_dense_truncation_converges(bt400):
    # truncated dense eigenvalues approach the exact finite-rank spectrum
    mu = AtomicMeasure([0.3, -0.2 + 0.25j, 0.1j], [1.0, 0.5, 0.25])
    exact = spectrum(assemble_toeplitz(bt400, mu, 64)).eigenvalues[:3]
    gaps = []
    for dim in (16, 32, 64):
        tm = assemble_toeplitz(bt400, mu, dim)
        ev = np.linalg.eigvalsh(dense_entries(tm))[::-1][:3]
        gaps.append(np.max(np.abs(ev - exact) / exact))
    assert gaps[-1] <= gaps[0]
    assert gaps[-1] < 1e-8


def test_linearity_for_atomic_measures(bt400):
    a = AtomicMeasure([0.3], [1.0])
    b = AtomicMeasure([-0.4j], [0.5])
    ab = AtomicMeasure([0.3, -0.4j], [1.0, 0.5])
    da = dense_entries(assemble_toeplitz(bt400, a, 32))
    db = dense_entries(assemble_toeplitz(bt400, b, 32))
    dab = dense_entries(assemble_toeplitz(bt400, ab, 32))
    np.testing.assert_allclose(dab, da + db, atol=1e-14 * np.max(np.abs(dab)))


def test_entries_hermitian(bt400):
    mu = GridDensityMeasure.area_measure(nr=10, ntheta=12, r_outer=0.6)
    m = dense_entries(assemble_toeplitz(bt400, mu, 24))
    np.testing.assert_allclose(m, m.conj().T, atol=1e-15)


def test_trace_identity_radial(bt400, w1):
    # trace = int sum_{n<dim} |e_n|^2 omega d mu, by linear-space quadrature
    mu = indicator_density(0.2, 0.6)
    dim = 32
    tm = assemble_toeplitz(bt400, mu, dim)
    h = np.exp(bt400.log_h[:dim])

    def integrand(r):
        core = np.sum(
            r[:, None] ** (2 * np.arange(dim))[None, :] / h[None, :], axis=1
        )
        return 2.0 * r * np.exp(w1.log_weight(r)) * core

    oracle = simpson_doubling(integrand, 0.2, 0.6, tol=1e-10)
    assert matrix_trace(tm) == pytest.approx(oracle, rel=1e-6)
    assert spectrum(tm).trace == pytest.approx(oracle, rel=1e-6)


def test_zero_measure_assembles_to_zero(bt400):
    tm = assemble_toeplitz(bt400, zero_measure(), 16)
    assert np.all(tm.diag == 0.0)
    rep = spectrum(tm)
    assert rep.operator_norm == 0.0
    assert schatten_norm(rep, 1.0) == 0.0


def test_assembly_validation(bt400):
    with pytest.raises(DomainError):
        assemble_toeplitz(bt400, indicator_density(0.0, 1.0), 402)
    with pytest.raises(DomainError):
        assemble_toeplitz(bt400, indicator_density(0.0, 1.0), 0)


# --- spectra and Schatten norms --------------------------------------------


def _report(evs):
    evs = np.sort(np.asarray(evs, dtype=float))[::-1]
    return SpectrumReport(
        eigenvalues=evs, dim=len(evs), structure="diagonal",
        clip_magnitude=0.0, tail_estimate=0.0,
    )


def test_schatten_flat_spectrum():
    rep = _report(np.ones(100))
    for p in (0.5, 1.0, 2.0):
        assert schatten_norm(rep, p) == pytest.approx(100.0 ** (1.0 / p))


def test_schatten_geometric_spectrum():
    d = 30
    rep = _report(2.0 ** -np.arange(d))
    assert schatten_norm(rep, 1.0) == pytest.approx(2.0 * (1.0 - 2.0**-d))
    # p -> infinity proxy: large p approaches the operator norm
    assert schatten_norm(rep, 64.0) == pytest.approx(rep.operator_norm, rel=0.05)


def test_schatten_three_four_five():
    rep = _report([3.0, 4.0])
    assert schatten_norm(rep, 2.0) == pytest.approx(5.0)


def test_schatten_monotone_in_p(rng):
    rep = _report(rng.random(20))
    ps = (0.5, 1.0, 2.0, 4.0, 16.0)
    vals = [schatten_norm(rep, p) for p in ps]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] >= rep.operator_norm


def test_schatten_validation():
    for p in (0.0, float("nan")):
        with pytest.raises(ParameterError):
            schatten_norm(_report([1.0]), p)


def test_spectrum_raises_when_svd_fails(bt400, monkeypatch):
    tm = assemble_toeplitz(bt400, AtomicMeasure([0.3, -0.2j], [1.0, 0.5]), 16)
    assert spectrum(tm).clip_magnitude == 0.0

    def failing(*args, **kwargs):
        raise LinAlgError("SVD did not converge")

    monkeypatch.setattr(btk.toeplitz, "svd", failing)
    with pytest.raises(ConvergenceError):
        spectrum(tm)


def test_negative_mass_raises_psd_violation(bt400):
    # the constructors reject negative input, so corrupt the measures afterwards
    atoms = AtomicMeasure([0.3, -0.2j], [1.0, 0.5])
    atoms.masses[0] = -1.0
    grid = GridDensityMeasure.area_measure(nr=4, ntheta=6, r_outer=0.6)
    grid.cells[0, 0] = -1.0
    for mu in (atoms, grid):
        with pytest.raises(PSDViolationError):
            assemble_toeplitz(bt400, mu, 16)
    # the Berezin transform shares the node rule, and its check
    with pytest.raises(PSDViolationError):
        berezin_many(bt400, atoms, np.array([0.1, 0.2j]))
    with pytest.raises(PSDViolationError):
        berezin_lp_norm(bt400, grid, 2.0, 0.5)
    # and so does the scalar oracle, which reads the same checked node rule
    for mu in (atoms, grid):
        with pytest.raises(PSDViolationError):
            berezin_measure(bt400, mu, 0.3)

    class Foreign(Measure):
        """A Measure subclass with no node rule."""

        kind = "foreign"
        total_mass = 1.0

    for fn in (lambda mu: assemble_toeplitz(bt400, mu, 16),
               lambda mu: berezin_many(bt400, mu, np.array([0.1, 0.2j])),
               lambda mu: berezin_measure(bt400, mu, 0.3)):
        with pytest.raises(ParameterError):
            fn(Foreign())


def test_tail_flag_behavior():
    flat = _report(np.ones(10))
    assert flat.tail_flag(1.0) is False  # tail_estimate = 0 here
    heavy = SpectrumReport(
        eigenvalues=np.ones(10), dim=10, structure="diagonal",
        clip_magnitude=0.0, tail_estimate=10.0,
    )
    assert heavy.tail_flag(1.0) is True


def test_spectrum_to_json_schema(bt400):
    rep = spectrum(assemble_toeplitz(bt400, indicator_density(0.0, 0.5), 8))
    payload = spectrum_to_json(rep)
    assert payload["dim"] == 8
    assert set(payload["schatten_norms"]) == {"0.5", "1.0", "2.0"}
    assert len(payload["eigenvalues"]) == 8


# --- Berezin of the operator ------------------------------------------------


def test_berezin_operator_identity(bt400):
    tm = assemble_toeplitz(bt400, indicator_density(0.0, 1.0), 256)
    for z in (0.0, 0.3, 0.5 * np.exp(2.0j)):
        assert berezin_operator(bt400, tm, z) == pytest.approx(1.0, rel=1e-8)


def test_berezin_operator_matches_measure_for_atoms(bt400):
    zs = np.array([0.0, 0.1, 0.4 * np.exp(0.9j), -0.5j, 0.7 * np.exp(-2.0j)])
    mu = AtomicMeasure([0.3, -0.15 + 0.2j], [1.0, 0.6])
    tm = assemble_toeplitz(bt400, mu, 256)
    for z in zs[1:4]:
        assert berezin_operator(bt400, tm, z) == pytest.approx(
            berezin_measure(bt400, mu, z), rel=1e-10
        )
    # at dim = degree_max + 1 the operator's Berezin symbol and berezin_many
    # read one operator_factor, for every measure kind
    for mu in (mu, GridDensityMeasure.area_measure(nr=6, ntheta=8, r_outer=0.8),
               power_density(2.0, (0.0, 0.7))):
        tm = assemble_toeplitz(bt400, mu, bt400.degree_max + 1)
        got = np.array([berezin_operator(bt400, tm, z) for z in zs])
        np.testing.assert_allclose(got, berezin_many(bt400, mu, zs), rtol=1e-12, atol=0)


def test_berezin_operator_bounded_by_norm(bt400):
    mu = power_density(2.0, (0.0, 0.7))
    tm = assemble_toeplitz(bt400, mu, 128)
    lam1 = spectrum(tm).operator_norm
    for z in (0.0, 0.25, 0.6 * np.exp(1j)):
        val = berezin_operator(bt400, tm, z)
        assert 0.0 <= val <= lam1 * (1.0 + 1e-12)


def test_berezin_operator_domain(bt400):
    tm = assemble_toeplitz(bt400, indicator_density(0.0, 0.5), 8)
    with pytest.raises(DomainError):
        berezin_operator(bt400, tm, 1.0)


# --- The operator path on numpy's LAPACK and BLAS ----------------------------


def _operator_cases(bt400):
    """A wide grid factor (more nodes than dim) and a tall atomic factor."""
    grid = assemble_toeplitz(bt400, GridDensityMeasure.area_measure(12, 16, r_outer=0.95), 96)
    rng = np.random.default_rng(7)
    atoms = AtomicMeasure(0.8 * np.sqrt(rng.random(40)) * np.exp(2j * np.pi * rng.random(40)),
                          rng.random(40) + 0.1)
    tall = assemble_toeplitz(bt400, atoms, 128)
    assert grid.factor.shape[0] < grid.factor.shape[1]
    assert tall.factor.shape[0] > tall.factor.shape[1]
    return grid, tall


def _berezin_points():
    k = np.arange(20)
    return 0.9 * np.sqrt((k + 0.5) / 20) * np.exp(2.399963229728653j * k)


def test_operator_path_is_bit_identical_to_the_numpy_oracle(bt400):
    # the operator Berezin symbol against numpy's GEMV, step for step: the
    # modulus from basis_moduli over sqrt(omega(z)) ||K_z||, the phases
    # (conj(z) / |z|)^n from unit_powers
    for tm in _operator_cases(bt400):
        for z in _berezin_points():
            r, unit = polar_parts(np.array([np.conj(z)]))
            v = basis_moduli(bt400, r, tm.dim)[:, 0] * np.exp(
                bt400.weight.phi(r[0]) - 0.5 * kernel_norm_sq(bt400, z))
            v = v * unit_powers(unit, tm.dim)[:, 0]
            want = float(np.sum(np.abs(tm.factor[: tm.dim].T @ v) ** 2))
            assert berezin_operator(bt400, tm, z) == want


def test_svd_sees_every_factor_on_its_tall_side(bt400, w1, delta1, monkeypatch):
    # sigma(F) = sigma(F^T): a wide factor reaches LAPACK as its transpose,
    # a view with no copy, and a tall one untransposed, as the same object
    grid, tall = _operator_cases(bt400)
    wide_atoms = _wide_atoms(w1, delta1)
    seen = []

    def spy(a, *args, **kwargs):
        seen.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(btk.toeplitz, "svd", spy)
    for tm in (grid, wide_atoms):
        rows, cols = tm.factor.shape
        assert rows < cols
        spectrum(tm)
        assert seen[-1].shape == (cols, rows)
        assert np.shares_memory(seen[-1], tm.factor)
    spectrum(tall)
    assert seen[-1] is tall.factor
    assert len(seen) == 3
