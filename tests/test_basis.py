import decimal
import tracemalloc
from decimal import Decimal

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btk
from btk.basis import (
    MODULUS_ROWS,
    basis_columns,
    basis_moduli,
    check_submeanvalue,
    kernel,
    kernel_at_points,
    kernel_norm_sq,
    kernel_norm_sq_many,
    normalized_kernel,
    unit_powers,
)
from btk.errors import DomainError, ParameterError, TruncationError
from btk.quadrature import disk_nodes
from btk.toeplitz import assemble_toeplitz, berezin_operator

from oracles import log_normalized_kernel_sq_at


@pytest.fixture(scope="module")
def bt60(w1):
    return btk.build_basis_table(w1, 60)


@pytest.fixture(scope="module")
def bt2000(w1):
    return btk.build_basis_table(w1, 2000)


def _kernel_value(bt, z, zeta):
    la, ph = kernel(bt, z, zeta)
    return np.exp(la) * np.exp(1j * ph)


def test_kernel_at_origin(bt400):
    la, ph = kernel(bt400, 0.0, 0.37 + 0.2j)
    assert la == pytest.approx(-float(bt400.log_h[0]))
    assert ph == 0.0


def test_kernel_hermitian_symmetry(bt400, rng):
    zs = 0.8 * (rng.random(8) * np.exp(2j * np.pi * rng.random(8)))
    ws = 0.8 * (rng.random(8) * np.exp(2j * np.pi * rng.random(8)))
    for z, zeta in zip(zs, ws):
        a = _kernel_value(bt400, z, zeta)
        b = _kernel_value(bt400, zeta, z)
        assert a == pytest.approx(np.conj(b), rel=1e-12)


def test_kernel_at_points_matches_scalar(bt400):
    z = 0.5 * np.exp(0.7j)
    pts = np.array([0.1, -0.3 + 0.4j, 0.0, 0.6j, 0.72 * np.exp(2.1j)])
    la, ph = kernel_at_points(bt400, z, pts)
    for k, p in enumerate(pts):
        la_s, ph_s = kernel(bt400, z, p)
        assert la[k] == pytest.approx(la_s, rel=1e-12, abs=1e-12)
        assert np.exp(1j * ph[k]) == pytest.approx(np.exp(1j * ph_s), rel=1e-10)


def test_kernel_norm_sq_many_matches_scalar(bt400):
    radii = np.array([0.0, 0.2, 0.55, 0.9])
    many = kernel_norm_sq_many(bt400, radii)
    for k, r in enumerate(radii):
        assert many[k] == pytest.approx(kernel_norm_sq(bt400, r), rel=1e-13)


def test_series_chunk_boundaries(bt400, monkeypatch):
    # three points per chunk: values must not depend on where the chunks
    # split, and an inadequate point in a later chunk must still raise
    rng = np.random.default_rng(5)
    pts = 0.85 * np.sqrt(rng.random(10)) * np.exp(2j * np.pi * rng.random(10))
    pts[4] = 0.0
    z = 0.6 * np.exp(0.3j)
    norms = kernel_norm_sq_many(bt400, np.abs(pts))
    la, ph = kernel_at_points(bt400, z, pts)
    monkeypatch.setattr(btk.basis, "CHUNK_ENTRIES", 3 * (bt400.degree_max + 1))
    np.testing.assert_array_equal(kernel_norm_sq_many(bt400, np.abs(pts)), norms)
    la3, ph3 = kernel_at_points(bt400, z, pts)
    np.testing.assert_allclose(la3, la, rtol=1e-14, atol=0)
    np.testing.assert_allclose(np.exp(1j * ph3), np.exp(1j * ph), rtol=1e-14, atol=0)
    # the degree-400 series is adequate up to |w| = 0.92^2 only
    outer = pts.copy()
    outer[7] = 0.95
    with pytest.raises(TruncationError, match="point 7"):
        kernel_norm_sq_many(bt400, np.abs(outer))
    with pytest.raises(TruncationError, match="point 7"):
        kernel_at_points(bt400, 0.95, outer)


def test_norm_sq_equals_diagonal_kernel_value(bt400):
    z = 0.61 * np.exp(1.3j)
    la, ph = kernel(bt400, z, z)
    assert la == pytest.approx(kernel_norm_sq(bt400, z), rel=1e-12)
    assert abs(ph) < 1e-10  # K_z(z) = ||K_z||^2 is real positive


def test_truncation_error_near_boundary(w1):
    bt = btk.build_basis_table(w1, 40)
    with pytest.raises(TruncationError):
        kernel_norm_sq(bt, 0.97)
    with pytest.raises(TruncationError):
        kernel(bt, 0.97, 0.97)
    with pytest.raises(TruncationError):
        kernel_at_points(bt, 0.97, np.array([0.9, 0.97]))


_NAN = float("nan")
_ATOM = btk.AtomicMeasure([0.3], [1.0])


@pytest.fixture(scope="module")
def bt2000_a2(w2):
    return btk.build_basis_table(w2, 2000)


@pytest.mark.parametrize("call", [
    pytest.param(lambda bt: kernel_norm_sq(bt, 0.99), id="kernel_norm_sq"),
    pytest.param(lambda bt: kernel_norm_sq_many(bt, np.array([0.5, 0.99])),
                 id="kernel_norm_sq_many"),
    pytest.param(lambda bt: kernel(bt, 0.99, 0.99), id="kernel"),
    pytest.param(lambda bt: kernel_at_points(bt, 0.99, np.array([0.3, 0.99j])),
                 id="kernel_at_points"),
    pytest.param(lambda bt: assemble_toeplitz(bt, btk.AtomicMeasure([0.3, 0.99], [1.0, 1.0]), 8),
                 id="assemble_toeplitz"),
    pytest.param(lambda bt: berezin_operator(bt, assemble_toeplitz(bt, _ATOM, 8), 0.99),
                 id="berezin_operator"),
])
def test_truncation_error_where_every_term_underflows(bt2000_a2, call):
    # At alpha = 2, |w| = 0.99^2 and degree 2000 every a_n^2 = |w|^n / h_n
    # exp(-2 phi) is below 1e-900, so the magnitude sum is 0: the table is far
    # too short there, and the guard must say so rather than return log 0.
    with pytest.raises(TruncationError):
        call(bt2000_a2)


def test_basis_table_rejects_a_bad_log_h(w1):
    good = btk.build_basis_table(w1, 50).log_h
    for bad in (good[:-1], good[::-1]):  # one entry short, increasing
        with pytest.raises(DomainError):
            btk.BasisTable(w1, 50, bad)


def test_domain_validation(bt400):
    with pytest.raises(DomainError):
        kernel(bt400, 1.0, 0.2)
    with pytest.raises(DomainError):
        kernel_norm_sq(bt400, 1.2)
    with pytest.raises(DomainError):
        kernel_at_points(bt400, 0.2, np.array([1.0]))


@pytest.mark.parametrize("call", [
    pytest.param(lambda bt, w, d: kernel(bt, _NAN, 0.2), id="kernel-z"),
    pytest.param(lambda bt, w, d: kernel(bt, 0.2, complex(0.1, _NAN)), id="kernel-zeta"),
    pytest.param(lambda bt, w, d: kernel_at_points(bt, 0.2, np.array([0.1, _NAN])),
                 id="kernel_at_points"),
    pytest.param(lambda bt, w, d: kernel_norm_sq(bt, _NAN), id="kernel_norm_sq"),
    pytest.param(lambda bt, w, d: kernel_norm_sq_many(bt, np.array([0.2, _NAN])),
                 id="kernel_norm_sq_many"),
    pytest.param(lambda bt, w, d: berezin_operator(bt, assemble_toeplitz(bt, _ATOM, 8), _NAN),
                 id="berezin_operator"),
    pytest.param(lambda bt, w, d: btk.mu_hat(w, _ATOM, d, np.array([0.1, _NAN])), id="mu_hat"),
    pytest.param(lambda bt, w, d: btk.AtomicMeasure([_NAN], [1.0]), id="atom-point"),
    pytest.param(lambda bt, w, d: btk.AtomicMeasure([0.3], [_NAN]), id="atom-mass"),
    pytest.param(lambda bt, w, d: btk.GridDensityMeasure([[1.0, _NAN]]), id="grid-cell"),
    pytest.param(lambda bt, w, d: btk.power_density(2.0).scaled(_NAN), id="radial-scale"),
    pytest.param(lambda bt, w, d: btk.quasi_distance(w, 0.1, _NAN), id="quasi_distance"),
    pytest.param(lambda bt, w, d: btk.make_custom_weight(w.tau, _NAN, 1.0), id="custom-c1"),
    pytest.param(lambda bt, w, d: check_submeanvalue(bt, [1.0], 0.3, _NAN, 0.0, d),
                 id="submeanvalue-p"),
])
def test_nan_raises_domain_error(bt400, w1, delta1, call):
    # domain checks written as "not (x < 1)" and np.all(...): a check such
    # as abs(z) >= 1 is false for nan, which then passes as a point
    with pytest.raises(DomainError):
        call(bt400, w1, delta1)


@pytest.mark.parametrize("call", [
    pytest.param(lambda w: btk.measures.compensated_density(w, _NAN, 1.0), id="compensated-s"),
    pytest.param(lambda w: btk.Scenario("nan", w, (("atom", _ATOM),), ps=(1.0, _NAN)),
                 id="scenario-p"),
    pytest.param(lambda w: btk.Scenario("nan", w, (("atom", _ATOM),), dim=_NAN),
                 id="scenario-dim"),
])
def test_nan_parameter_raises_parameter_error(w1, call):
    with pytest.raises(ParameterError):
        call(w1)


def _decimal_kernel_sums(log_h, z, pts):
    """(log|K_z(pt)|, C, log ||K_pt||^2) per point, from 50-digit sums.

    The terms (pt conj(z))^n / h_n take 1 / h_n = exp(-log_h[n]) from the
    same doubles as the library, and C = sum |terms| / |sum terms| is the
    sum's cancellation factor.  Plain stdlib decimal arithmetic: the same
    digits as an mpmath sum, at a tenth of its time.
    """
    out = []
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        inv_h = [(-Decimal(float(x))).exp() for x in log_h]
        zr, zi = Decimal(float(z.real)), -Decimal(float(z.imag))
        for p in pts:
            xr, xi = Decimal(float(p.real)), Decimal(float(p.imag))
            wr, wi = xr * zr - xi * zi, xr * zi + xi * zr
            w_abs = (wr * wr + wi * wi).sqrt()
            r2 = xr * xr + xi * xi
            sr = si = mag = norm = Decimal(0)
            pr, pi, pa, pq = Decimal(1), Decimal(0), Decimal(1), Decimal(1)
            for ih in inv_h:
                sr += pr * ih
                si += pi * ih
                mag += pa * ih
                norm += pq * ih
                pr, pi = pr * wr - pi * wi, pr * wi + pi * wr
                pa *= w_abs
                pq *= r2
            s2 = sr * sr + si * si
            out.append((float(s2.ln() / 2), float(mag / s2.sqrt()), float(norm.ln())))
    return np.array(out)


@pytest.mark.parametrize("degree, radius", [(150, 0.7), (2000, 0.9)])
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_kernel_matches_50_digit_sums(alpha, degree, radius):
    # log|K| is off by about eps times the cancellation factor C; before the
    # series shared basis_moduli's terms, alpha = 2 at degree 2000 was 1.13e-15
    # of max(1e3, C) off, and it is 4.37e-16 now, 13% below the bound (numpy
    # 2.4.6 on an x86-64 Xeon with AVX-512 exp/log loops).  That case's
    # margin rests on the last bits of numpy's vectorised exp and log, which
    # differ between CPUs and builds: a failure there by less than about 1.2x
    # is that rounding, not a lost term.  The radius keeps the degree-150
    # series inside the table's reach.
    bt = btk.build_basis_table(btk.make_exponential_weight(alpha), degree)
    rng = np.random.default_rng(27)
    pts = radius * np.sqrt(rng.random(60)) * np.exp(2j * np.pi * rng.random(60))
    z = radius * np.exp(0.3j)
    ref = _decimal_kernel_sums(bt.log_h, z, pts)
    la, _ = kernel_at_points(bt, z, pts)
    norms = kernel_norm_sq_many(bt, np.abs(pts))
    assert np.max(np.abs(la - ref[:, 0]) / np.maximum(1e3, ref[:, 1])) <= 5e-16
    assert np.max(np.abs(norms - ref[:, 2])) <= 5e-16 * 1e3


def test_basis_columns_match_mpmath(bt2000):
    # e_n(xi) sqrt(omega(xi)) to 40 digits from the same log h_n and phi(|xi|):
    # the phases (xi/|xi|)^n are exact there, so the error is the modulus's
    # and the doubled phases', both of order n eps.  A complex exp of
    # i n arg(xi) first rounds n arg(xi), up to 6.4e-13 off on these atoms
    # near arg = +-pi; the doubled phases stay below 6.6e-14.
    atoms = np.array([
        0.1 * np.exp(1j * (np.pi - 1e-3)),
        0.5 * np.exp(-1j * (np.pi - 1e-9)),
        0.5 * np.exp(1j * np.nextafter(np.pi, 0.0)),
        0.8 * np.exp(3.1j),
        -0.8 + 0.0j,
        0.95 * np.exp(-3.14j),
        0.95 * np.exp(2.9j),
    ])
    rows = [0, 1, 10, 100, 500, 1000, 2000]
    u = basis_columns(bt2000, atoms, bt2000.degree_max + 1)
    worst = 0.0
    with mpmath.workdps(40):
        for k, xi in enumerate(atoms):
            z = mpmath.mpc(xi.real, xi.imag)
            r = abs(z)
            phi = mpmath.mpf(float(bt2000.weight.phi(abs(xi))))
            for n in rows:
                log_h = mpmath.mpf(float(bt2000.log_h[n]))
                log_mod = n * mpmath.log(r) - log_h / 2 - phi
                ref = complex(mpmath.exp(log_mod) * (z / r) ** n)
                if abs(ref) > 1e-290:
                    worst = max(worst, abs(u[n, k] - ref) / abs(ref))
                else:
                    # underflow: 0.1^500 and 0.5^2000 leave the doubles
                    assert abs(u[n, k] - ref) <= 1e-300
    assert worst <= 2e-13


def test_unit_powers_are_exact_on_the_axes():
    n = np.arange(9)
    p = unit_powers(np.array([1.0, -1.0, 1j]), n.size)
    np.testing.assert_array_equal(p[:, 0], np.ones(n.size))
    np.testing.assert_array_equal(p[:, 1], (-1.0) ** n)
    np.testing.assert_array_equal(p[:, 2], np.array([1, 1j, -1, -1j])[n % 4])
    assert not np.any(p[:, :2].imag)
    assert unit_powers(np.array([0.6 + 0.8j]), 0).shape == (0, 1)


def test_basis_columns_at_zero_keep_only_the_constant(bt400):
    u = basis_columns(bt400, np.array([0.0, 0.3j]), bt400.degree_max + 1)
    assert u[0, 0] == np.exp(-0.5 * bt400.log_h[0] - bt400.weight.phi(0.0))
    assert not np.any(u[1:, 0])
    assert np.all(np.isfinite(u))


def test_basis_moduli_are_the_real_columns_bitwise(bt400):
    radii = np.array([0.0, 0.2, 0.37, 0.5, 0.9, 0.95])
    n_terms = bt400.degree_max + 1
    assert n_terms > 2 * MODULUS_ROWS
    a = basis_moduli(bt400, radii, n_terms)
    u = basis_columns(bt400, radii, n_terms)
    np.testing.assert_array_equal(u.real, a)
    assert not np.any(u.imag)
    # a row block of the columns is the same rows of the whole array
    np.testing.assert_array_equal(basis_columns(bt400, radii, 70).real, a[:70])


def test_basis_columns_peak_memory_is_the_output(bt2000):
    # the moduli are built a row block at a time inside the phase array, so
    # the atomic factor's columns are the only full-size array
    rng = np.random.default_rng(11)
    atoms = 0.9 * np.sqrt(rng.random(128)) * np.exp(2j * np.pi * rng.random(128))
    tracemalloc.start()
    try:
        u = basis_columns(bt2000, atoms, bt2000.degree_max + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= u.nbytes + 2**20


def test_reproducing_property_by_quadrature(bt60, w1):
    # <f, K_z>_omega = f(z) for f in the span; f = e_3 here.  The angular rule
    # of disk_nodes (256 nodes) is exact for the phase factors of degree
    # <= 60 and the weight kills the truncation radius r_cap.
    z = 0.35 * np.exp(0.4j)
    f = lambda pts: pts**3 / np.exp(0.5 * bt60.log_h[3])
    pts, wts = disk_nodes(0.0, 0.9995, n_r=512, n_t=256)
    la, ph = kernel_at_points(bt60, z, pts)
    kz = np.exp(la) * np.exp(1j * ph)
    inner = np.sum(wts * f(pts) * np.conj(kz) * np.exp(w1.log_weight(np.abs(pts))))
    assert complex(inner) == pytest.approx(complex(f(np.array([z]))[0]), rel=1e-6)


def test_parseval_by_quadrature(bt60, w1):
    # int |K_z|^2 omega dA = K_z(z) for the truncated kernel
    z = 0.4 * np.exp(-0.9j)
    pts, wts = disk_nodes(0.0, 0.9995, n_r=512, n_t=256)
    la, _ = kernel_at_points(bt60, z, pts)
    integral = np.sum(wts * np.exp(2.0 * la + w1.log_weight(np.abs(pts))))
    assert float(integral) == pytest.approx(
        np.exp(kernel_norm_sq(bt60, z)), rel=1e-6
    )


def test_normalized_kernel_cauchy_schwarz(bt400, rng):
    for _ in range(20):
        z = 0.85 * rng.random() * np.exp(2j * np.pi * rng.random())
        zeta = 0.85 * rng.random() * np.exp(2j * np.pi * rng.random())
        la, _ = normalized_kernel(bt400, z, zeta)
        ratio = np.exp(la - 0.5 * kernel_norm_sq(bt400, zeta))
        assert ratio <= 1.0 + 1e-12


def test_log_normalized_kernel_sq_at_self(bt400):
    z = 0.44 * np.exp(2.2j)
    val = log_normalized_kernel_sq_at(bt400, z, np.array([z]))[0]
    assert val == pytest.approx(kernel_norm_sq(bt400, z), rel=1e-12)


def test_submeanvalue_constant_is_exact(bt400, delta1):
    r = check_submeanvalue(bt400, [1.0], 0.3 + 0.2j, p=2.0, beta=0.0, delta=delta1)
    assert r == pytest.approx(1.0, abs=1e-10)


def test_submeanvalue_rejects_the_zero_polynomial(bt400, delta1):
    with pytest.raises(DomainError, match="vanishes identically"):
        check_submeanvalue(bt400, [0.0, 0.0], 0.3, p=2.0, beta=0.0, delta=delta1)


def test_submeanvalue_is_zero_where_f_vanishes(bt400, delta1):
    # f(z) = z - 0.3 vanishes at the centre but not on the disk around it
    assert check_submeanvalue(bt400, [-0.3, 1.0], 0.3, p=2.0, beta=0.0, delta=delta1) == 0.0


@pytest.mark.parametrize("delta", [0.0, 5.0, float("nan")])
def test_submeanvalue_rejects_a_delta_outside_its_range(bt400, delta):
    # unchecked, delta = 0 gave NaN and delta = 5 integrated outside the disk
    with pytest.raises(ParameterError, match="outside admissible range"):
        check_submeanvalue(bt400, [1.0], 0.3, p=2.0, beta=0.0, delta=delta)


def test_submeanvalue_subharmonic_below_one(bt400, delta1):
    # |f|^p is subharmonic for holomorphic f, so the center value cannot
    # exceed the areal average (beta = 0)
    for coeffs in ([1.0, 2.0, 0.0, -1.0], [0.5, -1j, 0.25]):
        for z in (0.1, 0.45 * np.exp(1j), 0.7 * np.exp(-2j)):
            r = check_submeanvalue(bt400, coeffs, z, p=2.0, beta=0.0, delta=delta1)
            assert r <= 1.0 + 1e-9


def test_submeanvalue_weighted_family_capped(bt400, delta1):
    # z^k family with beta = 1: the ratio stays near 1 at this small delta
    worst = 0.0
    for k in range(0, 21, 5):
        coeffs = [0.0] * k + [1.0]
        for z in (0.3, 0.6 * np.exp(0.5j)):
            r = check_submeanvalue(bt400, coeffs, z, p=2.0, beta=1.0, delta=delta1)
            worst = max(worst, r)
    assert 0.0 < worst < 2.0


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.8),
    st.floats(min_value=0.0, max_value=2 * np.pi),
    st.floats(min_value=0.0, max_value=0.8),
    st.floats(min_value=0.0, max_value=2 * np.pi),
)
def test_kernel_symmetry_property(r1, t1, r2, t2):
    w = btk.make_exponential_weight(1.0)
    bt = _shared_table(w)
    z = r1 * np.exp(1j * t1)
    zeta = r2 * np.exp(1j * t2)
    a = _kernel_value(bt, z, zeta)
    b = _kernel_value(bt, zeta, z)
    assert a == pytest.approx(np.conj(b), rel=1e-10)


_TABLE_CACHE = {}


def _shared_table(w):
    key = w.fingerprint()
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = btk.build_basis_table(w, 200)
    return _TABLE_CACHE[key]
