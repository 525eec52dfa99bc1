import numpy as np
import pytest

from btk.errors import DomainError
from btk.quadrature import (
    disk_nodes,
    gauss_legendre_nodes,
    gauss_legendre_rule,
    log_monomial_norms,
    radial_log_moments,
    simpson_doubling,
    unit_disk_nodes,
)

# h_0 = 2 int_0^1 r exp(-1/(1-r^2)) dr for alpha = 1, frozen oracle
H0_ALPHA1 = 0.14849550677627


def test_h0_frozen_oracle(w1):
    log_h = log_monomial_norms(w1, 0)
    assert float(np.exp(log_h[0])) == pytest.approx(H0_ALPHA1, rel=1e-9)


def test_low_degree_norms_vs_plain_simpson(w1):
    # for small n the integrand is representable in linear space
    log_h = log_monomial_norms(w1, 6)
    for n in (0, 1, 3, 6):
        direct = 2.0 * simpson_doubling(
            lambda r, n=n: np.where(
                r > 0, np.exp((2 * n + 1) * np.log(np.maximum(r, 1e-300))
                              - 2.0 * w1.phi(r)), 0.0
            ),
            0.0,
            1.0 - 1e-12,
            tol=1e-11,
        )
        assert float(np.exp(log_h[n])) == pytest.approx(direct, rel=1e-8)


def test_norms_strictly_decreasing_and_log_convex(w1, bt400):
    log_h = bt400.log_h
    assert np.all(np.diff(log_h) < 0.0)
    # moment sequences of positive measures are log-convex
    second = np.diff(log_h, 2)
    assert np.min(second) >= -1e-8


def test_radial_moments_reduce_to_monomial_norms(w1):
    log_h = log_monomial_norms(w1, 40)
    logmom = radial_log_moments(w1, 40)  # g = 1 on [0, 1]
    np.testing.assert_allclose(np.log(2.0) + logmom, log_h, atol=1e-6)


def test_radial_moments_respect_support(w1):
    # integrating over [0, b] is bounded by the full integral, increasing in b
    m_small = radial_log_moments(w1, 5, support=(0.0, 0.5))
    m_big = radial_log_moments(w1, 5, support=(0.0, 0.9))
    m_full = radial_log_moments(w1, 5)
    assert np.all(m_small < m_big)
    assert np.all(m_big <= m_full)


def test_radial_moments_vanishing_density(w1):
    logmom = radial_log_moments(
        w1, 3, log_density=lambda r: np.full_like(np.asarray(r, float), -np.inf)
    )
    assert np.all(np.isneginf(logmom))


def test_simpson_doubling_known_values():
    assert simpson_doubling(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0)
    assert simpson_doubling(np.sin, 0.0, np.pi) == pytest.approx(2.0, rel=1e-9)
    assert simpson_doubling(np.sin, 1.0, 1.0) == 0.0


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre_nodes(0.0, 2.0, 3)
    # n-point Gauss is exact through degree 2n-1 = 5
    assert float(np.dot(w, x**5)) == pytest.approx(2.0**6 / 6.0, rel=1e-13)


def test_disk_nodes_weight_normalization():
    pts, wts = disk_nodes(0.3 + 0.1j, 0.2)
    assert float(np.sum(wts)) == pytest.approx(0.04, rel=1e-12)
    assert np.max(np.abs(pts - (0.3 + 0.1j))) <= 0.2


def test_unit_disk_nodes_weight_normalization():
    pts, wts = unit_disk_nodes(0.9, n_r=64, n_t=32)
    assert float(np.sum(wts)) == pytest.approx(0.81, rel=1e-12)
    # the rule integrates |z|^2 dA = r_cap^4 / 2 exactly
    assert float(np.sum(wts * np.abs(pts) ** 2)) == pytest.approx(
        0.9**4 / 2.0, rel=1e-12
    )


def test_parameter_validation(w1):
    with pytest.raises(DomainError):
        log_monomial_norms(w1, -1)
    with pytest.raises(DomainError):
        log_monomial_norms(w1, 5, tol=1e-3)
    with pytest.raises(DomainError):
        radial_log_moments(w1, 5, support=(0.7, 0.2))


def test_gauss_legendre_rule_cached_bitwise_and_read_only():
    for a, b, n in ((0.0, 1.0, 16), (-0.3, 0.7, 5), (0.2, 0.95, 64)):
        x, w = gauss_legendre_nodes(a, b, n)
        x0, w0 = np.polynomial.legendre.leggauss(n)
        assert x.tobytes() == (0.5 * (b - a) * x0 + 0.5 * (a + b)).tobytes()
        assert w.tobytes() == (0.5 * (b - a) * w0).tobytes()
    x, w = gauss_legendre_rule(16)
    assert gauss_legendre_rule(16)[0] is x
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
