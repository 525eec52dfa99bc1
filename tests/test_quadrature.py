import time

import mpmath
import numpy as np
import pytest

import btk
import btk.measures
import btk.quadrature
import btk.toeplitz
from btk.errors import ConvergenceError, DomainError
from btk.measures import indicator_density, power_density
from btk.quadrature import (
    disk_nodes,
    gauss_legendre_nodes,
    gauss_legendre_rule,
    log_monomial_norms,
    radial_log_moments,
)

from oracles import simpson_doubling

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


def _mp_log_moment(n, beta, a, b, alpha=1.0):
    """log int_a^b r^(2n+1) exp(-(1-r^2)^(-alpha)) (1-r^2)^beta dr at 30 digits.

    The moment of g = (1-r^2)^beta for make_exponential_weight(alpha), split
    at the integrand's peak (found by bisection on the derivative of its log,
    clamped to [a, b]).
    """
    with mpmath.workdps(30):
        a, b, alpha = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(alpha)

        def logf(r):
            u = 1 - r * r
            return (2 * n + 1) * mpmath.log(r) - u**-alpha + beta * mpmath.log(u)

        lo, hi = mpmath.mpf("1e-20"), 1 - mpmath.mpf("1e-20")
        for _ in range(120):
            mid = (lo + hi) / 2
            u = 1 - mid * mid
            slope = 2 * alpha * mid * u ** (-alpha - 1) + 2 * beta * mid / u
            if (2 * n + 1) / mid - slope > 0:
                lo = mid
            else:
                hi = mid
        peak = min(max(lo, a), b)
        top = logf(peak)
        cuts = [a, peak, b] if a < peak < b else [a, b]
        s = mpmath.quad(lambda r: mpmath.exp(logf(r) - top) if r > 0 else 0, cuts)
        return float(top + mpmath.log(s))


@pytest.mark.parametrize(
    "mu, beta",
    [
        (power_density(2.0), 2.0),
        (power_density(2.0, (0.0, 0.7)), 2.0),
        (indicator_density(0.2, 0.5), 0.0),
    ],
    ids=["power2", "power2_r07", "indicator"],
)
def test_radial_moments_match_mpmath_oracle(w1, mu, beta):
    logmom = radial_log_moments(w1, 511, log_density=mu.log_g, support=mu.support)
    for n in (0, 7, 150, 511):
        assert abs(logmom[n] - _mp_log_moment(n, beta, *mu.support)) <= 1e-11


def test_radial_moments_gate_fails_fast_on_a_jump(w1):
    # no panel edge sits at the jump, so no order reaches 1e-10 there
    t0 = time.perf_counter()
    with pytest.raises(ConvergenceError, match="tol=1e-10"):
        radial_log_moments(
            w1, 5, log_density=lambda r: np.where(r < 0.4137, 0.0, -np.inf)
        )
    assert time.perf_counter() - t0 < 20.0


def test_radial_moments_patch_sites_are_the_one_implementation():
    # perfbench/layers.py times the moments at these two module attributes
    assert btk.measures.radial_log_moments is btk.quadrature.radial_log_moments
    assert btk.toeplitz.radial_log_moments is btk.quadrature.radial_log_moments


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
def test_monomial_norms_match_mpmath_oracle(alpha):
    # alpha = 0.25 at degree 2000 is the table Simpson doubling ran out of
    # memory on; it needs Gauss-Legendre order 1024 on some rows
    log_h = log_monomial_norms(btk.make_exponential_weight(alpha), 2000)
    for n in (0, 7, 150, 2000):
        exact = np.log(2.0) + _mp_log_moment(n, 0, 0, 1, alpha)
        assert abs(log_h[n] - exact) <= 1e-11


def test_monomial_norm_gate_can_fail(w1, monkeypatch):
    monkeypatch.setattr(btk.quadrature, "MONOMIAL_NORM_TOL", 0.0)
    with pytest.raises(
        ConvergenceError, match="monomial norm quadrature .* order 1024 on 4 of 4 rows"
    ):
        log_monomial_norms(w1, 3)


def test_simpson_doubling_known_values():
    assert simpson_doubling(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0)
    assert simpson_doubling(np.sin, 0.0, np.pi) == pytest.approx(2.0, rel=1e-9)
    assert simpson_doubling(np.sin, 1.0, 1.0) == 0.0


def test_gauss_legendre_polynomial_exactness():
    x, w = gauss_legendre_nodes(0.0, 2.0, 3)
    # n-point Gauss is exact through degree 2n-1 = 5
    assert float(np.dot(w, x**5)) == pytest.approx(2.0**6 / 6.0, rel=1e-13)


def _check_disk_rule(center, rho, n_r, n_t):
    pts, wts = disk_nodes(center, rho, n_r=n_r, n_t=n_t)
    assert float(np.sum(wts)) == pytest.approx(rho**2, rel=1e-12)
    assert np.max(np.abs(pts - center)) <= rho
    # the rule integrates |z - center|^2 dA = rho^4 / 2 exactly
    assert float(np.sum(wts * np.abs(pts - center) ** 2)) == pytest.approx(
        rho**4 / 2.0, rel=1e-12
    )


def test_disk_nodes_weight_normalization():
    _check_disk_rule(0.3 + 0.1j, 0.2, n_r=48, n_t=128)


def test_unit_disk_nodes_weight_normalization():
    # the unit-disk rule is disk_nodes centred at 0
    _check_disk_rule(0.0, 0.9, n_r=64, n_t=32)


def test_parameter_validation(w1):
    with pytest.raises(DomainError):
        log_monomial_norms(w1, -1)
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
