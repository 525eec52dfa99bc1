import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import btk
from btk.errors import DomainError, ParameterError

# frozen constants for alpha = 1, pinned from the deterministic estimation grid
M_TAU_ALPHA1 = 0.23558395794619058


def test_tau_at_zero_exponential(w1):
    # tau(0) = 1 / sqrt(2 alpha (1 + alpha r^2)) at r = 0
    assert float(w1.tau(0.0)) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


def test_tau_at_zero_alpha2(w2):
    assert float(w2.tau(0.0)) == pytest.approx(0.5, rel=1e-12)


def test_m_tau_frozen(w1):
    assert w1.m_tau == pytest.approx(M_TAU_ALPHA1, rel=1e-9)


def test_m_tau_formula(w1, w_half, w2, w_dexp):
    for w in (w1, w_half, w2, w_dexp):
        assert w.m_tau == pytest.approx(min(1.0, 1.0 / w.c1, 1.0 / w.c2) / 4.0)


def test_log_weight_is_minus_two_phi(w1):
    r = np.linspace(0.0, 0.9, 7)
    np.testing.assert_allclose(w1.log_weight(r), -2.0 * w1.phi(r), rtol=1e-14)


def test_log_laplacian_matches_finite_differences(w1, w2):
    # tau^(-2) = lap phi = phi'' + phi'/r, cross-checked by central differences of phi
    for w in (w1, w2):
        for r in (0.2, 0.5, 0.8):
            h = 1e-6
            phi2 = (w.phi(r + h) - 2.0 * w.phi(r) + w.phi(r - h)) / (h * h)
            lap = phi2 + w.phi_prime(r) / r
            assert float(np.exp(-2.0 * w.log_tau(r))) == pytest.approx(lap, rel=1e-4)


def test_tau_prime_closed_form_vs_differences(w1):
    r = np.linspace(0.05, 0.95, 19)
    h = 1e-7
    fd = (w1.tau(r + h) - w1.tau(r - h)) / (2.0 * h)
    np.testing.assert_allclose(w1.tau_prime(r), fd, rtol=1e-5)


def test_certification_passes_exponential(w1, w_half, w2):
    for w in (w1, w_half, w2):
        rep = btk.certify_class_L(w)
        assert rep.passed
        assert rep.cond_a and rep.cond_b and rep.tau_positive
        assert rep.tau_decreasing_near_one
        assert rep.m_tau == pytest.approx(w.m_tau)


def test_certification_passes_double_exponential(w_dexp):
    rep = btk.certify_class_L(w_dexp)
    assert rep.passed


def test_certification_grid_too_small(w1):
    with pytest.raises(ParameterError):
        btk.certify_class_L(w1, grid_size=50)


def test_double_exponential_tau_vanishes_at_both_ends(w_dexp):
    mid = float(w_dexp.tau(0.5))
    assert mid > 0.0
    assert float(w_dexp.tau(1e-9)) < 1e-3 * mid
    assert float(w_dexp.tau(0.9999)) < 1e-3 * mid


def test_require_delta(w1):
    w1.require_delta(w1.m_tau / 8.0)
    with pytest.raises(ParameterError):
        w1.require_delta(w1.m_tau)
    with pytest.raises(ParameterError):
        w1.require_delta(0.0)


def test_bad_parameters_rejected():
    with pytest.raises(DomainError):
        btk.make_exponential_weight(0.0)
    with pytest.raises(DomainError):
        btk.make_exponential_weight(-1.0)
    with pytest.raises(DomainError):
        btk.make_double_exponential_weight(1.0, -1.0, 1.0)


def test_custom_weight_certifies():
    w = btk.make_custom_weight(lambda r: 0.1 * (1.0 - r), c1=0.11, c2=0.11)
    rep = btk.certify_class_L(w)
    assert rep.passed
    with pytest.raises(DomainError):
        w.phi(np.array([0.5]))  # no potential supplied


def test_json_round_trip(w1, w_dexp):
    for w in (w1, w_dexp):
        again = btk.weight_from_json(w.to_json())
        assert again.fingerprint() == w.fingerprint()
        assert again.m_tau == pytest.approx(w.m_tau)
    with pytest.raises(DomainError):
        btk.weight_from_json({"family": "nope"})


def test_fingerprint_distinguishes_parameters(w1, w_half):
    assert w1.fingerprint() != w_half.fingerprint()


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.999))
def test_condition_a_holds_pointwise(r):
    w = btk.make_exponential_weight(1.0)
    assert float(w.tau(r)) <= w.c1 * (1.0 - r) * (1.0 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.995),
    st.floats(min_value=0.0, max_value=0.995),
)
def test_condition_b_holds_pairwise(r, s):
    w = btk.make_exponential_weight(1.0)
    if r != s:
        quot = abs(float(w.tau(r)) - float(w.tau(s))) / abs(r - s)
        assert quot <= w.c2 * (1.0 + 1e-10)
