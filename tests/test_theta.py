"""Parameter function algebra: power-family closed forms, custom maps, inverses."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from klflow import eta_eval, gamma_eval, make_power_theta, theta_inverse
from klflow.theta import ParameterFunction

GAMMAS = (0.25, 0.5, 0.75, 1.0)
U_GRID = np.logspace(-6, 3, 40)


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("c", (0.5, 1.0, 2.0))
def test_power_theta_round_trip(c, gamma):
    pf = make_power_theta(c, gamma)
    for u in U_GRID:
        v = pf.theta(u)
        assert v > 0
        assert math.isclose(pf.theta_inverse(v), u, rel_tol=1e-9)
    for v in np.logspace(-5, 2, 20):
        assert math.isclose(pf.theta(pf.theta_inverse(v)), v, rel_tol=1e-9)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_power_theta_derivative_matches_quotient(gamma):
    pf = make_power_theta(1.3, gamma)
    for u in (1e-3, 0.1, 1.0, 7.0, 250.0):
        h = 1e-6 * u
        fd = (pf.theta(u + h) - pf.theta(u - h)) / (2.0 * h)
        assert math.isclose(pf.theta_deriv(u), fd, rel_tol=1e-6)


def test_eta_log_form_at_half():
    # gamma = 1/2 gives theta'(u) = c/sqrt(u), so eta(u) = c^2 log(u)
    c = 0.8
    pf = make_power_theta(c, 0.5)
    for u in (1e-8, 1e-3, 0.5, 1.0, 3.0, 1e4):
        assert math.isclose(eta_eval(pf, u), c * c * math.log(u), rel_tol=0, abs_tol=1e-10)


@pytest.mark.parametrize("gamma", (0.25, 0.75, 1.0))
def test_eta_power_form_general(gamma):
    c = 1.1
    pf = make_power_theta(c, gamma)
    expo = 2.0 * gamma - 1.0
    for u in (1e-4, 0.2, 1.0, 9.0):
        closed = c * c * (u**expo - 1.0) / expo
        assert math.isclose(eta_eval(pf, u), closed, rel_tol=1e-10, abs_tol=1e-12)
        numeric, _ = quad(lambda s: pf.theta_deriv(s) ** 2, 1.0, u)
        assert math.isclose(eta_eval(pf, u), numeric, rel_tol=1e-8, abs_tol=1e-10)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_gamma_is_eta_through_theta_inverse(gamma):
    pf = make_power_theta(0.9, gamma)
    for u in (1e-3, 0.3, 1.0, 12.0):
        v = pf.theta(u)
        assert math.isclose(gamma_eval(pf, v), eta_eval(pf, u), rel_tol=1e-8, abs_tol=1e-10)


def test_gamma_log_form_at_half():
    c = 1.4
    pf = make_power_theta(c, 0.5)
    for v in (1e-3, 0.1, 1.0, 20.0):
        expected = 2.0 * c * c * math.log(v / (2.0 * c))
        assert math.isclose(gamma_eval(pf, v), expected, rel_tol=0, abs_tol=1e-10)


def test_power_family_metadata():
    pf = make_power_theta(0.7, 0.25)
    assert pf.family == "power"
    assert pf.c == 0.7 and pf.gamma == 0.25


def test_custom_theta_against_hand_integral():
    """theta(u) = u + u^2 has eta(u) = ((1+2u)^3 - 27) / 6 by direct integration."""
    pf = ParameterFunction(
        theta=lambda u: u + u * u,
        theta_deriv=lambda u: 1.0 + 2.0 * u,
    )
    assert pf.family == "custom"
    for u in (0.1, 0.5, 1.0, 2.0, 6.0):
        oracle = ((1.0 + 2.0 * u) ** 3 - 27.0) / 6.0
        assert math.isclose(eta_eval(pf, u), oracle, rel_tol=1e-8)
    # the inverse is available even without an explicit one
    for u in (0.05, 1.0, 4.0):
        v = pf.theta(u)
        assert math.isclose(theta_inverse(pf, v), u, rel_tol=1e-9)


def test_custom_theta_inverse_is_exact_to_one_ulp():
    """theta(u) = sqrt(u) with no closed-form inverse: theta^{-1}(v) = v^2 to
    1 ulp, also where v is far below any absolute tolerance."""
    pf = ParameterFunction(theta=math.sqrt, theta_deriv=lambda u: 0.5 / math.sqrt(u))
    for v in (1e-13, 1e-11, 2.0, 1e3):
        assert abs(theta_inverse(pf, v) - v * v) <= math.ulp(v * v), v


def test_make_power_theta_validates():
    with pytest.raises(ValueError):
        make_power_theta(-1.0, 0.5)
    with pytest.raises(ValueError):
        make_power_theta(1.0, 0.0)


@given(
    u=st.floats(min_value=1e-4, max_value=1e4),
    c=st.floats(min_value=0.1, max_value=5.0),
    gamma=st.floats(min_value=0.05, max_value=1.0),
)
def test_power_theta_properties(u, c, gamma):
    pf = make_power_theta(c, gamma)
    assert pf.theta(u) > 0
    assert pf.theta(u * 1.5) > pf.theta(u)
    assert pf.theta_deriv(u) > 0
    assert math.isclose(
        gamma_eval(pf, pf.theta(u)), eta_eval(pf, u), rel_tol=1e-7, abs_tol=1e-9
    )


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_eta_vanishes_at_one_and_grows(u):
    pf = make_power_theta(1.0, 0.6)
    assert eta_eval(pf, 1.0) == 0.0
    if u > 1.0:
        assert eta_eval(pf, u) > 0.0
    elif u < 1.0:
        assert eta_eval(pf, u) < 0.0
