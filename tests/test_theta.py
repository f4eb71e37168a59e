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
    for u in (0.0, 0.1, 0.5, 1.0, 2.0, 6.0):
        oracle = ((1.0 + 2.0 * u) ** 3 - 27.0) / 6.0
        assert math.isclose(eta_eval(pf, u), oracle, rel_tol=1e-13)
    with pytest.raises(ValueError):  # the panels would never reach u
        eta_eval(pf, math.inf)
    # the inverse is available even without an explicit one
    for u in (0.05, 1.0, 4.0):
        v = pf.theta(u)
        assert math.isclose(theta_inverse(pf, v), u, rel_tol=1e-9)


def _custom_power_theta(c, gamma):
    """The power family's theta and theta' as a custom parameter function."""
    pf = make_power_theta(c, gamma)
    return ParameterFunction(theta=pf.theta, theta_deriv=pf.theta_deriv)


def test_custom_theta_eta_against_mpmath():
    """A custom theta's eta, panel by panel, within 1e-12 relative of the
    power family's closed form in 40 digits, from u = 1e-100 to 1e200 and
    at u = 0."""
    import mpmath

    grid = [float(u) for u in np.logspace(-100, 200, 61)] + [0.3, 0.999, 1.001, 7.0]
    for gamma in (0.1, 0.25, 0.4, 0.5, 0.51, 0.55, 0.6, 0.75, 0.9, 1.0):
        for c in (0.5, 1.0, 2.0):
            pf = _custom_power_theta(c, gamma)
            for u in grid + [0.0]:
                try:  # theta'^2 is largest at min(u, 1)
                    if u > 0.0 and not math.isfinite(pf.theta_deriv(min(u, 1.0)) ** 2):
                        continue
                except OverflowError:
                    continue
                with mpmath.workdps(40):
                    p = 2 * mpmath.mpf(gamma) - 1
                    if u == 0.0:
                        exact = -c * c / p if p > 0 else -mpmath.inf
                    elif p == 0:
                        exact = c * c * mpmath.log(u)
                    else:
                        exact = c * c * (mpmath.mpf(u) ** p - 1) / p
                    exact = float(exact)
                assert math.isclose(eta_eval(pf, u), exact, rel_tol=1e-12), (gamma, c, u)


@pytest.mark.parametrize("gamma", (0.25, 0.5))
def test_custom_theta_eta_diverges_at_zero(gamma):
    """theta'^2 = c^2 s^(2 gamma - 2) is not integrable at 0 for gamma <= 1/2."""
    rng = np.random.default_rng(20)
    for c in np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 200)):
        assert eta_eval(_custom_power_theta(float(c), gamma), 0.0) == -math.inf, c


def test_custom_theta_eta_at_zero_where_theta_deriv_underflows():
    """theta'(s) = exp(-1/s): theta'^2 is 0 in floats on the last eta(0)
    panels, which then predict no tail."""
    import mpmath

    pf = ParameterFunction(
        theta=lambda u: float(mpmath.quad(lambda s: mpmath.exp(-1 / s), [0, u])),
        theta_deriv=lambda u: math.exp(-1.0 / u),
    )
    with mpmath.workdps(40):
        exact = float(-mpmath.quad(lambda s: mpmath.exp(-2 / s), [0, 1]))
    assert math.isclose(eta_eval(pf, 0.0), exact, rel_tol=1e-13)


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
