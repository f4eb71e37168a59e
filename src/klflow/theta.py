"""Parameter functions theta and the derived decay maps eta and Gamma.

A parameter function is a C^1 strictly increasing map theta on (0, inf),
continuous at 0 with theta(0) = 0.  From it we derive

    eta(u)   = integral from 1 to u of theta'(s)^2 ds,
    Gamma(v) = eta(theta^{-1}(v)),

which convert the abstract distance/energy decay statements into concrete
decreasing-in-time bounds.  The built-in power family

    theta(u) = (c / gamma) * u**gamma,   c > 0, 0 < gamma <= 1,

has closed forms for everything; custom parameter functions fall back to
quadrature and a float root solve.  ``eta(0)`` may be -inf (gamma <= 1/2); that value
is representable and propagates correctly through comparisons.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .core import INF, float_root

#: probe argument used to decide whether theta is onto [0, inf)
OVERFLOW_PROBE = 1e300
QUAD_TOL = 1e-12  #: absolute and relative tolerance of the eta quadrature


@dataclass(frozen=True)
class ParameterFunction:
    theta: Callable[[float], float]
    theta_deriv: Callable[[float], float]
    theta_inverse: Optional[Callable[[float], float]] = None
    family: str = "custom"  # "power" or "custom"
    c: Optional[float] = None
    gamma: Optional[float] = None

    def theta_at_infinity(self) -> float:
        """Supremum of the range, probed at a very large argument."""
        try:
            v = self.theta(OVERFLOW_PROBE)
        except OverflowError:
            return INF
        return float(v)


def make_power_theta(c: float, gamma: float) -> ParameterFunction:
    """Power-family parameter function theta(u) = (c/gamma) * u**gamma."""
    c = float(c)
    gamma = float(gamma)
    if not (c > 0.0):
        raise ValueError("c must be positive")
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")

    scale = c / gamma

    def theta(u: float) -> float:
        if u < 0.0:
            raise ValueError("theta is defined on [0, inf)")
        if u == 0.0:
            return 0.0
        return scale * u**gamma

    def theta_deriv(u: float) -> float:
        if u <= 0.0:
            raise ValueError("theta' is defined on (0, inf)")
        return c * u ** (gamma - 1.0)

    def theta_inverse(v: float) -> float:
        if v < 0.0:
            raise ValueError("theta^{-1} is defined on [0, inf)")
        if v == 0.0:
            return 0.0
        return (v / scale) ** (1.0 / gamma)

    return ParameterFunction(
        theta=theta,
        theta_deriv=theta_deriv,
        theta_inverse=theta_inverse,
        family="power",
        c=c,
        gamma=gamma,
    )


def eta_eval(pf: ParameterFunction, u: float) -> float:
    """Evaluate eta(u) = int_1^u theta'(s)^2 ds.

    Closed form for the power family:

        gamma != 1/2:  c^2/(2*gamma - 1) * (u**(2*gamma - 1) - 1)
        gamma == 1/2:  c^2 * log(u)

    ``u == 0`` returns the limit (finite for gamma > 1/2, else -inf).  Custom
    parameter functions are integrated numerically; a divergent integral near
    zero is reported as -inf.
    """
    u = float(u)
    if u < 0.0:
        raise ValueError("eta is defined on [0, inf)")
    if pf.family == "power":
        c = pf.c
        g = pf.gamma
        if g == 0.5:
            return -INF if u == 0.0 else c * c * math.log(u)
        p = 2.0 * g - 1.0
        if u == 0.0:
            return -c * c / p if p > 0.0 else -INF
        return c * c / p * (u**p - 1.0)
    # custom parameter function: quadrature from 1 to u
    from scipy.integrate import quad

    integrand = lambda s: pf.theta_deriv(s) ** 2

    def integrate(lo: float, hi: float) -> float:
        val, _ = quad(integrand, lo, hi, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=400)
        return val

    if u == 0.0:
        # probe successively smaller lower limits; divergence shows up as
        # unbounded growth between probes
        probes = [integrate(eps, 1.0) for eps in (1e-8, 1e-10, 1e-12)]
        if probes[-1] - probes[-2] > 100.0 * (abs(probes[-2]) * 1e-9 + QUAD_TOL):
            return -INF
        return -probes[-1]
    if u >= 1.0:
        return integrate(1.0, u)
    return -integrate(u, 1.0)


def theta_inverse(pf: ParameterFunction, v: float) -> float:
    """Invert theta, preferring an attached closed form over a float root solve.

    Without a closed form the bracket [0, hi] grows by factors of 4 until
    theta(hi) > v, and ``core.float_root`` places the root of theta(u) - v
    in it to 1 ulp.  Raises if v exceeds the range of theta (the bracket
    passes the overflow probe).
    """
    if pf.theta_inverse is not None:
        return float(pf.theta_inverse(float(v)))
    v = float(v)
    if v < 0.0:
        raise ValueError("theta^{-1} is defined on [0, inf)")
    if v == 0.0:
        return 0.0
    hi = 1.0
    while pf.theta(hi) <= v:
        hi *= 4.0
        if hi > OVERFLOW_PROBE:
            raise ValueError("value exceeds the range of theta")
    return float_root(lambda u: pf.theta(u) - v, 0.0, hi)


def gamma_eval(pf: ParameterFunction, v: float) -> float:
    """Evaluate Gamma(v) = eta(theta^{-1}(v)) for v in the range of theta."""
    v = float(v)
    if v < 0.0:
        raise ValueError("Gamma is defined on [0, theta(inf))")
    if v > 0.0 and v >= pf.theta_at_infinity():
        raise ValueError("argument exceeds the range of theta")
    return eta_eval(pf, theta_inverse(pf, v))
