"""Parameter functions theta and the derived decay maps eta and Gamma.

A parameter function is a C^1 strictly increasing map theta on (0, inf),
continuous at 0 with theta(0) = 0.  From it we derive

    eta(u)   = integral from 1 to u of theta'(s)^2 ds,
    Gamma(v) = eta(theta^{-1}(v)),

which convert the abstract distance/energy decay statements into concrete
decreasing-in-time bounds.  The built-in power family

    theta(u) = (c / gamma) * u**gamma,   c > 0, 0 < gamma <= 1,

has closed forms for everything; custom parameter functions fall back to
Gauss-Legendre panels and a float root solve.  ``eta(0)`` may be -inf (gamma
<= 1/2); that value is representable and propagates correctly through comparisons.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .core import EPS, INF, float_root, gauss_legendre

#: probe argument used to decide whether theta is onto [0, inf)
OVERFLOW_PROBE = 1e300
ETA_PANEL_RATIO = math.sqrt(2.0)  #: ratio of the ends of a custom theta's eta panel
ETA_ZERO_PANELS = 128  #: panels summed below 1 for a custom theta's eta(0)


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

    ``u == 0`` returns the limit (finite for gamma > 1/2, else -inf).  A custom
    theta sums ``core.gauss_legendre`` over panels from max(u, 1) down to min(u, 1),
    each ETA_PANEL_RATIO times narrower, the last one partial.  Its eta(0) sums
    ETA_ZERO_PANELS panels below 1 plus the geometric tail their last ratio r
    predicts (exact for a power theta'^2), or is -inf if r >= 1 - sqrt(EPS).
    """
    u = float(u)
    if not 0.0 <= u < INF:
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
    integrand = lambda s: pf.theta_deriv(s) ** 2
    hi, end = max(u, 1.0), min(u, 1.0)
    panels = []
    while hi > end and (u > 0.0 or len(panels) < ETA_ZERO_PANELS):
        lo = max(hi / ETA_PANEL_RATIO, end)
        panels.append(gauss_legendre(integrand, lo, hi))
        hi = lo
    total = math.fsum(panels)
    if u > 0.0:
        return total if u >= 1.0 else -total
    r = panels[-1] / panels[-2] if panels[-2] > 0.0 else 0.0
    if not r < 1.0 - math.sqrt(EPS):  # NaN too, where theta'^2 overflows
        return -INF
    return -(total + panels[-1] * r / (1.0 - r))


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
