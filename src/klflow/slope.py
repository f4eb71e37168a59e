"""Descending slope estimation.

The descending slope at x is

    |df|(x) = limsup_{y -> x} max(f(x) - f(y), 0) / d(x, y),

with the conventions slope = 0 where no descent is available locally (in
particular at local minima) and slope = +inf outside the effective domain.

Where the functional has a gradient oracle the slope is the gradient norm.
At a 1-D point without a gradient it is read from the two neighbouring
floats: each side whose gradient descends towards it, and whose value does
not jump up, contributes its |f'|.  Lower semicontinuity allows jumps only
upward, so the neighbours' gradients and values tell a kink from a jump.

The sampled estimator replaces the limsup with a max of difference quotients
over shrinking radii, keeping the two finest radii as the limit surrogate.
That surrogate is exact in the shrinking-radius limit for piecewise smooth
objectives of the kind the corpus provides; for wilder objectives it is a
lower estimate only.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .core import EPS, INF, Functional, scaled_norm
from .sampling import SAMPLER_SEED, unit_directions

#: the two finest radii of the shrinking schedule, the limsup surrogate
FINEST_RADII = np.array([1e-4, 1e-5])

#: directions sampled per radius in dimension >= 2 (1-D always uses +/-1)
DEFAULT_DIRECTIONS = 64


class SlopeEstimate(NamedTuple):
    value: float
    radius_used: float
    samples: int
    method: str  # "analytic" | "gradient-norm" | "ball-sampling"


def sampled_slope(f: Functional, x, fx: Optional[float] = None) -> SlopeEstimate:
    """Ball-sampling descending slope estimate, ignoring attached oracles.

    Takes the max difference quotient over the ``FINEST_RADII`` as the
    limsup surrogate, probed along the ``DEFAULT_DIRECTIONS`` directions of
    the library sampler in one batched value call.  Points whose neighbours
    all evaluate to +inf get slope 0 (isolated-in-domain convention).
    ``fx`` is f(x) when the caller already holds it.
    """
    x = np.asarray(x, dtype=float)
    if fx is None:
        fx = f.value(x)
    if fx == INF:
        return SlopeEstimate(INF, 0.0, 0, "ball-sampling")
    dirs = unit_directions(x.size, DEFAULT_DIRECTIONS, SAMPLER_SEED)
    probes = (x + FINEST_RADII[:, None, None] * dirs).reshape(-1, x.size)
    fy = f.values(probes).reshape(len(FINEST_RADII), len(dirs))
    quotients = np.where(fy < fx, (fx - fy) / FINEST_RADII[:, None], 0.0)
    value = float(quotients.max(initial=0.0))
    return SlopeEstimate(value, float(FINEST_RADII[-1]), len(probes), "ball-sampling")


def _kink_slope(f: Functional, v: float, fv: float) -> Optional[float]:
    """Slope of a 1-D f at a point v without a gradient, from its neighbours.

    Side s (the float y next to v towards s * inf) counts when g(y) s < 0,
    so that moving to y descends, and f(y) <= f(v) + 4 EPS |f(v)|, so that
    there is no upward jump on that side.  Returns the largest |g(y)| over
    the sides that count (0 if neither does), or None where a neighbour has
    no gradient either.
    """
    best = 0.0
    for side in (-1.0, 1.0):
        y = np.array([math.nextafter(v, side * INF)])
        g = f.gradient(y)
        if g is None:
            return None
        gy = float(g[0])
        if gy * side < 0.0 and f.value(y) <= fv + 4.0 * EPS * abs(fv):
            best = max(best, abs(gy))
    return best


def descending_slope(
    f: Functional, x, fx: Optional[float] = None, g: Optional[np.ndarray] = None
) -> SlopeEstimate:
    """Descending slope of f at x.

    Prefers the functional's exact slope oracle, then the gradient norm,
    then in 1-D the neighbouring floats' gradients (``_kink_slope``), and
    ball sampling where those are missing.  f(x) = +inf returns +inf by the
    outside-domain convention.  ``fx`` is f(x) and ``g`` is
    ``f.gradient(x)`` when the caller already holds them; ``g`` must come
    from that oracle, not from finite differences, and None means it is not
    held, so the oracle is asked.
    """
    x = np.asarray(x, dtype=float)
    if fx is None:
        fx = f.value(x)
    if fx == INF:
        return SlopeEstimate(INF, 0.0, 0, "analytic")
    if f.analytic_slope is not None:
        return SlopeEstimate(float(f.analytic_slope(x)), 0.0, 0, "analytic")
    if f.smooth_gradient is not None:
        if g is None:
            g = f.gradient(x)
        if g is not None:
            # in 1-D |g| is the norm, exact also where g * g underflows
            value = abs(float(g[0])) if g.size == 1 else scaled_norm(g)
            return SlopeEstimate(value, 0.0, 0, "gradient-norm")
        if x.size == 1:
            value = _kink_slope(f, float(x[0]), fx)
            if value is not None:
                return SlopeEstimate(value, 0.0, 0, "gradient-norm")
    return sampled_slope(f, x, fx=fx)
