"""Descending slope estimation.

The descending slope at x is

    |df|(x) = limsup_{y -> x} max(f(x) - f(y), 0) / d(x, y),

with the conventions slope = 0 where no descent is available locally (in
particular at local minima) and slope = +inf outside the effective domain.

The sampled estimator replaces the limsup with a max of difference quotients
over shrinking radii, keeping the two finest radii as the limit surrogate.
That surrogate is exact in the shrinking-radius limit for piecewise smooth
objectives of the kind the corpus provides; for wilder objectives it is a
lower estimate only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import INF, Functional, norm
from .sampling import SAMPLER_SEED, unit_directions

#: the two finest radii of the shrinking schedule, the limsup surrogate
FINEST_RADII = np.array([1e-4, 1e-5])

#: directions sampled per radius in dimension >= 2 (1-D always uses +/-1)
DEFAULT_DIRECTIONS = 64


@dataclass(frozen=True)
class SlopeEstimate:
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


def descending_slope(f: Functional, x, fx: Optional[float] = None) -> SlopeEstimate:
    """Descending slope of f at x.

    Prefers the functional's exact slope oracle, then the gradient norm on
    smooth points, then ball sampling.  f(x) = +inf returns +inf by the
    outside-domain convention.  ``fx`` is f(x) when the caller already
    holds it.
    """
    x = np.asarray(x, dtype=float)
    if fx is None:
        fx = f.value(x)
    if fx == INF:
        return SlopeEstimate(INF, 0.0, 0, "analytic")
    if f.analytic_slope is not None:
        return SlopeEstimate(float(f.analytic_slope(x)), 0.0, 0, "analytic")
    g = f.gradient(x)
    if g is not None:
        return SlopeEstimate(norm(g), 0.0, 0, "gradient-norm")
    return sampled_slope(f, x, fx=fx)
