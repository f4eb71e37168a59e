"""Descending slope estimation, the chain rule, and metric speed.

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
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .core import INF, Functional
from .sampling import SAMPLER_SEED, unit_directions

#: default shrinking radius schedule for the sampled estimator
DEFAULT_RADII: Tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)

#: directions sampled per radius in dimension >= 2 (1-D always uses +/-1)
DEFAULT_DIRECTIONS = 64


@dataclass(frozen=True)
class SlopeEstimate:
    value: float
    radius_used: float
    samples: int
    method: str  # "analytic" | "gradient-norm" | "ball-sampling"


@dataclass(frozen=True)
class SpeedSample:
    t: float
    value: float
    one_sided: bool = False


@dataclass(frozen=True)
class MonotoneMap:
    """Scalar non-decreasing map with a left derivative, for the chain rule."""

    value: Callable[[float], float]
    left_deriv: Callable[[float], float]


def sampled_slope(
    f: Functional,
    x,
    radii: Sequence[float] = DEFAULT_RADII,
    fx: Optional[float] = None,
) -> SlopeEstimate:
    """Ball-sampling descending slope estimate, ignoring attached oracles.

    Takes the max difference quotient over the two finest radii as the
    limsup surrogate, so only those two radii are probed, along the
    ``DEFAULT_DIRECTIONS`` directions of the library sampler, in one batched
    value call.  Points whose neighbours all evaluate to +inf get slope 0
    (isolated-in-domain convention).  ``fx`` is f(x) when the caller
    already holds it.
    """
    x = np.asarray(x, dtype=float)
    if fx is None:
        fx = f.value(x)
    if fx == INF:
        return SlopeEstimate(INF, 0.0, 0, "ball-sampling")
    if len(radii) == 0:
        raise ValueError("radius schedule must be non-empty")
    finest = np.array(sorted(radii, reverse=True)[-2:], dtype=float)
    dirs = unit_directions(x.size, DEFAULT_DIRECTIONS, SAMPLER_SEED)
    probes = (x + finest[:, None, None] * dirs).reshape(-1, x.size)
    fy = f.values(probes).reshape(len(finest), len(dirs))
    quotients = np.where(fy < fx, (fx - fy) / finest[:, None], 0.0)
    value = float(quotients.max(initial=0.0))
    return SlopeEstimate(value, float(finest[-1]), len(probes), "ball-sampling")


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
        return SlopeEstimate(float(np.linalg.norm(g)), 0.0, 0, "gradient-norm")
    return sampled_slope(f, x, fx=fx)


def chain_rule_slope(
    f: Functional,
    g: MonotoneMap,
    x,
    slope_f: Union[SlopeEstimate, float],
) -> float:
    """Slope of the composition g(f(.)) at x: left-deriv of g at f(x) times |df|(x).

    Requires f(x) finite and the left derivative defined and nonnegative
    there.  A constant g (left derivative 0) gives slope 0.
    """
    x = np.asarray(x, dtype=float)
    fx = f.value(x)
    if fx == INF:
        raise ValueError("chain rule requires f(x) finite")
    d = g.left_deriv(fx)
    if d is None or not np.isfinite(d):
        raise ValueError("left derivative of g undefined at f(x)")
    d = float(d)
    if d < 0.0:
        raise ValueError("g must be non-decreasing (left derivative >= 0)")
    s = slope_f.value if isinstance(slope_f, SlopeEstimate) else float(slope_f)
    if d == 0.0:
        return 0.0
    return d * s


def metric_speed(points: Sequence[Tuple[float, np.ndarray]], t: float) -> SpeedSample:
    """Metric speed |y'|(t) from time-stamped samples.

    Uses the symmetric quotient d(y_a, y_b) / (t_b - t_a) over the tightest
    available bracket around t; at or beyond the ends of the sampled range the
    quotient is one-sided and flagged.
    """
    if len(points) < 2:
        raise ValueError("need at least two time-stamped points")
    times = np.array([p[0] for p in points], dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("sample times must be strictly increasing")
    coords = [np.asarray(p[1], dtype=float) for p in points]
    n = len(points)

    def quotient(i: int, j: int) -> float:
        return float(np.linalg.norm(coords[i] - coords[j])) / (times[j] - times[i])

    if t <= times[0]:
        return SpeedSample(t, quotient(0, 1), one_sided=True)
    if t >= times[-1]:
        return SpeedSample(t, quotient(n - 2, n - 1), one_sided=True)
    j = int(np.searchsorted(times, t))
    if times[j] == t:
        # exact hit on an interior sample: centred quotient around it
        if 0 < j < n - 1:
            return SpeedSample(t, quotient(j - 1, j + 1), one_sided=False)
        return SpeedSample(t, quotient(max(j - 1, 0), min(j + 1, n - 1)), one_sided=True)
    return SpeedSample(t, quotient(j - 1, j), one_sided=False)
