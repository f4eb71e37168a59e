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

from .core import EPS, INF, Functional, scaled_norm, scaled_row_norms
from .sampling import SAMPLER_SEED, unit_directions

#: the two finest radii of the shrinking schedule, the limsup surrogate
FINEST_RADII = np.array([1e-4, 1e-5])

#: directions sampled per radius in dimension >= 2 (1-D always uses +/-1)
DEFAULT_DIRECTIONS = 64

#: ball-sampling probes per ``f.values`` call when many points are sampled
PROBE_BLOCK = 8192


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
    value = float(_sampled_values(f, x[None, :], np.array([fx]))[0])
    samples = len(FINEST_RADII) * len(unit_directions(x.size, DEFAULT_DIRECTIONS, SAMPLER_SEED))
    return SlopeEstimate(value, float(FINEST_RADII[-1]), samples, "ball-sampling")


def _sampled_values(f: Functional, pts: np.ndarray, fxs: np.ndarray) -> np.ndarray:
    """The ``sampled_slope`` value at each row of ``pts`` (values ``fxs``); the
    probes go through ``f.values`` in blocks of at most ``PROBE_BLOCK`` (or one row's)."""
    dim = pts.shape[1]
    dirs = unit_directions(dim, DEFAULT_DIRECTIONS, SAMPLER_SEED)
    steps = (FINEST_RADII[:, None, None] * dirs).reshape(-1, dim)
    rows = max(1, PROBE_BLOCK // len(steps))
    out = np.empty(len(pts))
    for lo in range(0, len(pts), rows):
        x, fx = pts[lo:lo + rows], fxs[lo:lo + rows, None, None]
        fy = f.values((x[:, None, :] + steps).reshape(-1, dim))
        fy = fy.reshape(len(x), len(FINEST_RADII), len(dirs))
        quotients = np.where(fy < fx, (fx - fy) / FINEST_RADII[:, None], 0.0)
        out[lo:lo + rows] = quotients.max(axis=(1, 2), initial=0.0)
    return out


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


def descending_slopes(f: Functional, pts: np.ndarray, fxs: np.ndarray):
    """``descending_slope`` at each row of ``pts`` (values ``fxs``), batched: the
    slopes and the set of methods, bit for bit as the per-point calls give them."""
    values, methods = row_descending_slopes(f, pts, fxs)
    return values, set(methods)


def row_descending_slopes(f: Functional, pts: np.ndarray, fxs: np.ndarray):
    """``descending_slopes`` with the method of each row, as a list.  Rows
    without a gradient, with f = +inf, an ``analytic_slope`` or a scalar
    gradient alone take ``descending_slope`` one by one."""
    values, redo = np.empty(len(fxs)), fxs == INF
    if f.analytic_slope is None and f.smooth_gradient is None:
        values[~redo] = _sampled_values(f, pts[~redo], fxs[~redo])
    elif f.analytic_slope is None and f.batch_gradient is not None and len(fxs):
        g = np.asarray(f.batch_gradient(pts), dtype=float)
        # |g| in 1-D, exact also where g * g underflows; no gradient: NaN
        values = np.abs(g[:, 0]) if g.shape[1] == 1 else scaled_row_norms(g)
        redo |= np.isnan(values)
    else:
        redo[:] = True
    methods = ["ball-sampling" if f.smooth_gradient is None else "gradient-norm"] * len(fxs)
    for i in np.flatnonzero(redo):
        est = descending_slope(f, pts[i], fx=float(fxs[i]))
        values[i] = est.value
        methods[i] = est.method
    return values, methods
