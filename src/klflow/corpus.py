"""Benchmark functionals with exact oracles, addressable by string id.

Each entry bundles a Functional with whatever closed forms exist for it:
smooth gradient (None at kinks; the descending slope is derived from it,
see ``klflow.slope``), convexity modulus (only where the closed form
proves one), gradient-flow trajectory, resolvent, the admissible-set
infimum alpha, and a matched parameter function + radius for the anchored
slope condition.  Ids look like ``double-well?lambda=1&a=1``; see
``list_corpus``.
"""
from __future__ import annotations

import math
import urllib.parse
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import (
    EPS, EuclideanBackend, Functional, as_point, dense_scan, golden_section, norm,
    pick_branch, row_norms, scaled_norm, scaled_row_norms,
)
from .theta import ParameterFunction, make_power_theta

BRUTE_FORCE_GRID = 20001  #: points of the brute-force scan of a sample box
BRUTE_FORCE_TIE_TOL = 1e-9  #: value gap under which a point ties the brute-force optimum


@dataclass
class CorpusEntry:
    functional: Functional
    provenance: str
    analytic_trajectory: Optional[Callable[[np.ndarray, str], Callable[[float], np.ndarray]]] = None
    analytic_resolvent: Optional[Callable[[np.ndarray, float], List[np.ndarray]]] = None
    known_alpha: Optional[Callable[[np.ndarray, float], float]] = None
    condition_data: Optional[Callable[[np.ndarray], Tuple[ParameterFunction, float]]] = None
    sample_box: Tuple[float, float] = (-3.0, 3.0)
    nonsmooth_points: Tuple[float, ...] = ()


@dataclass
class BruteForceResult:
    point: np.ndarray
    value: float
    ties: List[np.ndarray] = field(default_factory=list)
    on_boundary: bool = False

    def nearest_distance(self, query) -> float:
        """Distance from query to the nearest near-optimal point found."""
        q = np.asarray(query, dtype=float)
        cands = [self.point] + list(self.ties)
        return min(norm(q - c) for c in cands)


def _float_pow(base: np.ndarray, p: float) -> np.ndarray:
    """``b ** p`` on each element as a Python float.

    numpy's ``**``, ``np.square`` and ``np.power`` round differently from the
    C ``pow`` behind Python floats on a fraction of inputs (``p = 2``
    included), and the batched oracles must match the scalar ones exactly.
    """
    return np.array([b**p for b in base.tolist()], dtype=float)


def make_quadratic(lam: float = 1.0, center=(0.0,)) -> CorpusEntry:
    """f(x) = lam/2 * d(x, center)^2 on R^n."""
    lam = float(lam)
    if lam <= 0:
        raise ValueError("lam must be positive")
    c = as_point(center)
    backend = EuclideanBackend(c.size)

    def value(x):
        return 0.5 * lam * float(np.add.reduce((x - c) ** 2, axis=None))

    def batch_value(xs):
        return 0.5 * lam * np.sum((xs - c) ** 2, axis=1)

    def gradient(x):
        return lam * (x - c)

    def batch_gradient(xs):
        return lam * (xs - c)

    def trajectory(x0, policy="positive-branch"):
        x0 = as_point(x0)

        def curve(t: float) -> np.ndarray:
            return c + math.exp(-lam * t) * (x0 - c)

        return curve

    def resolvent(x, tau):
        x = as_point(x)
        return [(x + lam * tau * c) / (1.0 + lam * tau)]

    def known_alpha(x0, r):
        return 2.0 * lam

    def condition_data(x0):
        x0 = as_point(x0)
        pf = make_power_theta(c=1.0 / math.sqrt(2.0 * lam), gamma=0.5)
        return pf, norm(x0 - c)

    return CorpusEntry(
        functional=Functional(
            label=f"quadratic(lam={lam}, center={c.tolist()})",
            value=value,
            batch_value=batch_value,
            backend=backend,
            smooth_gradient=gradient,
            convexity=lam,
            batch_gradient=batch_gradient,
        ),
        provenance=f"quadratic lam={lam} center={c.tolist()}",
        analytic_trajectory=trajectory,
        analytic_resolvent=resolvent,
        known_alpha=known_alpha,
        condition_data=condition_data,
        sample_box=(float(c[0] - 3.0), float(c[0] + 3.0)),
    )


def make_double_well(lam: float = 1.0, a: float = 1.0) -> CorpusEntry:
    """f(x) = min(lam/2 (x-a)^2, lam/2 (x+a)^2) = lam/2 (|x| - a)^2 on R."""
    lam = float(lam)
    a = float(a)
    if lam <= 0 or a <= 0:
        raise ValueError("lam and a must be positive")
    backend = EuclideanBackend(1)

    def value(x):
        return 0.5 * lam * (abs(float(x[0])) - a) ** 2

    def batch_value(xs):
        return 0.5 * lam * _float_pow(np.abs(xs[:, 0]) - a, 2)

    def gradient(x):
        v = float(x[0])
        if v == 0.0:
            return None
        return np.array([lam * (v - a) if v > 0 else lam * (v + a)])

    def batch_gradient(xs):
        v = xs[:, 0]
        return np.where(v == 0.0, np.nan, np.where(v > 0, lam * (v - a), lam * (v + a)))[:, None]

    def trajectory(x0, policy="positive-branch"):
        v0 = float(as_point(x0)[0])
        if v0 == 0.0:  # on the ridge the branch policy picks the well
            (s,) = pick_branch([(-1.0,), (1.0,)], policy, [v0])
        else:
            s = math.copysign(1.0, v0)

        def curve(t: float) -> np.ndarray:
            return np.array([s * a + math.exp(-lam * t) * (v0 - s * a)])

        return curve

    def resolvent(x, tau):
        v = float(as_point(x)[0])
        shrink = 1.0 + lam * tau
        if v > 0:
            return [np.array([(v + lam * tau * a) / shrink])]
        if v < 0:
            return [np.array([(v - lam * tau * a) / shrink])]
        w = lam * tau * a / shrink
        return [np.array([-w]), np.array([w])]

    def known_alpha(x0, r):
        return 2.0 * lam

    def condition_data(x0):
        v0 = float(as_point(x0)[0])
        pf = make_power_theta(c=1.0 / math.sqrt(2.0 * lam), gamma=0.5)
        return pf, min(abs(v0 - a), abs(v0 + a))

    return CorpusEntry(
        functional=Functional(
            label=f"double-well(lam={lam}, a={a})",
            value=value,
            batch_value=batch_value,
            backend=backend,
            smooth_gradient=gradient,
            batch_gradient=batch_gradient,
        ),
        provenance=f"double-well lam={lam} a={a}",
        analytic_trajectory=trajectory,
        analytic_resolvent=resolvent,
        known_alpha=known_alpha,
        condition_data=condition_data,
        sample_box=(-a - 2.0, a + 2.0),
        nonsmooth_points=(0.0,),
    )


def make_truncated_parabola(x_ref: float = 1.0) -> CorpusEntry:
    """f(x) = x^2 for x >= 0, constant x_ref^2/2 for x < 0.

    The plateau has slope 0, so the quantitative threshold test anchored at
    x_ref holds exactly up to radius x_ref and fails beyond it.
    """
    x_ref = float(x_ref)
    if x_ref <= 0:
        raise ValueError("x_ref must be positive")
    plateau = 0.5 * x_ref * x_ref
    backend = EuclideanBackend(1)

    def value(x):
        v = float(x[0])
        return v * v if v >= 0 else plateau

    def batch_value(xs):
        v = xs[:, 0]
        return np.where(v >= 0, v * v, plateau)

    def gradient(x):
        v = float(x[0])
        if v > 0:
            return np.array([2.0 * v])
        if v < 0:
            return np.array([0.0])
        return None

    def batch_gradient(xs):
        v = xs[:, 0]
        return np.where(v > 0, 2.0 * v, np.where(v < 0, 0.0, np.nan))[:, None]

    def trajectory(x0, policy="positive-branch"):
        v0 = float(as_point(x0)[0])

        def curve(t: float) -> np.ndarray:
            if v0 > 0:
                return np.array([v0 * math.exp(-2.0 * t)])
            return np.array([v0])

        return curve

    def resolvent(x, tau):
        v = float(as_point(x)[0])
        if v > 0:
            return [np.array([v / (1.0 + 2.0 * tau)])]
        if v == 0.0:
            return [np.array([0.0])]
        jump = v * v / (2.0 * tau)  # objective of hopping to the vertex
        if jump < plateau:
            return [np.array([0.0])]
        if jump > plateau:
            return [np.array([v])]
        return [np.array([v]), np.array([0.0])]

    def known_alpha(x0, r):
        v0 = float(as_point(x0)[0])
        if v0 <= 0:
            return 0.0
        f_x0 = v0 * v0
        plateau_in_ball = (v0 - r) < 0.0
        if plateau_in_ball and plateau <= f_x0:
            return 0.0
        return 4.0

    def condition_data(x0):
        v0 = float(as_point(x0)[0])
        pf = make_power_theta(c=0.5, gamma=0.5)  # theta(u) = sqrt(u)
        return pf, abs(v0)

    return CorpusEntry(
        functional=Functional(
            label=f"truncated-parabola(x_ref={x_ref})",
            value=value,
            batch_value=batch_value,
            backend=backend,
            smooth_gradient=gradient,
            batch_gradient=batch_gradient,
        ),
        provenance=f"truncated-parabola x_ref={x_ref}",
        analytic_trajectory=trajectory,
        analytic_resolvent=resolvent,
        known_alpha=known_alpha,
        condition_data=condition_data,
        sample_box=(-2.0 * x_ref, 3.0 * x_ref),
        nonsmooth_points=(0.0,),
    )


def make_staircase(m: float = 1.0, eps: float = 0.1) -> CorpusEntry:
    """Two linear ramps with an upward value jump of eps at x = 1.

    f(x) = 0 for x <= 0, m*x on (0, 1], m*x + eps on (1, inf).  Lower
    semicontinuous; the descending slope is m everywhere on (0, inf)
    (including x = 1, where descent proceeds from the left) and 0 on the
    minimising plateau x <= 0.
    """
    m = float(m)
    eps = float(eps)
    if m <= 0 or eps < 0:
        raise ValueError("m must be positive, eps nonnegative")
    backend = EuclideanBackend(1)

    def value(x):
        v = float(x[0])
        if v <= 0:
            return 0.0
        if v <= 1.0:
            return m * v
        return m * v + eps

    def batch_value(xs):
        v = xs[:, 0]
        return np.where(v <= 0, 0.0, np.where(v <= 1.0, m * v, m * v + eps))

    def gradient(x):
        v = float(x[0])
        if v < 0:
            return np.array([0.0])
        if v == 0.0 or v == 1.0:
            return None
        return np.array([m])

    def batch_gradient(xs):
        v = xs[:, 0]
        return np.where(v < 0, 0.0, np.where((v == 0.0) | (v == 1.0), np.nan, m))[:, None]

    def trajectory(x0, policy="positive-branch"):
        v0 = float(as_point(x0)[0])

        def curve(t: float) -> np.ndarray:
            # the minimising plateau x <= 0 is stationary
            return np.array([v0 if v0 <= 0 else max(v0 - m * t, 0.0)])

        return curve

    def condition_data(x0):
        v0 = float(as_point(x0)[0])
        level = m * v0 + (eps if v0 > 1 else 0.0)
        pf = make_power_theta(c=math.sqrt(level) / m, gamma=0.5)
        return pf, 2.0 * level / m

    return CorpusEntry(
        functional=Functional(
            label=f"staircase(m={m}, eps={eps})",
            value=value,
            batch_value=batch_value,
            backend=backend,
            smooth_gradient=gradient,
            batch_gradient=batch_gradient,
        ),
        provenance=f"staircase m={m} eps={eps}",
        analytic_trajectory=trajectory,
        condition_data=condition_data,
        sample_box=(-1.0, 4.0),
        nonsmooth_points=(0.0, 1.0),
    )


def make_asymmetric_double_well(
    lam: float = 1.0, a: float = 1.0, eps: float = 0.1
) -> CorpusEntry:
    """f(x) = min(max(lam/2 (x-a)^2, eps), lam/2 (x+a)^2).

    The right well is flattened into a plateau of height eps with slope 0, so
    the admissible-set infimum alpha collapses to 0 whenever that plateau is
    admissible (anchors left of the origin and close to it, in particular).
    """
    lam = float(lam)
    a = float(a)
    eps = float(eps)
    if lam <= 0 or a <= 0 or not (0.0 < eps < 0.5 * lam * a * a):
        raise ValueError("need lam, a > 0 and 0 < eps < lam*a^2/2")
    b = math.sqrt(2.0 * eps / lam)  # plateau half-width around +a
    backend = EuclideanBackend(1)

    def value(x):
        v = float(x[0])
        return min(max(0.5 * lam * (v - a) ** 2, eps), 0.5 * lam * (v + a) ** 2)

    def batch_value(xs):
        v = xs[:, 0]
        vr = np.maximum(0.5 * lam * _float_pow(v - a, 2), eps)
        vl = 0.5 * lam * _float_pow(v + a, 2)
        return np.minimum(vr, vl)

    def gradient(x):
        # the branches cross only at 0 (the left one is below for v < 0), so
        # the sign of v picks the branch where they tie in floats
        v = float(x[0])
        if v < 0.0:
            return np.array([lam * (v + a)])
        if v == 0.0:
            return None
        right = 0.5 * lam * (v - a) ** 2
        if right < eps:
            return np.array([0.0])
        if right == eps:
            return None
        return np.array([lam * (v - a)])

    def batch_gradient(xs):
        v = xs[:, 0]
        g = np.where(v < 0.0, lam * (v + a), np.nan)
        w = v[v > 0.0]
        right = 0.5 * lam * _float_pow(w - a, 2)
        g[v > 0.0] = np.where(right < eps, 0.0, np.where(right == eps, np.nan, lam * (w - a)))
        return g[:, None]

    def known_alpha(x0, r):
        v0 = float(as_point(x0)[0])
        f_x0 = value(np.array([v0]))
        plateau_lo, plateau_hi = a - b, a + b
        in_ball = (v0 - r) < plateau_hi and (v0 + r) > plateau_lo
        if in_ball and eps <= f_x0:
            return 0.0
        return 2.0 * lam

    return CorpusEntry(
        functional=Functional(
            label=f"asymmetric-double-well(lam={lam}, a={a}, eps={eps})",
            value=value,
            batch_value=batch_value,
            backend=backend,
            smooth_gradient=gradient,
            batch_gradient=batch_gradient,
        ),
        provenance=f"asymmetric-double-well lam={lam} a={a} eps={eps}",
        known_alpha=known_alpha,
        sample_box=(-a - 2.0, a + 2.0),
        nonsmooth_points=(0.0, a - b, a + b),
    )


def make_power_potential(p: float = 2.0, scale: float = 1.0, center=0.0) -> CorpusEntry:
    """f(x) = scale * d(x, center)^p, p >= 1.

    p = 1 is the translation-invariant cone |x - center| (resolvent =
    soft-thresholding); p = 1/gamma gives the exponent matched to the power
    parameter family, for which the slope condition holds globally.
    """
    p = float(p)
    scale = float(scale)
    if p < 1.0 or scale <= 0.0:
        raise ValueError("need p >= 1 and scale > 0")
    c = as_point(center)
    backend = EuclideanBackend(c.size)

    def value(x):
        return scale * scaled_norm(x - c) ** p

    def batch_value(xs):
        return scale * _float_pow(scaled_row_norms(xs - c), p)

    def gradient(x):
        u = x - c
        d = scaled_norm(u)
        if d == 0.0:
            # the cone's kink; for p > 1 the gradient vanishes at the centre
            return None if p == 1.0 else np.zeros_like(c)
        if d < 2.0**-511:
            # the squares underflowed (scaled_norm rescaled u): the direction
            # v / |v| keeps unit length, so a kink has no gradient-free halo
            v = u / np.abs(u).max()
            return scale * p * d ** (p - 1.0) * (v / norm(v))
        return scale * p * d ** (p - 2.0) * u

    def batch_gradient(xs):
        diffs = xs - c
        ds = row_norms(diffs)
        small = ds <= 2.0**-511  # as in scaled_row_norms; 1.0 keeps 0 ** (p - 2) out
        out = (scale * p * _float_pow(np.where(small, 1.0, ds), p - 2.0))[:, None] * diffs
        for i in np.flatnonzero(small):
            g = gradient(xs[i])
            out[i] = np.nan if g is None else g
        return out

    def radial_resolvent(d: float, tau: float) -> float:
        # solve rho + tau * scale * p * rho^(p-1) = d on [0, d]
        if d == 0.0:
            return 0.0
        if p == 1.0:
            return max(d - tau * scale, 0.0)
        if p == 2.0:
            return d / (1.0 + 2.0 * tau * scale)
        # g increases from g(0) = -d: bisect [0, d] at midpoints until the
        # ends are adjacent floats, by its own loop so that the closed form
        # stays independent of core.float_root, which the resolvent uses
        g = lambda rho: rho + tau * scale * p * rho ** (p - 1.0) - d
        lo, hi, mid = 0.0, d, 0.5 * d
        while lo < mid < hi:
            lo, hi = (mid, hi) if g(mid) < 0.0 else (lo, mid)
            mid = lo + 0.5 * (hi - lo)
        return lo if -g(lo) < g(hi) else hi

    def resolvent(x, tau):
        x = as_point(x)
        d = scaled_norm(x - c)
        if d == 0.0:
            return [c.copy()]
        rho = radial_resolvent(d, tau)
        return [c + rho * ((x - c) / d)]

    def trajectory(x0, policy="positive-branch"):
        x0 = as_point(x0)
        d0 = scaled_norm(x0 - c)
        if d0 == 0.0:
            return lambda t: c.copy()
        u = (x0 - c) / d0

        def curve(t: float) -> np.ndarray:
            if p == 2.0:
                d = d0 * math.exp(-2.0 * scale * t)
            else:
                base = d0 ** (2.0 - p) - scale * p * (2.0 - p) * t
                d = 0.0 if (p < 2.0 and base <= 0.0) else base ** (1.0 / (2.0 - p))
            return c + d * u

        return curve

    def condition_data(x0):
        x0 = as_point(x0)
        gamma = 1.0 / p
        c_tight = gamma * scale ** (-gamma)
        pf = make_power_theta(c=c_tight, gamma=gamma)
        return pf, pf.theta(value(x0))

    return CorpusEntry(
        functional=Functional(
            label=f"power-potential(p={p}, scale={scale}, center={c.tolist()})",
            value=value,
            batch_value=batch_value,
            backend=backend,
            smooth_gradient=gradient,
            # d^p is convex for p >= 1; at p = 2 it is the quadratic
            # scale * d^2, whose modulus is 2 scale
            convexity=2.0 * scale if p == 2.0 else 0.0,
            batch_gradient=batch_gradient,
        ),
        provenance=f"power-potential p={p} scale={scale} center={c.tolist()}",
        analytic_trajectory=trajectory,
        analytic_resolvent=resolvent,
        condition_data=condition_data,
        sample_box=(float(c[0] - 3.0), float(c[0] + 3.0)),
        nonsmooth_points=(float(c[0]),) if p < 2.0 else (),
    )


def make_sharpness(
    c: float = 1.0, gamma: float = 0.5, big_m: float = 4.0, eps: float = 0.0
) -> CorpusEntry:
    """Tightness probe: f(x) = theta^{-1}(x + eps) on (0, M), flat outside.

    With eps = 0 the budget inequality anchored at x0 in (0, M/2) holds with
    equality at r = x0 and the flow reaches the minimising plateau.  With
    eps > 0 the budget fails by exactly eps at r = x0 and the flow stalls at
    the origin-side plateau of positive value theta^{-1}(eps): the
    certificates are sharp, not slack.
    """
    pf = make_power_theta(c, gamma)
    big_m = float(big_m)
    eps = float(eps)
    if big_m <= 0 or eps < 0:
        raise ValueError("need M > 0 and eps >= 0")
    v0 = pf.theta_inverse(eps)
    backend = EuclideanBackend(1)

    def value(x):
        v = float(x[0])
        if v <= 0:
            return v0
        if v >= big_m:
            return 0.0
        return pf.theta_inverse(v + eps)

    def batch_value(xs):
        v = xs[:, 0]
        out = np.where(v <= 0, v0, 0.0)
        ramp = (v > 0) & (v < big_m)
        out[ramp] = [pf.theta_inverse(u) for u in (v[ramp] + eps).tolist()]
        return out

    def ramp_gradient(v: float) -> float:
        u = pf.theta_inverse(v + eps)
        if u == 0.0:
            # theta^{-1} underflowed: the limit of 1/theta' at 0 is 0 for
            # gamma < 1 and 1/c for gamma = 1
            return 1.0 / pf.c if pf.gamma == 1.0 else 0.0
        return 1.0 / pf.theta_deriv(u)

    def gradient(x):
        v = float(x[0])
        if v == 0.0 or v == big_m:
            return None
        if v < 0 or v > big_m:
            return np.array([0.0])
        return np.array([ramp_gradient(v)])

    def batch_gradient(xs):
        v = xs[:, 0]
        out = np.where((v == 0.0) | (v == big_m), np.nan, 0.0)
        ramp = (v > 0) & (v < big_m)
        out[ramp] = [ramp_gradient(w) for w in v[ramp].tolist()]
        return out[:, None]

    def condition_data(x0):
        fv = value(as_point(x0))
        return pf, pf.theta(fv)

    return CorpusEntry(
        functional=Functional(
            label=f"sharpness(c={c}, gamma={gamma}, M={big_m}, eps={eps})",
            value=value,
            batch_value=batch_value,
            backend=backend,
            smooth_gradient=gradient,
            batch_gradient=batch_gradient,
        ),
        provenance=f"sharpness c={c} gamma={gamma} M={big_m} eps={eps}",
        condition_data=condition_data,
        sample_box=(-1.0, big_m + 1.0),
        nonsmooth_points=(0.0, big_m),
    )


def brute_force_minimiser(entry: CorpusEntry) -> BruteForceResult:
    """Dense-grid global minimisation with local refinement (1-D).

    Scans ``BRUTE_FORCE_GRID`` points of the entry's sample box.  Returns
    the best point, its value, and all near-optimal points within
    ``BRUTE_FORCE_TIE_TOL`` of the optimum (deduplicated, capped).
    ``on_boundary`` flags an argmin at the box edge, which makes the result
    inconclusive as a global statement.
    """
    f = entry.functional
    if f.backend.dimension != 1:
        raise ValueError("brute_force_minimiser supports 1-D functionals")
    lo, hi = map(float, entry.sample_box)
    scan = dense_scan(lambda g: f.values(g[:, None]), lo, hi, BRUTE_FORCE_GRID)
    xs, vals = scan.grid, scan.values
    i_best = int(np.argmin(vals))
    v_best = float(vals[i_best])
    h = (hi - lo) / (BRUTE_FORCE_GRID - 1)

    # refine the few best non-flat candidates to the resolvent's value-path width
    value = lambda x: float(f.value(np.array([x])))
    order = np.argsort(vals)
    refined: List[Tuple[float, float]] = []
    for i in order[:5]:
        a, b = float(max(lo, xs[i] - 2 * h)), float(min(hi, xs[i] + 2 * h))
        x, _, _ = golden_section(value, a, b, 2.0 * EPS * max(1.0, abs(a), abs(b)))
        refined.append((x, value(x)))
    refined.append((float(xs[i_best]), v_best))
    v_opt = min(v for _, v in refined)
    x_opt = min(x for x, v in refined if v <= v_opt + BRUTE_FORCE_TIE_TOL)

    # near-optimal set: raw grid hits plus the polished candidates, so that
    # isolated off-grid minima are kept even when no grid value clears the tie tolerance
    mask = vals <= v_opt + BRUTE_FORCE_TIE_TOL
    merged = sorted(
        {float(x) for x in xs[mask]}
        | {x for x, v in refined if v <= v_opt + BRUTE_FORCE_TIE_TOL}
    )
    # contiguous runs collapse to their endpoints; for a plateau that keeps
    # the nearest-distance answer exact from outside the run
    ties: List[np.ndarray] = []
    run_start = None
    prev = None
    for x in merged:
        if prev is None or x - prev > 2.0 * h:
            if prev is not None and prev > run_start:
                ties.append(np.array([prev]))
            ties.append(np.array([x]))
            run_start = x
        prev = x
        if len(ties) >= 4096:
            break
    if prev is not None and run_start is not None and prev > run_start and len(ties) < 4096:
        ties.append(np.array([prev]))
    on_boundary = i_best in (0, BRUTE_FORCE_GRID - 1)
    return BruteForceResult(
        point=np.array([x_opt]), value=v_opt, ties=ties, on_boundary=on_boundary
    )


_FACTORIES = {
    "quadratic": (make_quadratic, {"lambda": "lam", "center": "center"}),
    "double-well": (make_double_well, {"lambda": "lam", "a": "a"}),
    "truncated-parabola": (make_truncated_parabola, {"x0": "x_ref", "x_ref": "x_ref"}),
    "staircase": (make_staircase, {"m": "m", "eps": "eps"}),
    "asymmetric-double-well": (
        make_asymmetric_double_well,
        {"lambda": "lam", "a": "a", "eps": "eps"},
    ),
    "power-potential": (
        make_power_potential,
        {"p": "p", "scale": "scale", "center": "center"},
    ),
    "sharpness": (
        make_sharpness,
        {"c": "c", "gamma": "gamma", "M": "big_m", "eps": "eps"},
    ),
}


def _parse_value(raw: str):
    if "," in raw:
        return [float(v) for v in raw.split(",")]
    return float(raw)


def resolve_entry(entry_id: str) -> CorpusEntry:
    """Build a corpus entry from an id like ``double-well?lambda=1&a=1``."""
    name, _, query = entry_id.partition("?")
    name = name.strip()
    if name not in _FACTORIES:
        raise KeyError(f"unknown corpus id {name!r}; see list_corpus()")
    factory, key_map = _FACTORIES[name]
    kwargs = {}
    if query:
        for key, vals in urllib.parse.parse_qs(query, strict_parsing=True).items():
            if key not in key_map:
                raise KeyError(f"unknown parameter {key!r} for corpus id {name!r}")
            kwargs[key_map[key]] = _parse_value(vals[-1])
    return factory(**kwargs)


def list_corpus() -> List[str]:
    """Human-readable registry listing: one line per id."""
    lines = []
    for name in sorted(_FACTORIES):
        factory, key_map = _FACTORIES[name]
        params = ", ".join(sorted(set(key_map)))
        summary = (factory.__doc__ or "").strip().splitlines()[0]
        lines.append(f"{name} ({params}): {summary}")
    return lines
