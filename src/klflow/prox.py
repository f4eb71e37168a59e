"""Proximal point iteration with variational certificates.

The resolvent of f at x with step tau minimises phi(z) = f(z) + d(x,z)^2 /
(2 tau).  Since f >= 0 on the benchmark corpus, any minimiser lies in the
ball of radius sqrt(2 tau f(x)) around x.  In one dimension every root,
for the resolvent a root of phi'(z) = f'(z) + (z - x)/tau, comes from one
float solve, ``core.float_root``: a sign change at two adjacent floats, with
a rule for kinks that places the cone's soft threshold on its centre; every
value-only 1-D refinement is ``core.golden_section``.

A functional that declares a convexity modulus lambda with mu = lambda +
1/tau > 0 makes phi mu-strongly convex, so phi has one minimiser in the
ball and the resolvent makes one solve in every dimension
(Ambrosio-Gigli-Savare, Ch. 2 and 4).  In one dimension phi' is increasing
and the float solve on the box places the minimiser to 1 ulp; without a
gradient oracle, or where the box ends show no sign change, golden section
on phi, which is unimodal on the box, pins it to about 1 ulp of the box.
Without a modulus the box is scanned on n_grid points and each candidate
bracket is refined by the float solve on phi' (across the bracket, else
across one of its halves), and otherwise by golden section on phi to
about 1 ulp.  That value path pins kinks and jumps, but phi is flat to
rounding over about sqrt(eps) |z| around a smooth minimum, so no
value-only bracket places one closer than about 1e-8 relative.  In
several dimensions every local solve is ``core.descend`` (Barzilai-Borwein
gradient steps) on grad f, or on its central differences where f has none.
A strongly convex phi takes one descent from x, certified when
|grad phi(z)| / mu, which bounds the distance from z to the minimiser, is
at most POINT_TIE_TOL (1 + |z|) (never at a kink, which has no gradient).
Without a modulus an uncertified multistart counts minimisers within
MULTISTART_TIE_TOL (1 + |z|) as one, since central differences, off by
about eps |f| / FD_PROBE, stop a descent short of a smooth minimum.

The module also evaluates the De Giorgi variational-interpolation identity
for a single step, per-step monotonicity/stationarity inequalities, the
pairwise theta-distance bounds along an iterate sequence, closed-form decay
bounds (geometric, finite-termination, doubly-exponential, polynomial)
driven by a power parameter function, and the one-variable recursion
u_{k+1} + alpha u_{k+1}^delta <= u_k behind those bounds, whose extremal
sequence takes the same float solve.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .certificates import (
    DEFAULT_CERT_TOL, RateCertificate, certificate, skipped_certificate,
    theta_distance_margin,
)
from .core import (
    EPS, INF, PROX_POLICIES, Functional, SharedColumns, as_point, check_int, check_policy,
    check_real, dense_scan, descend, fd_gradient, float_root, gauss_legendre, golden_section,
    norm, pick_branch, row_norms, write_csv,
)
from .sampling import ball_sample
from .slope import descending_slope, descending_slopes
from .theta import ParameterFunction


BOX_SLACK = 1e-6  #: relative widening of the box that holds every minimiser
OBJECTIVE_TIE_TOL = 1e-10  #: relative objective gap of tied minimisers
POINT_TIE_TOL = 1e-9  #: relative distance under which two minimisers are one
MULTISTART_TIE_TOL = math.sqrt(EPS)  #: the same distance for the n-d multistart
N_STARTS = 32  #: multistart count for dimension > 1
DE_GIORGI_PANELS = 20  #: dyadic Gauss-Legendre panels of the De Giorgi integral
DE_GIORGI_GRID = 257  #: n_grid of each resolvent inside that integral
MONOTONICITY_TOL = 1e-9  #: slack of the per-step value and stationarity inequalities
IOFFE_GRID = 4097  #: points of the dense scan in the distance-to-sublevel check
IOFFE_TOL = 1e-9  #: slack of that check's distance bound and strip
POLY_R_MAX = 1e6  #: upper end of the search for the polynomial recursion constant


@dataclass
class ProxControls:
    n_grid: int = 1025
    policy: str = "smallest-distance"  # see core.pick_branch
    stop_f_tol: float = 1e-14
    stall_tol: float = 1e-14
    max_steps: int = 10_000
    compute_de_giorgi: bool = False

    def __post_init__(self) -> None:
        check_policy(self.policy, PROX_POLICIES)
        # fewer than 3 grid points leave no interior basin to refine
        check_int("n_grid", self.n_grid, least=3)
        check_int("max_steps", self.max_steps)
        check_real("stop_f_tol", self.stop_f_tol, positive=False)
        check_real("stall_tol", self.stall_tol, positive=False)


@dataclass
class ResolventResult:
    points: List[np.ndarray]  # objective-tied minimisers, sorted
    objective: float
    f_values: List[float]  # f.value at each point, as the oracle returned it
    # 1-d: always True (for a strongly convex phi by a sign change of phi' at
    # adjacent floats or by the one basin of the box, else on the scan grid
    # resolving every basin); n-d: True when the gradient bound puts
    # the single start of a strongly convex phi within POINT_TIE_TOL (1 + |z|)
    certified: bool
    n_evals: int  # points at which the value oracle was evaluated


@dataclass
class ProxStep:
    k: int
    tau: float
    from_point: np.ndarray
    to_point: np.ndarray
    f_from: float
    f_to: float
    dist: float
    slope_to: float
    n_candidates: int
    de_giorgi: float = math.nan
    certified: bool = True  # ResolventResult.certified of the step's resolvent
    n_evals: int = 0  # objective evaluations spent by the resolvent


@dataclass
class ProxSequence:
    steps: List[ProxStep]
    points: np.ndarray  # (N+1, dim) iterates, row 0 = x0
    fs: np.ndarray
    dists: np.ndarray  # dists[k] = step into iterate k, dists[0] = 0
    slopes: np.ndarray
    dg_residuals: np.ndarray  # nan where not computed
    taus: np.ndarray
    stop_reason: str
    terminated_at: Optional[int]  # first k with f_k <= stop_f_tol
    policy: str
    x0: np.ndarray

    @property
    def n_iterates(self) -> int:
        return self.fs.size


# ---------------------------------------------------------------------------
# resolvent


def _phi(f: Functional, x: np.ndarray, tau: float):
    def phi(z: np.ndarray) -> float:
        diff = z - x
        return f.value(z) + float(diff @ diff) / (2.0 * tau)

    return phi


def _phi_batch(f: Functional, xval: float, tau: float):
    """``_phi`` on a 1-d grid, with the scalar operation order."""

    def phi(grid: np.ndarray) -> np.ndarray:
        diff = grid - xval
        return f.values(grid[:, None]) + (diff * diff) / (2.0 * tau)

    return phi


def _phi_1d(f: Functional, xval: float, tau: float):
    """phi at a float z, and f at each z it saw: no point is evaluated twice."""
    f_at: Dict[float, float] = {}

    def phi(z: float) -> float:
        if z not in f_at:
            f_at[z] = f.value(np.array([z]))
        return f_at[z] + (z - xval) * (z - xval) / (2.0 * tau)

    return phi, f_at


def _phi_gradient(f: Functional, x: np.ndarray, tau: float):
    """grad phi(z) = grad f(z) + (z - x)/tau, with ``core.fd_gradient`` for
    grad f where ``f.gradient`` is None (no oracle, or a kink)."""

    def grad(z: np.ndarray) -> np.ndarray:
        g = f.gradient(z)
        return (fd_gradient(f, z) if g is None else g) + (z - x) / tau

    return grad


def _counted(f: Functional) -> Tuple[Functional, List[int]]:
    """``f`` with every point its value oracle sees counted in a one-item list."""
    count = [0]

    def value(z):
        count[0] += 1
        return f.value(z)

    def batch_value(zs):
        count[0] += len(zs)
        return f.values(zs)

    return dataclasses.replace(f, value=value, batch_value=batch_value), count


def _psi_1d(f: Functional, xval: float, tau: float):
    """psi = phi' = f' + (z - xval)/tau at a float z, None where f has no
    gradient.

    A float sum is 0 only when it is exact, so where psi reads 0 its sign is
    that of the rounding error of z - xval, which is exact (two-sum) and
    divided by tau.  Without that, psi reads 0 on the floats z next to 0 when
    xval = -tau (z - xval rounds to tau), and a root there stops short of a
    kink at 0.
    """

    def psi(z: float) -> Optional[float]:
        g = f.gradient(np.array([z]))
        if g is None:
            return None
        d = z - xval
        value = float(g[0]) + d / tau
        if value == 0.0:  # two-sum: the rounding error of d
            back = d - z
            value = ((z - (d - back)) + (-xval - back)) / tau
        return value

    return psi


def _refine_1d(
    f: Functional, xval: float, tau: float, grid: np.ndarray, vals: np.ndarray, cand: List[int]
) -> Tuple[List[Tuple[float, float]], Dict[float, float]]:
    """Refine each candidate bracket [grid[i-1], grid[i+1]] of the 1-d scan
    (see the module docstring).  A root is kept if phi there is no worse than
    at grid[i] up to one rounding: a root at a jump of f can be worse.
    Returns (phi(z), z) per candidate and f at each refined z; no point is
    evaluated twice.
    """
    phi, f_at = _phi_1d(f, xval, tau)
    # the tried brackets share their ends, so each z is probed once
    psi = functools.lru_cache(maxsize=None)(_psi_1d(f, xval, tau))

    refined = []
    for i in cand:
        lo, mid, hi = grid[max(i - 1, 0)], grid[i], grid[min(i + 1, grid.size - 1)]
        # the whole bracket first; a kink between grid[i] and an end can
        # hide the sign change there, so the halves are tried next
        for a, b in ((lo, hi), (lo, mid), (mid, hi)):
            z = float_root(psi, float(a), float(b))
            if z is not None:
                break
        if z is not None and phi(z) > vals[i] + 4e-16 * (1.0 + abs(vals[i])):
            z = None
        if z is None:
            z, _, _ = golden_section(phi, lo, hi, 2.0 * EPS * max(1.0, abs(lo), abs(hi)))
        refined.append((phi(z), z))
    return refined, f_at


def _tied_minimisers(ranked: List[Tuple[float, np.ndarray]], point_tol: float):
    """Best value of ``ranked`` (sorted by value), distinct tied points sorted.

    Points within ``point_tol`` (1 + |z|) of a kept point are not distinct.
    """
    best = ranked[0][0]
    points: List[np.ndarray] = []
    for val, z in ranked:
        if val > best + OBJECTIVE_TIE_TOL * (1.0 + abs(best)):
            continue
        if all(
            norm(z - w) > point_tol * (1.0 + norm(z))
            for w in points
        ):
            points.append(z)
    points.sort(key=tuple)
    return best, points


def resolvent(
    f: Functional, x, tau: float, controls: Optional[ProxControls] = None
) -> ResolventResult:
    """All minimisers of z -> f(z) + |z - x|^2 / (2 tau), up to value ties."""
    c = controls or ProxControls()
    x = as_point(x)
    if tau <= 0:
        raise ValueError("tau must be positive")
    fx = f.value(x)
    if not np.isfinite(fx) or fx < 0:
        raise ValueError("resolvent needs a finite nonnegative f(x)")
    if fx == 0.0:
        return ResolventResult([x.copy()], 0.0, [0.0], True, 1)
    radius = math.sqrt(2.0 * tau * fx) * (1.0 + BOX_SLACK)
    # mu = lambda + 1/tau (-inf with no modulus); mu > 0 makes phi mu-strongly
    # convex: one minimiser, and |grad phi(z)| / mu bounds the distance to it
    mu = -INF if f.convexity is None else f.convexity + 1.0 / tau

    if x.size == 1 and mu > 0:
        xval = float(x[0])
        lo, hi = xval - radius, xval + radius
        phi_1d, f_at = _phi_1d(f, xval, tau)
        z = float_root(_psi_1d(f, xval, tau), lo, hi)
        if z is None:
            # f >= 0 gives phi(x) < radius^2/(2 tau) <= phi(x +- radius), so
            # the strongly convex phi is unimodal on the box
            z, _, _ = golden_section(phi_1d, lo, hi, 2.0 * EPS * max(1.0, abs(lo), abs(hi)))
        objective = phi_1d(z)
        return ResolventResult([np.array([z])], objective, [f_at[z]], True, 1 + len(f_at))

    f, n_evals = _counted(f)
    phi = _phi(f, x, tau)
    if x.size == 1:
        xval = float(x[0])
        scan = dense_scan(_phi_batch(f, xval, tau), xval - radius, xval + radius, c.n_grid)
        grid, vals = scan.grid, scan.values
        best_grid = vals.min()
        cand = [
            i for i in scan.basins if vals[i] <= best_grid + 1e-6 * (1.0 + abs(best_grid))
        ]
        refined, f_at = _refine_1d(f, xval, tau, grid, vals, cand)
        refined.sort()
        best, points = _tied_minimisers(
            [(val, np.array([z])) for val, z in refined], POINT_TIE_TOL
        )
        return ResolventResult(
            points, float(best), [f_at[float(p[0])] for p in points], True, 1 + n_evals[0]
        )

    grad = _phi_gradient(f, x, tau)
    if mu > 0:
        # one descent from x; it stops where rounding hides phi's decrease,
        # and |grad phi(z)| / mu certifies z if grad f(z) exists
        z, objective = descend(phi, grad, x, 1.0 / mu)
        g = f.gradient(z)
        bound = INF if g is None else norm(g + (z - x) / tau) / mu
        certified = bound <= POINT_TIE_TOL * (1.0 + norm(z))
        return ResolventResult([z], objective, [f.value(z)], certified, 1 + n_evals[0])

    # no modulus: a descent from x and from each of N_STARTS points of the box
    found: List[Tuple[float, np.ndarray]] = []
    for s in [x] + list(ball_sample(x, radius, N_STARTS)):
        z, val = descend(phi, grad, s, tau)
        found.append((val, z))
    found.sort(key=lambda p: p[0])
    best, points = _tied_minimisers(found, MULTISTART_TIE_TOL)
    return ResolventResult(
        points, best, [f.value(p) for p in points], False, 1 + n_evals[0]
    )


# ---------------------------------------------------------------------------
# sequence


def _picked(res: ResolventResult, policy: str, x) -> Tuple[np.ndarray, float]:
    """The minimiser ``policy`` picks from ``res``, with its f value from ``res``."""
    z = pick_branch(res.points, policy, x)
    return z, next(fz for p, fz in zip(res.points, res.f_values) if p is z)


def tau_schedule(
    tau: Union[float, Sequence[float]], n_steps: Optional[int], max_steps: int
) -> List[float]:
    """The per-step taus of a prox run: a scalar tau repeated ``n_steps``
    times, or a non-empty list whose length ``n_steps`` (if given) must match.

    Each tau must be a positive finite number and ``n_steps`` a positive
    integer; strings and bools are rejected, not converted.  A schedule
    longer than ``max_steps`` is rejected before it is built.
    """
    if n_steps is not None:
        check_int("n_steps", n_steps)
    scalar = np.isscalar(tau)
    if scalar and n_steps is None:
        raise ValueError("n_steps required with scalar tau")
    length = int(n_steps) if scalar else len(tau)
    if length == 0:
        raise ValueError("the tau schedule is empty")
    if not scalar and n_steps is not None and n_steps != length:
        raise ValueError("n_steps disagrees with the tau schedule length")
    if length > max_steps:
        raise ValueError(
            f"the schedule has {length} steps, more than max_steps={max_steps}"
        )
    if scalar:
        return [check_real("tau", tau)] * length
    return [check_real("tau", t) for t in tau]


def run_prox_sequence(
    f: Functional,
    x0,
    tau: Union[float, Sequence[float]],
    n_steps: Optional[int] = None,
    controls: Optional[ProxControls] = None,
) -> ProxSequence:
    """Iterate the resolvent from x0 with constant or per-step tau."""
    c = controls or ProxControls()
    x = as_point(x0)
    taus = tau_schedule(tau, n_steps, c.max_steps)
    points = [x.copy()]
    fs = [f.value(x)]
    dists = [0.0]
    slopes = [descending_slope(f, x, fx=fs[0]).value]
    dgs = [math.nan]
    steps: List[ProxStep] = []
    used_taus: List[float] = []
    stop_reason = "step-budget"
    terminated_at: Optional[int] = 0 if fs[0] <= c.stop_f_tol else None
    if terminated_at is not None:
        stop_reason = "f-tolerance"
    else:
        for k, t in enumerate(taus):
            res = resolvent(f, x, t, c)
            z, fz = _picked(res, c.policy, x)
            d = norm(z - x)
            sl = descending_slope(f, z, fx=fz).value
            dg = math.nan
            if c.compute_de_giorgi:
                dg = de_giorgi_residual(f, x, t, controls=c).residual
            steps.append(
                ProxStep(
                    k=k + 1,
                    tau=t,
                    from_point=x.copy(),
                    to_point=z.copy(),
                    f_from=fs[-1],
                    f_to=fz,
                    dist=d,
                    slope_to=sl,
                    n_candidates=len(res.points),
                    de_giorgi=dg,
                    certified=res.certified,
                    n_evals=res.n_evals,
                )
            )
            used_taus.append(t)
            points.append(z.copy())
            fs.append(fz)
            dists.append(d)
            slopes.append(sl)
            dgs.append(dg)
            x = z
            if fz <= c.stop_f_tol:
                terminated_at = k + 1
                stop_reason = "f-tolerance"
                break
            if d <= c.stall_tol:
                stop_reason = "stall"
                break
    return ProxSequence(
        steps=steps,
        points=np.vstack(points),
        fs=np.array(fs),
        dists=np.array(dists),
        slopes=np.array(slopes),
        dg_residuals=np.array(dgs),
        taus=np.array(used_taus),
        stop_reason=stop_reason,
        terminated_at=terminated_at,
        policy=c.policy,
        x0=as_point(x0),
    )


def check_step_monotonicity(step: ProxStep) -> dict:
    """Per-step inequalities every exact resolvent step satisfies.

    value drop: f(z) <= f(x); variational drop: f(z) + d^2/(2 tau) <= f(x);
    stationarity: tau |df|(z) <= d whenever the slope at z is finite.  Each
    holds up to ``MONOTONICITY_TOL``.
    """
    out = {
        "value_decrease": step.f_to <= step.f_from + MONOTONICITY_TOL,
        "variational_decrease": step.f_to + step.dist**2 / (2.0 * step.tau)
        <= step.f_from + MONOTONICITY_TOL,
        "variational_margin": step.f_from
        - step.f_to
        - step.dist**2 / (2.0 * step.tau),
    }
    if np.isfinite(step.slope_to):
        out["stationarity"] = step.tau * step.slope_to <= step.dist + MONOTONICITY_TOL
        out["stationarity_margin"] = step.dist - step.tau * step.slope_to
        if not out["stationarity"] and step.f_to <= 1e-12 * (1.0 + abs(step.f_from)):
            # the step reached the bottom of the value range; a point this
            # close to a minimiser can carry a discontinuous sampled slope
            # while the exact landing point has slope zero
            out["stationarity"] = True
    else:
        out["stationarity"] = False
        out["stationarity_margin"] = -INF
    return out


# ---------------------------------------------------------------------------
# De Giorgi variational interpolation


@dataclass
class DeGiorgiReport:
    residual: float  # f(z) + d^2/(2 tau) + integral - f(x), signed
    value_term: float
    distance_term: float
    integral_term: float
    z: np.ndarray
    tau: float
    n_evals: int


def de_giorgi_residual(
    f: Functional,
    x,
    tau: float,
    controls: Optional[ProxControls] = None,
) -> DeGiorgiReport:
    """Residual of the interpolation identity for one resolvent step:

        f(z_tau) + d(x, z_tau)^2/(2 tau)
            + int_0^tau d(x, z_s)^2 / (2 s^2) ds  =  f(x).

    The integral is split into dyadic panels [tau 2^-(j+1), tau 2^-j], each
    integrated by ``core.gauss_legendre``; the remaining head below the innermost
    panel has the same length and an integrand converging to a constant
    (half the squared slope at x), so it is estimated by repeating the
    innermost panel's value.
    """
    c = controls or ProxControls()
    inner = ProxControls(n_grid=DE_GIORGI_GRID, policy=c.policy)
    x = as_point(x)
    fx = f.value(x)
    if fx == 0.0:
        return DeGiorgiReport(0.0, 0.0, 0.0, 0.0, x.copy(), tau, 1)
    n_evals = 0

    def z_at(s: float) -> np.ndarray:
        nonlocal n_evals
        res = resolvent(f, x, s, inner)
        n_evals += res.n_evals
        return pick_branch(res.points, c.policy, x)

    def integrand(s: float) -> float:
        ds = norm(z_at(s) - x)
        return ds * ds / (2.0 * s * s)

    z_tau = z_at(tau)
    d_tau = norm(z_tau - x)
    integral = 0.0
    for j in range(DE_GIORGI_PANELS):
        panel_val = gauss_legendre(integrand, tau * 2.0 ** (-(j + 1)), tau * 2.0 ** (-j))
        integral += panel_val
    integral += panel_val  # head estimate, see docstring
    value_term = f.value(z_tau)
    distance_term = d_tau * d_tau / (2.0 * tau)
    residual = value_term + distance_term + integral - fx
    return DeGiorgiReport(
        residual=float(residual),
        value_term=float(value_term),
        distance_term=float(distance_term),
        integral_term=float(integral),
        z=z_tau,
        tau=tau,
        n_evals=n_evals,
    )


def one_step_decay_check(
    f: Functional,
    x,
    tau: float,
    pf: ParameterFunction,
    controls: Optional[ProxControls] = None,
) -> dict:
    """Margin of the conditioned one-step decay f(x) - f(z) >= tau/theta'(f(z))^2."""
    c = controls or ProxControls()
    x = as_point(x)
    z, fz = _picked(resolvent(f, x, tau, c), c.policy, x)
    fx = f.value(x)
    if fz > 0:
        rhs = tau / pf.theta_deriv(fz) ** 2
    else:
        rhs = tau / pf.theta_deriv(1e-300) ** 2 if pf.gamma == 1.0 else 0.0
    lhs = fx - fz
    return {
        "lhs": float(lhs),
        "rhs": float(rhs),
        "margin": float(lhs - rhs),
        "holds": bool(lhs >= rhs - 1e-9),
        "z": z,
    }


# ---------------------------------------------------------------------------
# error-bound (distance to sublevel set) check


def ioffe_distance_check(
    f: Functional,
    x,
    delta: float,
    v: float,
) -> dict:
    """Check d(x, {f <= delta}) <= (f(x) - delta)/v by exhaustive 1-d scan.

    The scan covers ``IOFFE_GRID`` points of x +- 4 (f(x) - delta)/v, and
    the bound holds up to ``IOFFE_TOL``.

    v must lower-bound the slope on the strip {delta < f <= f(x)} near x for
    the bound to be a theorem; the empirical strip minimum of the sampled
    slope is reported alongside so callers can audit that premise.
    """
    x = as_point(x)
    if x.size != 1:
        raise ValueError("the scan-based check is one dimensional")
    fx = f.value(x)
    if not (fx > delta):
        return {"distance": 0.0, "bound": 0.0, "margin": 0.0, "holds": True}
    if v <= 0:
        raise ValueError("v must be positive")
    xval = float(x[0])
    bound = (fx - delta) / v
    scan = dense_scan(
        lambda g: f.values(g[:, None]), xval - 4.0 * bound, xval + 4.0 * bound, IOFFE_GRID
    )
    grid, vals = scan.grid, scan.values
    below = vals <= delta
    strip = (delta < vals) & (vals <= fx) & (np.abs(grid - xval) <= bound + IOFFE_TOL)
    dist = INF
    strip_slope = descending_slopes(f, grid[strip, None], vals[strip])[0].min(initial=INF)
    for i in np.flatnonzero(below):
        g = grid[i]
        cand = abs(g - xval)
        # sharpen across the crossing cell when a neighbour is above level
        for jn in (i - 1, i + 1):
            if 0 <= jn < IOFFE_GRID and not below[jn]:
                # f - delta, signed to be negative at the end below level
                side = 1.0 if jn > i else -1.0
                root = float_root(
                    lambda z: side * (f.value(np.array([z])) - delta),
                    float(min(g, grid[jn])), float(max(g, grid[jn])),
                )
                if root is not None:
                    cand = min(cand, abs(root - xval))
        dist = min(dist, cand)
    return {
        "distance": float(dist),
        "bound": float(bound),
        "margin": float(bound - dist),
        "holds": bool(dist <= bound + IOFFE_TOL),
        "strip_slope_min": float(strip_slope),
    }


# ---------------------------------------------------------------------------
# the decay recursion u_{k+1} + alpha u_{k+1}^delta <= u_k


@dataclass(frozen=True)
class RecursiveBoundParams:
    alpha: float
    delta: float
    f0: float
    poly_c: Optional[float] = None  # delta > 1 polynomial constant
    alpha_tilde: Optional[float] = None  # delta < 1 geometric rate
    u_star: Optional[float] = None  # delta < 1 fixed scale alpha^(1/(1-delta))
    k0: Optional[int] = None  # delta < 1 doubly-exponential entry index


def recursive_bound_params(alpha: float, delta: float, f0: float) -> RecursiveBoundParams:
    """Derive the bound constants for u_{k+1} + alpha u_{k+1}^delta <= u_k.

    delta > 1: polynomial constant C = sup over R in (1, POLY_R_MAX] of
    min(alpha (delta - 1)/R, (R^((delta-1)/delta) - 1) f0^(1-delta)), found
    by golden-section (the first branch falls, the second rises, so their
    minimum is unimodal).  delta < 1: uniform geometric rate alpha_tilde =
    alpha f0^(delta-1), scale u* = alpha^(1/(1-delta)), and the entry index
    k0 after which the normalised sequence stays below 1/2 and squares away.
    """
    if alpha <= 0 or delta <= 0 or f0 <= 0:
        raise ValueError("alpha, delta, f0 must be positive")
    if delta == 1.0:
        return RecursiveBoundParams(alpha, delta, f0)
    if delta > 1.0:

        def branch(r: float) -> float:
            return min(
                alpha * (delta - 1.0) / r,
                (r ** ((delta - 1.0) / delta) - 1.0) * f0 ** (1.0 - delta),
            )

        _, a, b = golden_section(lambda r: -branch(r), 1.0 + 1e-12, POLY_R_MAX, 1e-10)
        return RecursiveBoundParams(alpha, delta, f0, poly_c=branch(0.5 * (a + b)))
    u_star = alpha ** (1.0 / (1.0 - delta))
    alpha_tilde = alpha * f0 ** (delta - 1.0)
    if f0 <= 0.5 * u_star:
        k0 = 0
    else:
        k0 = int(math.ceil(math.log(2.0 * f0 / u_star) / math.log1p(alpha_tilde)))
    return RecursiveBoundParams(
        alpha, delta, f0, alpha_tilde=alpha_tilde, u_star=u_star, k0=k0
    )


def recursive_bound(params: RecursiveBoundParams, k: int) -> float:
    """Closed-form upper bound for the k-th term of the recursion."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    a, d, f0 = params.alpha, params.delta, params.f0
    if d == 1.0:
        return f0 * (1.0 + a) ** (-k)
    if d > 1.0:
        beta = d - 1.0
        return (f0 ** (-beta) + params.poly_c * k) ** (-1.0 / beta)
    geo = f0 * (1.0 + params.alpha_tilde) ** (-k)
    if k < params.k0:
        return geo
    m = k - params.k0
    # the inner power of two grows without bound; once it exceeds the float
    # range 2**-inner underflows to the correct limit 0.0
    log_inner = -m * math.log(d)
    inner = math.inf if log_inner > 709.0 else math.exp(log_inner)
    dexp = params.u_star * math.pow(2.0, -inner)
    return min(geo, dexp)


def recursion_equality_sequence(params: RecursiveBoundParams, n: int) -> np.ndarray:
    """Extremal sequence solving u_{k+1} + alpha u_{k+1}^delta = u_k exactly.

    Closed stable forms for delta in {1/2, 1, 2}, otherwise a sign change
    of u + alpha u^delta - u_k at adjacent floats of [0, u_k].
    """
    a, d = params.alpha, params.delta
    out = np.empty(n + 1)
    out[0] = params.f0
    for k in range(n):
        prev = float(out[k])
        if prev <= 0.0:
            out[k + 1] = 0.0
            continue
        if d == 1.0:
            out[k + 1] = prev / (1.0 + a)
        elif d == 0.5:
            s = 2.0 * prev / (a + math.sqrt(a * a + 4.0 * prev))
            out[k + 1] = s * s
        elif d == 2.0:
            out[k + 1] = 2.0 * prev / (1.0 + math.sqrt(1.0 + 4.0 * a * prev))
        else:
            root = float_root(lambda u: u + a * u**d - prev, 0.0, prev)
            # None only when alpha prev^delta is lost in prev + alpha prev^delta:
            # then prev itself solves the equation in floats
            out[k + 1] = prev if root is None else root
    return out


# ---------------------------------------------------------------------------
# certificates along a prox sequence


def _flag_uncertified(
    seq: ProxSequence, certs: List[RateCertificate]
) -> List[RateCertificate]:
    """Record in each certificate how many of the sequence's steps rest on an
    uncertified resolvent (``ProxStep.certified`` False)."""
    uncertified = sum(not s.certified for s in seq.steps)
    for cert in certs:
        cert.details["uncertified_steps"] = uncertified
    return certs


def certify_rates_discrete(
    seq: ProxSequence,
    pf: ParameterFunction,
    x0=None,
    r: Optional[float] = None,
    alpha: Optional[float] = None,
    tol: float = DEFAULT_CERT_TOL,
) -> List[RateCertificate]:
    """Distance and decay certificates for a conditioned prox sequence.

    Emits the pairwise theta-distance bound d(y_i, y_j) <= theta(f_i) -
    theta(f_j), the tail bound d(y_k, y_last) <= theta(f_k), confinement in
    the anchor ball when (x0, r) are given, and with a ratio constant alpha
    the geometric bounds f_k <= prod (1 + alpha tau_i)^-1 f_0 and
    d(y_k, y_last) <= r prod (1 + alpha tau_i)^-1/2.  Each certificate's
    details record ``uncertified_steps``, the steps whose resolvent was not
    certified.
    """
    fs = seq.fs
    pts = seq.points
    n = fs.size
    ks = np.arange(n, dtype=float)
    t_star = float(seq.terminated_at) if seq.terminated_at is not None else float(n - 1)
    theta_f = np.array([pf.theta(max(v, 0.0)) for v in fs])
    dlast = row_norms(pts - pts[-1])
    certs: List[RateCertificate] = []
    cert = certificate(
        "discrete-theta-distance",
        ks,
        theta_f[0] - theta_f,
        row_norms(pts - pts[0]),
        t_star,
        tol,
        {"pairs": n * (n - 1) // 2, "pairs_sampled": False},
        margin=theta_distance_margin(theta_f, pts),
    )
    certs.append(cert)

    certs.append(
        certificate(
            "discrete-theta-tail", ks[:-1], theta_f[:-1], dlast[:-1], t_star, tol
        )
    )

    if x0 is not None and r is not None:
        d0 = row_norms(pts - as_point(x0))
        certs.append(
            certificate(
                "discrete-confinement", ks, np.full(n, float(r)), d0, t_star, tol,
                {"theta_budget": float(theta_f[0])},
            )
        )

    if alpha is not None:
        factors = np.ones(n)
        for k, t in enumerate(seq.taus):
            if k + 1 < n:
                factors[k + 1] = factors[k] / (1.0 + alpha * t)
        certs.append(
            certificate(
                "discrete-geometric", ks, fs[0] * factors, fs, t_star, tol,
                {"alpha": float(alpha)},
            )
        )
        if r is not None:
            certs.append(
                certificate(
                    "discrete-geometric-distance",
                    ks,
                    float(r) * np.sqrt(factors),
                    dlast,
                    t_star,
                    tol,
                    {"alpha": float(alpha), "limit_proxy": "last iterate"},
                )
            )
    return _flag_uncertified(seq, certs)


def certify_power_rates_discrete(
    seq: ProxSequence,
    c: float,
    gamma: float,
    r: Optional[float] = None,
    tol: float = DEFAULT_CERT_TOL,
) -> List[RateCertificate]:
    """Regime-split decay certificates for theta(u) = (c/gamma) u^gamma.

    gamma = 1: finite termination within ceil(c r / tau) steps plus the
    linear bound f_k <= max(f_0 - k tau/c^2, 0).  gamma in (1/2, 1):
    geometric with rate (tau/c^2) f_0^(1-2 gamma), then doubly exponential
    from the entry index k0 (a sequence that stopped at f = 0 before k0 is
    checked at row k0 with f = 0, where it would have stayed).  gamma =
    1/2: plain geometric.  gamma < 1/2: polynomial.  All regimes also get
    the distance tail d(y_k, y_last) <= theta(bound_k).  Each
    certificate's details record ``uncertified_steps`` as in
    ``certify_rates_discrete``.
    """
    c = float(c)
    gamma = float(gamma)
    if not (0.0 < gamma <= 1.0) or c <= 0:
        raise ValueError("need c > 0 and gamma in (0, 1]")
    fs = seq.fs
    n = fs.size
    ks = np.arange(n, dtype=float)
    t_star = float(seq.terminated_at) if seq.terminated_at is not None else float(n - 1)
    certs: List[RateCertificate] = []
    if seq.taus.size == 0:
        return _flag_uncertified(
            seq, [skipped_certificate("discrete-power", t_star, tol, "empty sequence")]
        )
    tau = float(seq.taus[0])
    if not np.allclose(seq.taus, tau):
        return _flag_uncertified(
            seq,
            [
                skipped_certificate(
                    "discrete-power", t_star, tol,
                    "regime bounds assume a constant step size",
                )
            ],
        )
    alpha_rec = tau / (c * c)
    dlast = row_norms(seq.points - seq.points[-1])

    if gamma == 1.0:
        pred_lin = np.maximum(fs[0] - ks * alpha_rec, 0.0)
        if r is None:
            certs.append(
                skipped_certificate(
                    "finite-termination", t_star, tol, "needs the anchor radius"
                )
            )
        else:
            k_bound = int(math.ceil(c * float(r) / tau - 1e-12))
            if seq.terminated_at is None and n - 1 < k_bound:
                certs.append(
                    skipped_certificate(
                        "finite-termination", t_star, tol,
                        "sequence stopped before the termination bound",
                    )
                )
            else:
                # a run past the bound that never terminated observes k = inf
                obs = INF if seq.terminated_at is None else float(seq.terminated_at)
                certs.append(
                    certificate(
                        "finite-termination",
                        np.array([0.0]),
                        np.array([float(k_bound)]),
                        np.array([obs]),
                        t_star,
                        tol,
                        {"k_bound": k_bound, "linear_margin": float((pred_lin - fs).min())},
                    )
                )
        bounds = pred_lin
    else:
        params = recursive_bound_params(alpha_rec, 2.0 - 2.0 * gamma, float(fs[0]))
        bounds = np.array([recursive_bound(params, int(k)) for k in range(n)])
        if gamma == 0.5:
            certs.append(
                certificate(
                    "discrete-geometric", ks, bounds, fs, t_star, tol,
                    {"rate": 1.0 + alpha_rec},
                )
            )
        elif gamma > 0.5:
            geo = np.array(
                [params.f0 * (1.0 + params.alpha_tilde) ** (-k) for k in range(n)]
            )
            certs.append(
                certificate(
                    "discrete-geometric", ks, geo, fs, t_star, tol,
                    {"rate": 1.0 + params.alpha_tilde},
                )
            )
            kk = np.arange(params.k0, n)
            observed = fs[kk]
            if kk.size == 0 and fs[-1] == 0.0:
                # a resolvent at f = 0 returns its input, so the sequence
                # continued would observe f = 0 at row k0 and every later row
                kk, observed = np.array([params.k0]), np.zeros(1)
            if kk.size:
                certs.append(
                    certificate(
                        "discrete-doubly-exponential",
                        kk.astype(float),
                        np.array([recursive_bound(params, int(k)) for k in kk]),
                        observed,
                        t_star,
                        tol,
                        {"k0": params.k0, "u_star": params.u_star},
                    )
                )
            else:
                certs.append(
                    skipped_certificate(
                        "discrete-doubly-exponential", t_star, tol,
                        f"sequence ends before the entry index k0={params.k0}",
                    )
                )
        else:
            certs.append(
                certificate(
                    "discrete-polynomial", ks, bounds, fs, t_star, tol,
                    {"poly_c": params.poly_c, "exponent": 1.0 / (params.delta - 1.0)},
                )
            )
    theta_bounds = np.array([(c / gamma) * b**gamma for b in bounds])
    certs.append(
        certificate(
            "discrete-distance-power", ks, theta_bounds, dlast, t_star, tol,
            {"limit_proxy": "last iterate"},
        )
    )
    return _flag_uncertified(seq, certs)


def limit_diagnostics(seq: ProxSequence) -> dict:
    """Summary of where the iterate sequence settled."""
    path_length = float(seq.dists.sum())
    return {
        "limit_point": seq.points[-1].copy(),
        "f_limit": float(seq.fs[-1]),
        "path_length": path_length,
        "direct_distance": norm(seq.points[-1] - seq.points[0]),
        "stop_reason": seq.stop_reason,
        "terminated_at": seq.terminated_at,
        "n_iterates": seq.n_iterates,
    }


def sequence_table(seq: ProxSequence) -> dict:
    """The columns ``k,x_1..x_n,f,dist_step,slope,de_giorgi_residual`` of the iterates."""
    return {
        "k": range(seq.n_iterates),
        **{f"x_{i + 1}": col for i, col in enumerate(seq.points.T)},
        "f": seq.fs,
        "dist_step": seq.dists,
        "slope": seq.slopes,
        "de_giorgi_residual": seq.dg_residuals,
    }


def sequence_to_csv(seq: ProxSequence, path, shared: Optional[SharedColumns] = None) -> None:
    """Write the iterates' ``sequence_table``.

    ``shared`` holds the columns that other files of the run repeat.
    """
    write_csv(path, sequence_table(seq), shared)
