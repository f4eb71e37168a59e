"""Steepest-descent trajectories and their decay-rate certificates.

The integrator follows the negative gradient with adaptive explicit steps
(step ~ SAFETY * f / |grad f|^2, capped at DT_MAX), which resolves the
natural decay time scale and shrinks automatically near kink minima so the
iterates absorb there instead of oscillating.  Steps are accepted only if the objective
decreases and the observed dissipation matches the trapezoidal prediction;
a rejected step triggers a halving Euler walk that pins the obstruction
(value jump or gradient break) to a point, where a new segment is glued on.
Multi-segment outputs are concatenations of descent arcs sharing endpoints,
not single maximal-slope curves; they are flagged as glued and the
certificates stated for them are the confinement/limit/telescoped bounds.

Certificates compare sampled trajectory data against the closed-form decay
bounds induced by a parameter function theta and its derived maps eta and
Gamma; ``klflow.certificates`` builds them from the sampled series.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .certificates import (
    DEFAULT_CERT_TOL, RateCertificate, certificate, min_margin, skipped_certificate,
    theta_distance_margin,
)
from .conditions import ConditionReport
from .core import (
    FLOW_POLICIES, INF, Functional, SharedColumns, as_point, check_int, check_policy,
    check_real, fd_gradient, norm, pick_branch, row_norms, write_csv,
)
from .sampling import unit_directions
from .slope import descending_slope
from .theta import ParameterFunction, eta_eval, gamma_eval


BUDGET = 40.0  #: time horizon of a budget-mode run (t_end None or inf)
DT_MAX = 0.01  #: cap on the adaptive step SAFETY * max(f, F_TOL) / |grad f|^2
SAFETY = 0.1
F_TOL = 1e-12  #: absorption threshold for "f reached zero"
EQUILIBRIUM_SLOPE_TOL = 1e-9  #: best probed descent rate of an equilibrium
JUMP_FACTOR = 10.0  #: gradient-norm ratio that flags a break
REVERSAL_COS = -0.25  #: gradient direction reversal flag
DISSIPATION_REL = 0.25  #: relative tolerance on the predicted decrease
EVENT_DT_FLOOR = 1e-9  #: event-walk step at which an obstruction is pinned
KINK_KICK = 1e-9  #: displacement used to leave a descent kink, times max(1, |x|)
PROBE_DELTA = 1e-7  #: one-sided probe length at a kink, times max(1, |x|)
PAIR_COUNT = 40  #: samples whose pairs the theta-distance certificate checks


@dataclass
class FlowControls:
    policy: str = "positive-branch"  # see core.pick_branch
    fixed_dt: Optional[float] = None  # fixed-step mode (convergence studies)
    max_steps: int = 2_000_000

    def __post_init__(self) -> None:
        check_policy(self.policy, FLOW_POLICIES)
        if self.fixed_dt is not None:
            check_real("fixed_dt", self.fixed_dt)
        check_int("max_steps", self.max_steps)


@dataclass
class Trajectory:
    ts: np.ndarray  # (N,)
    xs: np.ndarray  # (N, dim)
    fs: np.ndarray  # (N,)
    slopes: np.ndarray  # (N,)
    speeds: np.ndarray  # (N,)
    segments: np.ndarray  # (N,) int segment ids
    x0: np.ndarray
    t_end: float
    segment_boundaries: List[float]
    limit_point: Optional[np.ndarray]
    t_star: Optional[float]  # first time f <= f_tol, None if never reached
    absorbed: bool
    equilibrium: bool
    glued: bool
    budget_mode: bool
    f_tol: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def n_samples(self) -> int:
        return self.ts.size

    def state_at(self, t: float) -> Tuple[np.ndarray, float]:
        """Linear interpolation of (position, value) at time t."""
        ts = self.ts
        if t <= ts[0]:
            return self.xs[0].copy(), float(self.fs[0])
        if t >= ts[-1]:
            return self.xs[-1].copy(), float(self.fs[-1])
        j = int(np.searchsorted(ts, t))
        w = (t - ts[j - 1]) / (ts[j] - ts[j - 1])
        x = (1 - w) * self.xs[j - 1] + w * self.xs[j]
        fv = (1 - w) * self.fs[j - 1] + w * self.fs[j]
        return x, float(fv)


@dataclass
class EdeReport:
    residuals: np.ndarray  # (m, 2): t, |  -df/dt - sp^2/2 - sl^2/2 |
    max_residual: float
    equality_residuals: np.ndarray  # (m, 2): t, spread of {-df/dt, sp^2, sl^2}
    max_equality_residual: float
    n_interior: int


# ---------------------------------------------------------------------------
# integration


def _gradient_fn(f: Functional) -> Callable:
    if f.smooth_gradient is not None:
        return f.gradient
    return lambda x: fd_gradient(f, x)


def _probe_direction(
    f: Functional, x: np.ndarray, fx: float, c: FlowControls
) -> Tuple[float, np.ndarray]:
    """One-sided descent probes around a nonsmooth point.

    Returns the best descent rate and its direction, ties broken by the
    branch policy.
    """
    delta = PROBE_DELTA * max(1.0, norm(x))
    dirs = unit_directions(x.size, 16)
    rates = (fx - f.values(x + delta * dirs)) / delta
    best = rates.max()
    tied = dirs[rates >= best - 1e-9 * (1.0 + abs(best))]
    return best, np.array(pick_branch(tied, c.policy))


def _squares(g: Optional[np.ndarray]) -> Tuple[float, float]:
    """g.g and ``norm(g)`` of a gradient, bit for bit; zeros where there is none."""
    if g is None:
        return 0.0, 0.0
    gg = float(g.dot(g))
    return gg, math.sqrt(gg)


def _step_checks(
    fx: float,
    g: np.ndarray,
    gn: float,
    fx_new: float,
    g_new: Optional[np.ndarray],
    gn_new: float,
    dt: float,
) -> bool:
    """Whether a step may be taken: f does not rise, the gradient neither
    jumps nor reverses, and the drop matches the trapezoidal dissipation.
    ``gn`` and ``gn_new`` are the norms of ``g`` and ``g_new``."""
    if g_new is None:
        return False
    if fx_new > fx + 1e-12 * (1.0 + abs(fx)):
        return False
    ratio = (gn_new + 1e-15) / (gn + 1e-15)
    if max(ratio, 1.0 / ratio) > JUMP_FACTOR:
        return False
    if gn > 0 and gn_new > 0:
        cosang = float(g @ g_new) / (gn * gn_new)
        if cosang < REVERSAL_COS:
            return False
    drop = fx - fx_new
    predicted = 0.5 * dt * (gn * gn + gn_new * gn_new)
    if abs(drop - predicted) > DISSIPATION_REL * max(drop, predicted) + 1e-12:
        return False
    return True


def _rk4_step(grad: Callable, x: np.ndarray, dt: float, g: np.ndarray):
    k1 = g
    g2 = grad(x - 0.5 * dt * k1)
    if g2 is None:
        return None
    g3 = grad(x - 0.5 * dt * g2)
    if g3 is None:
        return None
    g4 = grad(x - dt * g3)
    if g4 is None:
        return None
    return x - dt / 6.0 * (k1 + 2.0 * g2 + 2.0 * g3 + g4)


def _event_walk(
    f: Functional,
    grad: Callable,
    x: np.ndarray,
    fx: float,
    g: Optional[np.ndarray],
    t: float,
    dt0: float,
    t_end: float,
):
    """Advance with halving Euler steps after a rejected step.

    ``g`` is the gradient at x.  Either escapes (no obstruction inside the
    window: returns glue=None) or pins the obstruction between two points a
    gradient-flow step of size ``EVENT_DT_FLOOR`` apart and returns the far
    side as the glue point ``(x, f(x), gradient, t)``.  The walk's end point
    comes back with its gradient too.
    """
    dt_w = dt0
    advanced = 0.0
    gg, gn = _squares(g)
    while True:
        if g is None or gg <= 1e-26:
            return t, x, fx, g, None
        if t >= t_end - 1e-14 or advanced >= dt0:
            return t, x, fx, g, None
        dt_w = min(dt_w, t_end - t)
        x_try = x - dt_w * g
        fx_try = f.value(x_try)
        g_try = grad(x_try)
        gg_try, gn_try = _squares(g_try)
        if _step_checks(fx, g, gn, fx_try, g_try, gn_try, dt_w):
            t += dt_w
            advanced += dt_w
            x, fx, g, gg, gn = x_try, fx_try, g_try, gg_try, gn_try
            continue
        if dt_w <= EVENT_DT_FLOOR:
            return t, x, fx, g, (x_try, fx_try, g_try, t + dt_w)
        dt_w *= 0.5


def integrate_maximal_slope(
    f: Functional,
    x0,
    t_end: Optional[float] = None,
    controls: Optional[FlowControls] = None,
) -> Trajectory:
    """Integrate the steepest-descent flow of f from x0.

    ``t_end=None`` (or inf) means run on the time budget with early stop once
    f falls below the absorption threshold; after absorption or at an
    equilibrium the trajectory is extended as an exactly constant tail.
    Value jumps and gradient breaks are located by bisection and glued as new
    segments.  The gradient is evaluated once per point: the step from it,
    the step checks and the sample's slope all use that one evaluation.
    """
    c = controls or FlowControls()
    x = as_point(x0)
    budget_mode = t_end is None or t_end == INF
    horizon = BUDGET if budget_mode else float(t_end)
    if not (horizon > 0):
        raise ValueError("time horizon must be positive")
    grad = _gradient_fn(f)
    # the oracle's gradient is also the slope's; a finite-difference one is not
    exact = f.smooth_gradient is not None

    ts: List[float] = []
    xs: List[np.ndarray] = []
    fs: List[float] = []
    slopes: List[float] = []
    segs: List[int] = []
    boundaries: List[float] = []

    def record(tv: float, pt: np.ndarray, fv: float, sg: int, gv: Optional[np.ndarray]) -> None:
        ts.append(tv)
        xs.append(pt.copy())
        fs.append(fv)
        slopes.append(descending_slope(f, pt, fx=fv, g=gv if exact else None).value)
        segs.append(sg)

    t = 0.0
    fx = f.value(x)
    if not np.isfinite(fx):
        raise ValueError("f(x0) must be finite")
    seg = 0
    absorbed = fx <= F_TOL
    # from here on g is the gradient at x, with its g.g and norm; a start
    # that is already absorbed takes no step, so it needs no finite difference
    g = grad(x) if exact or not absorbed else None
    gg, gn = _squares(g)
    record(t, x, fx, seg, g)
    t_star: Optional[float] = 0.0 if absorbed else None
    equilibrium = False
    steps = 0

    while not absorbed and not equilibrium and t < horizon - 1e-14:
        steps += 1
        if steps > c.max_steps:
            break
        if g is None or gg <= 1e-26:
            rate, direction = _probe_direction(f, x, fx, c)
            if rate <= EQUILIBRIUM_SLOPE_TOL:
                equilibrium = True
                break
            kick = KINK_KICK * max(1.0, norm(x))
            x = x + kick * direction
            fx = f.value(x)
            g = grad(x)
            gg, gn = _squares(g)
            t += kick / rate
            record(t, x, fx, seg, g)
            continue
        if c.fixed_dt is not None:
            dt = c.fixed_dt
        else:
            dt = min(DT_MAX, SAFETY * max(fx, F_TOL) / gg)
        remaining = horizon - t
        # stretch the final step rather than leave a sliver of rounding size
        dt = remaining if remaining - dt < 0.5 * dt else min(dt, remaining)
        x_new = _rk4_step(grad, x, dt, g)
        accepted = False
        if x_new is not None:
            fx_new = f.value(x_new)
            g_new = grad(x_new)
            gg_new, gn_new = _squares(g_new)
            if _step_checks(fx, g, gn, fx_new, g_new, gn_new, dt):
                t += dt
                x, fx, g, gg, gn = x_new, fx_new, g_new, gg_new, gn_new
                record(t, x, fx, seg, g)
                accepted = True
        if not accepted:
            t, x, fx, g, glue = _event_walk(f, grad, x, fx, g, t, dt, horizon)
            record(t, x, fx, seg, g)
            if glue is not None:
                x, fx, g, t = glue
                seg += 1
                boundaries.append(t)
                record(t, x, fx, seg, g)
            gg, gn = _squares(g)
        if fx <= F_TOL:
            absorbed = True
            t_star = t

    # constant tail after absorption / equilibrium
    if (absorbed or equilibrium) and t < horizon - 1e-14:
        record(0.5 * (t + horizon), x, fx, seg, g)
        record(horizon, x, fx, seg, g)
        t = horizon

    ts_arr = np.array(ts)
    xs_arr = np.vstack(xs)
    segs_arr = np.array(segs, dtype=int)
    speeds = _sample_speeds(ts_arr, xs_arr, segs_arr)
    return Trajectory(
        ts=ts_arr,
        xs=xs_arr,
        fs=np.array(fs),
        slopes=np.array(slopes),
        speeds=speeds,
        segments=segs_arr,
        x0=as_point(x0),
        t_end=horizon,
        segment_boundaries=boundaries,
        limit_point=xs_arr[-1].copy(),
        t_star=t_star,
        absorbed=absorbed,
        equilibrium=equilibrium,
        glued=len(boundaries) > 0,
        budget_mode=budget_mode,
        f_tol=F_TOL,
        diagnostics={"steps": steps, "policy": c.policy},
    )


def _sample_speeds(ts: np.ndarray, xs: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Difference quotient of each sample over its neighbours in its segment.

    Centred inside a segment, one-sided at its ends, 0 on a lone sample.
    """
    same = segs[1:] == segs[:-1]
    lo = np.arange(ts.size)
    hi = lo.copy()
    lo[1:] -= same
    hi[:-1] += same
    dt = ts[hi] - ts[lo]
    moving = dt > 0
    speeds = np.zeros(ts.size)
    speeds[moving] = row_norms(xs[hi[moving]] - xs[lo[moving]]) / dt[moving]
    return speeds


# ---------------------------------------------------------------------------
# energy dissipation check


def verify_ede(traj: Trajectory) -> EdeReport:
    """Residuals of the dissipation equality -d(f o y)/dt = |y'|^2 = |df|^2.

    Uses centred difference quotients of f on interior samples of each
    segment, and the speeds and slopes recorded on the trajectory there; no
    oracle is called.
    In absorbed runs only triples at or before t* enter: past the absorption
    threshold the tail is frozen by construction and carries no information
    about the arc.  Both the inequality-form residual (against the mean of
    speed^2 and slope^2) and the spread of the three quantities are reported.
    """
    ts, fsv, segs = traj.ts, traj.fs, traj.segments
    dt = ts[2:] - ts[:-2]
    interior = (segs[:-2] == segs[1:-1]) & (segs[2:] == segs[1:-1]) & (dt > 0)
    if traj.absorbed and traj.t_star is not None:
        interior &= ts[2:] <= traj.t_star + 1e-14
    i = np.flatnonzero(interior) + 1
    dt = dt[interior]
    dfdt = (fsv[i + 1] - fsv[i - 1]) / dt
    sp = traj.speeds[i]
    sl = traj.slopes[i]
    resid = np.abs(-dfdt - 0.5 * sp * sp - 0.5 * sl * sl)
    spread = np.ptp([-dfdt, sp * sp, sl * sl], axis=0)
    return EdeReport(
        residuals=np.column_stack((ts[i], resid)),
        max_residual=float(resid.max()) if i.size else 0.0,
        equality_residuals=np.column_stack((ts[i], spread)),
        max_equality_residual=float(spread.max()) if i.size else 0.0,
        n_interior=i.size,
    )


# ---------------------------------------------------------------------------
# certificates


def certify_rates_continuous(
    traj: Trajectory,
    pf: ParameterFunction,
    x0,
    r: float,
    tol: float = DEFAULT_CERT_TOL,
    condition: Optional[ConditionReport] = None,
) -> List[RateCertificate]:
    """Certificates for a trajectory under an anchored slope condition.

    Emits: pairwise theta-distance bound, Gamma bound on the distance to the
    limit, eta bound on the energy, confinement in the anchor ball, the
    explicit exponential forms when theta is the gamma = 1/2 power member,
    and (budget runs with enough horizon) extinction of f at the limit.
    Decreasing-in-time energy bounds are compared on samples with t <= t*.
    """
    x0 = as_point(x0)
    ts, fsv, xs = traj.ts, traj.fs, traj.xs
    t_star = traj.t_star if traj.t_star is not None else float(ts[-1])
    theta_f = np.array([pf.theta(max(v, 0.0)) for v in fsv])
    certified = condition is None or condition.holds
    certs: List[RateCertificate] = []

    # pairwise theta-distance: d(y_s, y_t) <= theta(f(y_s)) - theta(f(y_t))
    idx = np.linspace(0, ts.size - 1, min(PAIR_COUNT, ts.size)).astype(int)  # distinct, sorted
    cert_pairs = certificate(
        "theta-distance",
        ts[idx],
        theta_f[0] - theta_f[idx],
        row_norms(xs[idx] - xs[0]),
        t_star,
        tol,
        {"pairs": idx.size * (idx.size - 1) // 2, "pairs_sampled": idx.size < ts.size,
         "condition_certified": certified},
        margin=theta_distance_margin(theta_f[idx], xs[idx]),
    )
    certs.append(cert_pairs)

    pre_mask = ts <= t_star + 1e-14

    # Gamma bound on distance to the limit
    if traj.limit_point is None:
        certs.append(
            skipped_certificate("gamma-distance", t_star, tol, "missing limit point")
        )
    else:
        try:
            gamma_r = gamma_eval(pf, r)
        except ValueError:
            gamma_r = None
        if gamma_r is None or not np.isfinite(gamma_r):
            certs.append(
                skipped_certificate(
                    "gamma-distance", t_star, tol, "r outside the range of theta"
                )
            )
        else:
            dlim = row_norms(xs[pre_mask] - traj.limit_point)
            obs = np.array([gamma_eval(pf, min(d, r)) for d in dlim])
            pred = gamma_r - ts[pre_mask]
            certs.append(
                certificate(
                    "gamma-distance", ts[pre_mask], pred, obs, t_star, tol,
                    {"gamma_r": gamma_r, "condition_certified": certified},
                )
            )

    # eta bound on the energy
    eta_f0 = eta_eval(pf, float(fsv[0]))
    obs_eta = np.array([eta_eval(pf, max(v, 0.0)) for v in fsv[pre_mask]])
    pred_eta = eta_f0 - ts[pre_mask]
    certs.append(
        certificate(
            "eta-energy", ts[pre_mask], pred_eta, obs_eta, t_star, tol,
            {"eta_f0": eta_f0, "condition_certified": certified},
        )
    )

    # confinement in the closed ball, strictly inside while f > f_tol
    d_anchor = row_norms(xs - x0)
    inside_ok = bool(np.all(d_anchor <= r + 1e-9 * max(1.0, r)))
    live = fsv > traj.f_tol
    strict_margin = float((r - d_anchor[live]).min()) if live.any() else INF
    cert_conf = certificate(
        "confinement", ts, np.full(ts.size, r), d_anchor, t_star, tol,
        {"strict_margin": strict_margin, "condition_certified": certified},
        verdict=inside_ok and strict_margin > 0.0,
    )
    certs.append(cert_conf)

    # explicit exponential forms for the gamma = 1/2 power member
    if pf.family == "power" and pf.gamma == 0.5:
        c2 = pf.c * pf.c
        pred_f = fsv[0] * np.exp(-ts[pre_mask] / c2)
        certs.append(
            certificate(
                "exponential", ts[pre_mask], pred_f, fsv[pre_mask], t_star, tol,
                {"rate": 1.0 / c2, "condition_certified": certified},
            )
        )
        if traj.limit_point is not None:
            dlim_all = row_norms(xs - traj.limit_point)
            pred_d = r * np.exp(-ts / (2.0 * c2))
            certs.append(
                certificate(
                    "exponential-distance", ts, pred_d, dlim_all, t_star, tol,
                    {"rate": 0.5 / c2, "condition_certified": certified},
                )
            )

    # extinction of f at the limit, when the eta rate promises it in budget
    if traj.budget_mode:
        eta_needed = eta_f0 - eta_eval(pf, traj.f_tol)
        if np.isfinite(eta_needed) and eta_needed <= traj.t_end:
            f_final = float(fsv[-1])
            cert_ext = certificate(
                "extinction",
                np.array([ts[-1]]),
                np.array([2.0 * traj.f_tol]),
                np.array([f_final]),
                t_star,
                tol,
                {"eta_time_needed": eta_needed, "condition_certified": certified},
            )
            certs.append(cert_ext)
        else:
            certs.append(
                skipped_certificate(
                    "extinction", t_star, tol,
                    "eta rate does not force extinction within the budget",
                )
            )
    return certs


def certify_power_family(
    traj: Trajectory,
    c: float,
    gamma: float,
    r: Optional[float] = None,
    tol: float = DEFAULT_CERT_TOL,
) -> RateCertificate:
    """Closed-form power-family decay bounds evaluated against a trajectory.

    Energy: gamma != 1/2 gives (f0^(2g-1) - (2g-1) t / c^2)^(1/(2g-1)),
    gamma = 1/2 the exponential; the distance analogue needs the anchor
    radius r and is skipped (flagged) without it.  For gamma in (1/2, 1] the
    extinction-time bound t* <= c^2 f0^(2g-1) / (2g-1) is also checked.
    """
    c = float(c)
    gamma = float(gamma)
    if not (0.0 < gamma <= 1.0) or c <= 0:
        raise ValueError("need c > 0 and gamma in (0, 1]")
    ts, fsv = traj.ts, traj.fs
    f0 = float(fsv[0])
    t_star = traj.t_star if traj.t_star is not None else float(ts[-1])
    mask = ts <= t_star + 1e-14
    tm = ts[mask]
    c2 = c * c
    if gamma == 0.5:
        pred_f = f0 * np.exp(-tm / c2)
    else:
        p = 2.0 * gamma - 1.0
        base = np.maximum(f0**p - p * tm / c2, 0.0)
        with np.errstate(divide="ignore"):
            pred_f = base ** (1.0 / p) if p > 0 else np.where(
                base > 0, base ** (1.0 / p), INF
            )
    margin_f = min_margin(pred_f, fsv[mask])
    details: dict = {"f_bound_margin": margin_f}
    margins = [margin_f]

    if r is not None and traj.limit_point is not None:
        dlim = row_norms(traj.xs[mask] - traj.limit_point)
        if gamma == 0.5:
            pred_d = r * np.exp(-tm / (2.0 * c2))
        else:
            p = 2.0 * gamma - 1.0
            base_d = (gamma * r / c) ** (p / gamma) - p * tm / c2
            base_d = np.maximum(base_d, 0.0)
            with np.errstate(divide="ignore"):
                pred_d = (c / gamma) * np.where(
                    base_d > 0, base_d ** (gamma / p), 0.0 if p > 0 else INF
                )
        margin_d = min_margin(pred_d, dlim)
        details["distance_bound_margin"] = margin_d
        details["distance_predicted"] = pred_d
        details["distance_observed"] = dlim
        margins.append(margin_d)
    elif r is None:
        details["distance_bound"] = "skipped (no radius supplied)"

    if gamma > 0.5:
        t_star_bound = c2 / (2.0 * gamma - 1.0) * f0 ** (2.0 * gamma - 1.0)
        details["t_star_bound"] = t_star_bound
        if traj.absorbed and traj.t_star is not None:
            details["t_star_observed"] = traj.t_star
            margins.append(t_star_bound - traj.t_star)
        elif traj.t_end >= 1.1 * t_star_bound:
            # had enough time and still no extinction: genuine failure
            margins.append(-INF)
            details["t_star_observed"] = None

    return certificate(
        "power-family", tm, pred_f, fsv[mask], t_star, tol, details, margin=min(margins)
    )


def improved_sqrt_distance_bound(
    traj: Trajectory,
    c: float,
    s: float,
    t: float,
    tol: float = DEFAULT_CERT_TOL,
) -> RateCertificate:
    """Two-point distance bound specific to theta(u) = 2c sqrt(u):

        d(y_s, y_t)^2 <= 4c^2 (e^{-s/2c^2} - e^{-t/2c^2}) sqrt(f0)
                          (sqrt(f(y_s)) - sqrt(f(y_t)))
                      <= 4c^2 e^{-s/2c^2} (e^{-s/2c^2} - e^{-t/2c^2}) f0.

    Both bounds are checked; t is clamped to t* if f hits zero inside [s, t].
    """
    if not (0.0 <= s <= t):
        raise ValueError("need 0 <= s <= t")
    c = float(c)
    c2 = c * c
    t_star = traj.t_star if traj.t_star is not None else float(traj.ts[-1])
    t_eff = min(t, t_star)
    clamped = t_eff < t
    x_s, f_s = traj.state_at(s)
    x_t, f_t = traj.state_at(t_eff)
    f0 = float(traj.fs[0])
    obs = norm(x_s - x_t) ** 2
    es = math.exp(-s / (2.0 * c2))
    et = math.exp(-t_eff / (2.0 * c2))
    bound_fine = 4.0 * c2 * (es - et) * math.sqrt(f0) * (
        math.sqrt(max(f_s, 0.0)) - math.sqrt(max(f_t, 0.0))
    )
    bound_coarse = 4.0 * c2 * es * (es - et) * f0
    return certificate(
        "improved-sqrt",
        np.array([s, t_eff]),
        np.array([bound_fine, bound_coarse]),
        np.array([obs, obs]),
        t_star,
        tol,
        {
            "clamped_to_t_star": clamped,
            "fine_bound": bound_fine,
            "coarse_bound": bound_coarse,
        },
    )


# ---------------------------------------------------------------------------
# CSV export


def trajectory_table(traj: Trajectory) -> dict:
    """The columns ``t,x_1..x_n,f,slope,speed,segment`` of the samples."""
    return {
        "t": traj.ts,
        **{f"x_{i + 1}": col for i, col in enumerate(traj.xs.T)},
        "f": traj.fs,
        "slope": traj.slopes,
        "speed": traj.speeds,
        "segment": traj.segments.astype(int),
    }


def trajectory_to_csv(traj: Trajectory, path, shared: Optional[SharedColumns] = None) -> None:
    """Write the samples' ``trajectory_table`` at full precision.

    ``shared`` holds the columns that other files of the run repeat.
    """
    write_csv(path, trajectory_table(traj), shared)
