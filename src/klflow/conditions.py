"""Checkers for the anchored slope conditions that drive the certificates.

Both conditions quantify over the admissible set

    B_r(x0) intersect { y : 0 < f(y) <= f(x0) },

with B_r(x0) the OPEN ball.  Condition A asks for a budget inequality
theta(f(x0)) <= r together with theta'(f(y)) * |df|(y) >= 1 on the admissible
set; its quantitative cousin asks alpha(x0, r) >= 4 f(x0) / r^2 where alpha
is the infimum of |df|^2 / f.  The strict variants sharpen the respective
inequality.  Verification is by deterministic low-discrepancy sampling plus
compass-search refinement around the worst observed points, so a "holds"
verdict is a sampled certificate, not a proof.  One scan serves both keys
and scores each compass level of all its searches as one batch.
When the slopes come from ball sampling the refinement ends at the sampled
slope's finest radius, below which its keys differ only by sampling noise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .core import INF, Functional, check_int, check_real, norm, row_norms
from .sampling import SAMPLER_SEED, ball_sample
# descending_slope stays bound here for tracers that patch this module
from .slope import FINEST_RADII, descending_slope, row_descending_slopes  # noqa: F401
from .theta import ParameterFunction, make_power_theta

#: absolute/relative guard band for the non-strict budget and threshold tests
EQUALITY_GUARD = 1e-9

#: sampled slope condition acceptance threshold (product >= 1 - this)
SLOPE_ACCEPT_TOL = 1e-6

#: f(x0) at or below this counts as "already at an equilibrium value"
EQUILIBRIUM_F_TOL = 1e-14

DEFAULT_SAMPLE_COUNT = 2048

#: the compass refinement stops once its step is at most this times max(1, |y|),
#: or at most ``slope.FINEST_RADII[-1]`` when the scan's slopes are sampled
REFINE_STEP_TOL = 1e-10


@dataclass
class ConditionReport:
    condition: str  # "A" | "A_prime" | "C" | "C_prime"
    holds: bool
    alpha_estimate: float
    worst_witness: Optional[Tuple[np.ndarray, float]]
    r: float
    x0: np.ndarray
    theta_budget: float  # r - theta(f(x0)); NaN for the C variants
    equilibrium: bool = False
    details: dict = field(default_factory=dict)


#: sampling details of a report whose verdict needed no scan
_NOT_SAMPLED = {"sample_count": 0, "seed": None, "slope_method": None}


def _anchor(f: Functional, x0, r: float, sample_count: int) -> Tuple[np.ndarray, float]:
    """x0 as a float array and f(x0), after checking r, sample_count and f(x0)."""
    x0 = np.asarray(x0, dtype=float)
    check_real("r", r)
    check_int("sample_count", sample_count, least=1)
    f_x0 = f.value(x0)
    if not np.isfinite(f_x0):
        raise ValueError("f(x0) must be finite")
    return x0, f_x0


def _compass_searches(scored, starts, h: float, floor: float):
    """Compass searches for smaller keys from the sampled (point, key) ``starts``.

    Each search probes y +- step * e_i along every axis, moves to its best
    probe (the first smallest key, as ``min`` picks it) when that strictly
    lowers its key, and otherwise divides its step (first ``h``) by 4, until
    the step is at most ``max(REFINE_STEP_TOL * max(1, |y|), floor)``.
    ``floor`` is 0, or the sampled slope's finest radius when the keys come
    from ball sampling: below it two probes' keys differ only by sampling
    noise.  In lockstep, ``scored(probes, owners)`` scores each level's probes
    of all live searches in one batch (``owners[j]``: the search of row j)
    and returns the admissible rows' indices, points and keys.  Each search
    ends: at a fixed step its moves visit distinct lattice points in the
    ball, each strictly lowering its key.  Returns each final (point, key).
    """
    dim = starts[0][0].size if starts else 0
    axes = np.vstack([np.eye(dim), -np.eye(dim)])
    found, steps = list(starts), [h] * len(starts)
    while True:
        live = [s for s, (y, _) in enumerate(found)
                if steps[s] > max(REFINE_STEP_TOL * max(1.0, norm(y)), floor)]
        if not live:
            return found
        owners = np.repeat(live, len(axes))
        rows, pts, keys = scored(np.vstack([found[s][0] + steps[s] * axes for s in live]), owners)
        best = {}
        for s, pt, v in zip(owners[rows].tolist(), pts, keys):
            if s not in best or v < best[s][1]:
                best[s] = (pt, v)
        for s in live:
            if s in best and best[s][1] < found[s][1]:
                found[s] = best[s]
            else:
                steps[s] /= 4.0


def _scan(
    f: Functional,
    x0: np.ndarray,
    r: float,
    f_x0: float,
    pf: Optional[ParameterFunction],
    sample_count: int,
    seed: int,
) -> dict:
    """One deterministic pass over the admissible set.

    Collects the infimum of |df|^2/f (alpha) and, when a parameter function
    is supplied, of theta'(f) * |df|: each the first smallest of its sampled
    minimum and its compass searches from its three smallest sampled values.
    The alpha part does not depend on ``pf``.  ``alpha_sampling`` and
    ``sampling`` say how the alpha part and the whole scan were computed (the
    slope methods of the sample and the alpha searches, and of every row).
    The sample is one batch, and so is each compass level of all the
    searches: one ``f.values`` and one ``slope.row_descending_slopes`` call.
    """

    def admissible(pts):
        """Indices of the rows of ``pts`` in the admissible set; values, slopes, methods."""
        rows = np.flatnonzero(row_norms(pts - x0) < r)
        fys = f.values(pts[rows])
        keep = (0.0 < fys) & (fys <= f_x0)
        rows, fys = rows[keep], fys[keep]
        return (rows, fys, *row_descending_slopes(f, pts[rows], fys))

    def alpha_keys(slopes, fys):  # exact elementwise, and inf where the slope is
        return (slopes * slopes / fys).tolist()

    def product_keys(slopes, fys):  # Python floats: theta' rounds ``**`` otherwise on numpy ones
        return [INF if s == INF else pf.theta_deriv(fy) * s
                for s, fy in zip(slopes.tolist(), fys.tolist())]

    sample = ball_sample(x0, r, sample_count, seed)
    rows, fys, slopes, used = admissible(sample)
    pts, n_sample = sample[rows], len(rows)
    kinds = [alpha_keys] if pf is None else [alpha_keys, product_keys]
    methods = [set(used) for _ in kinds]  # per key: the sample's and its searches'
    floor = float(FINEST_RADII[-1]) if "ball-sampling" in methods[0] else 0.0
    firsts, starts, bounds = [], [], []  # bounds[k]: the first search of key k
    for keys in kinds:
        vals = keys(slopes, fys)
        # Python's stable sort: np.argsort puts NaN keys (theta' = inf
        # times a slope of 0) elsewhere
        order = sorted(range(n_sample), key=vals.__getitem__)[:3]
        firsts.append((pts[order[0]], vals[order[0]]) if order else (None, INF))
        bounds.append(len(starts))
        starts += [(pts[i], vals[i]) for i in order if vals[i] != INF]

    def scored(probes, owners):
        rows, fys, slopes, used = admissible(probes)
        cuts = [*owners[rows].searchsorted(bounds), len(rows)]
        keys = []
        for keys_of, used_by, lo, hi in zip(kinds, methods, cuts, cuts[1:]):
            keys += keys_of(slopes[lo:hi], fys[lo:hi])
            used_by.update(used[lo:hi])
        return rows, probes[rows], keys

    found = _compass_searches(scored, starts, 4.0 * r * sample_count ** (-1.0 / x0.size), floor)
    best = [min([first, *found[lo:hi]], key=lambda e: e[1])
            for first, lo, hi in zip(firsts, bounds, [*bounds[1:], len(found)])]

    def sampling(used) -> dict:
        return {"sample_count": sample_count, "seed": seed,
                "slope_method": "+".join(sorted(used)) or None}

    out = {"n_admissible": n_sample, "alpha": max(float(best[0][1]), 0.0),
           "alpha_witness": best[0][0], "alpha_sampling": sampling(methods[0])}
    if pf is not None:
        out["min_product"], out["product_witness"] = float(best[1][1]), best[1][0]
    out["sampling"] = sampling(set().union(*methods))
    return out


def _equilibrium_report(name: str, x0, r: float, f_x0: float) -> ConditionReport:
    """f(x0) = 0: the condition holds trivially, with nothing scanned."""
    c_variant = name.startswith("C")
    return ConditionReport(
        condition=name,
        holds=True,
        alpha_estimate=INF,
        worst_witness=None,
        r=r,
        x0=x0,
        theta_budget=math.nan if c_variant else r,
        equilibrium=True,
        details={
            **({"threshold": 0.0} if c_variant else {}),
            "f_x0": f_x0,
            **_NOT_SAMPLED,
        },
    )


def _report_C(x0, r, f_x0, strict, scan, alpha_override) -> ConditionReport:
    """The C or C_prime verdict from a scan, or from ``alpha_override``."""
    if alpha_override is not None:
        alpha, witness, n_adm = float(alpha_override), None, -1
        sampling = _NOT_SAMPLED
    else:
        alpha, witness = scan["alpha"], scan["alpha_witness"]
        n_adm, sampling = scan["n_admissible"], scan["alpha_sampling"]
    threshold = 4.0 * f_x0 / (r * r)
    guard = EQUALITY_GUARD * max(threshold, 1.0)
    if strict:
        holds = alpha > threshold + guard
    else:
        holds = alpha >= threshold - guard
    return ConditionReport(
        condition="C_prime" if strict else "C",
        holds=bool(holds),
        alpha_estimate=alpha,
        worst_witness=None if witness is None else (witness, alpha - threshold),
        r=r,
        x0=x0,
        theta_budget=math.nan,
        details={
            "threshold": threshold,
            "f_x0": f_x0,
            "n_admissible": n_adm,
            "empty_admissible": n_adm == 0,
            **sampling,
        },
    )


def _report_A(x0, r, f_x0, budget, strict, scan) -> ConditionReport:
    """The A or A_prime verdict from the budget r - theta(f(x0)) and a scan."""
    guard = EQUALITY_GUARD * max(1.0, r)
    budget_ok = budget > guard if strict else budget >= -guard
    min_product = scan["min_product"]
    slope_ok = min_product >= 1.0 - SLOPE_ACCEPT_TOL
    witness = scan["product_witness"]
    return ConditionReport(
        condition="A_prime" if strict else "A",
        holds=bool(budget_ok and slope_ok),
        alpha_estimate=scan["alpha"],
        worst_witness=None if witness is None else (witness, min_product - 1.0),
        r=r,
        x0=x0,
        theta_budget=budget,
        details={
            "f_x0": f_x0,
            "budget_ok": bool(budget_ok),
            "slope_ok": bool(slope_ok),
            "min_product": min_product,
            "n_admissible": scan["n_admissible"],
            "empty_admissible": scan["n_admissible"] == 0,
            **scan["sampling"],
        },
    )


def estimate_alpha(
    f: Functional,
    x0,
    r: float,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    seed: int = SAMPLER_SEED,
) -> float:
    """Estimate alpha(x0, r) = inf |df|^2 / f over the admissible set.

    Returns +inf when the sampled admissible set is empty.  Requires
    0 < f(x0) < inf.
    """
    x0, f_x0 = _anchor(f, x0, r, sample_count)
    if not (f_x0 > 0.0):
        raise ValueError("estimate_alpha requires 0 < f(x0) < inf")
    scan = _scan(f, x0, r, f_x0, None, sample_count, seed)
    return scan["alpha"]


def check_conditions(
    f: Functional,
    pf: ParameterFunction,
    x0,
    r: float,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    alpha_override: Optional[float] = None,
    seed: int = SAMPLER_SEED,
) -> Dict[str, ConditionReport]:
    """Conditions A, A-strict, C and C-strict on B_r(x0) from one scan.

    Returns the reports under the keys ``"A"``, ``"A-strict"``, ``"C"`` and
    ``"C-strict"``; each equals what ``check_condition_A`` or
    ``check_condition_C`` returns for the same arguments.
    """
    x0, f_x0 = _anchor(f, x0, r, sample_count)
    if f_x0 <= EQUILIBRIUM_F_TOL:
        names = {"A": "A", "A-strict": "A_prime", "C": "C", "C-strict": "C_prime"}
        return {k: _equilibrium_report(n, x0, r, f_x0) for k, n in names.items()}
    budget = r - pf.theta(f_x0)
    scan = _scan(f, x0, r, f_x0, pf, sample_count, seed)
    return {
        "A": _report_A(x0, r, f_x0, budget, False, scan),
        "A-strict": _report_A(x0, r, f_x0, budget, True, scan),
        "C": _report_C(x0, r, f_x0, False, scan, alpha_override),
        "C-strict": _report_C(x0, r, f_x0, True, scan, alpha_override),
    }


def check_condition_C(
    f: Functional,
    x0,
    r: float,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    strict: bool = False,
    alpha_override: Optional[float] = None,
    seed: int = SAMPLER_SEED,
) -> ConditionReport:
    """Check alpha(x0, r) >= 4 f(x0) / r^2 (strict: >).

    ``alpha_override`` substitutes a known exact alpha for the sampled
    estimate.  f(x0) = 0 is reported as trivially holding (equilibrium).
    """
    x0, f_x0 = _anchor(f, x0, r, sample_count)
    if f_x0 <= EQUILIBRIUM_F_TOL:
        return _equilibrium_report("C_prime" if strict else "C", x0, r, f_x0)
    scan = None
    if alpha_override is None:
        scan = _scan(f, x0, r, f_x0, None, sample_count, seed)
    return _report_C(x0, r, f_x0, strict, scan, alpha_override)


def check_condition_A(
    f: Functional,
    pf: ParameterFunction,
    x0,
    r: float,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    strict: bool = False,
    seed: int = SAMPLER_SEED,
) -> ConditionReport:
    """Check theta(f(x0)) <= r (strict: <) and theta'(f) * |df| >= 1 on the
    admissible set.

    The slope inequality is accepted at min product >= 1 - 1e-6 to absorb
    estimator bias; the worst witness (point, product - 1) is reported either
    way.  f(x0) = 0 is reported as trivially holding (equilibrium).
    """
    reports = check_conditions(f, pf, x0, r, sample_count, seed=seed)
    return reports["A-strict" if strict else "A"]


def matched_half_power(alpha: float) -> ParameterFunction:
    """theta(u) = 2 sqrt(u / alpha): the parameter function whose budget
    inequality is exactly the alpha >= 4 f(x0) / r^2 threshold test."""
    if not (0.0 < alpha < INF):
        raise ValueError("alpha must be positive and finite")
    return make_power_theta(c=1.0 / math.sqrt(alpha), gamma=0.5)
