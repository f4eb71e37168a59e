"""Steepest-descent curve integration, energy identities, rate certificates."""

import dataclasses
import math
import re

import numpy as np
import pytest

from klflow import Functional, list_corpus, resolve_entry
from klflow.core import FLOW_POLICIES, pick_branch
from klflow.flow import (
    PROBE_DELTA,
    FlowControls,
    _probe_direction,
    certify_power_family,
    certify_rates_continuous,
    improved_sqrt_distance_bound,
    integrate_maximal_slope,
    trajectory_to_csv,
    verify_ede,
)
from klflow.sampling import unit_directions
from klflow.theta import make_power_theta


@pytest.fixture(scope="module")
def quad_traj():
    e = resolve_entry("quadratic?lambda=1")
    return integrate_maximal_slope(e.functional, np.array([1.0]), t_end=5.0)


def test_quadratic_matches_exponential_decay(quad_traj):
    for t, fv in zip(quad_traj.ts, quad_traj.fs):
        exact = 0.5 * math.exp(-2.0 * t)
        assert abs(fv - exact) <= 1e-8 * exact


@pytest.mark.parametrize(
    "fid, x0",
    [
        ("quadratic?lambda=1", [1.0]),
        ("quadratic?lambda=1&center=0,0", [1.0, 0.5]),
        ("power-potential?p=4", [1.0]),  # a curved arc, not an exponential one
    ],
)
def test_finite_difference_gradient_follows_the_closed_form(fid, x0):
    # with no gradient oracle the integrator takes central differences of f
    e = resolve_entry(fid)
    f = Functional(label=f"value-only {fid}", value=e.functional.value,
                   backend=e.functional.backend, batch_value=e.functional.batch_value)
    tr = integrate_maximal_slope(f, np.array(x0), t_end=3.0)
    exact = e.analytic_trajectory(np.array(x0))(float(tr.ts[-1]))
    assert tr.ts[-1] == 3.0
    assert np.linalg.norm(tr.xs[-1] - exact) <= 1e-9


ORACLE_IDS = [
    name
    for name in (line.split()[0] for line in list_corpus())
    if resolve_entry(name).analytic_trajectory is not None
]


@pytest.mark.parametrize("policy", FLOW_POLICIES)
@pytest.mark.parametrize("anchor", (1.5, 0.0, -0.7))
@pytest.mark.parametrize("cid", ORACLE_IDS)
def test_every_sample_follows_the_closed_form_trajectory(cid, anchor, policy):
    e = resolve_entry(cid)
    x0 = np.array([anchor])
    tr = integrate_maximal_slope(e.functional, x0, t_end=2.0, controls=FlowControls(policy=policy))
    curve = e.analytic_trajectory(x0, policy)
    exact = np.array([curve(float(t)) for t in tr.ts])
    assert np.max(np.abs(tr.xs - exact)) <= 1e-8


def test_trajectory_invariants(quad_traj):
    tr = quad_traj
    assert tr.n_samples == tr.ts.size == tr.xs.shape[0] == tr.fs.size
    assert np.all(np.diff(tr.ts) > 0)
    assert np.all(np.diff(tr.fs) <= 1e-15)
    assert np.all(tr.speeds >= 0.0)
    assert np.all(tr.slopes >= 0.0)
    assert tr.segments.min() == tr.segments.max() == 0
    assert not tr.glued and not tr.budget_mode


def test_state_at_interpolates(quad_traj):
    tr = quad_traj
    i = tr.n_samples // 2
    x_node, f_node = tr.state_at(float(tr.ts[i]))
    assert np.array_equal(x_node, tr.xs[i]) and f_node == float(tr.fs[i])
    tm = 0.5 * (tr.ts[i] + tr.ts[i + 1])
    x = float(tr.state_at(float(tm))[0][0])
    lo, hi = sorted((float(tr.xs[i + 1][0]), float(tr.xs[i][0])))
    assert lo <= x <= hi
    # chord error of linear interpolation over one dt=0.01 step
    assert abs(x - math.exp(-tm)) < 2e-6


def test_energy_identity_residuals(quad_traj):
    rep = verify_ede(quad_traj)
    assert rep.n_interior > 100
    assert rep.max_residual < 1e-4
    assert rep.max_equality_residual < 1e-4
    # residual rows are (t, value) pairs
    assert np.all(rep.residuals[:, 1] <= rep.max_residual + 1e-18)


def test_energy_identity_second_order_in_dt():
    e = resolve_entry("quadratic?lambda=1")
    out = {}
    for dt in (2e-3, 1e-3):
        tr = integrate_maximal_slope(
            e.functional, np.array([1.0]), t_end=1.0, controls=FlowControls(fixed_dt=dt)
        )
        out[dt] = verify_ede(tr).max_residual
    assert out[2e-3] / out[1e-3] >= 1.8


def test_double_well_branch_policies():
    e = resolve_entry("double-well?lambda=1&a=1")
    limits = {}
    for pol in ("positive-branch", "negative-branch"):
        tr = integrate_maximal_slope(
            e.functional,
            np.array([0.0]),
            t_end=15.0,
            controls=FlowControls(policy=pol),
        )
        assert tr.absorbed
        assert tr.t_star == pytest.approx(13.47, abs=0.05)
        limits[pol] = float(tr.limit_point[0])
    assert limits["positive-branch"] == pytest.approx(1.0, abs=1e-5)
    assert limits["negative-branch"] == pytest.approx(-1.0, abs=1e-5)


def test_staircase_glues_at_the_jump():
    e = resolve_entry("staircase?m=1&eps=0.1")
    tr = integrate_maximal_slope(e.functional, np.array([2.0]), t_end=3.0)
    assert len(tr.segment_boundaries) == 1
    assert tr.segment_boundaries[0] == pytest.approx(1.0, abs=1e-3)
    assert tr.absorbed and tr.t_star == pytest.approx(2.0, abs=1e-3)
    assert abs(float(tr.limit_point[0])) < 1e-6
    assert float(tr.state_at(1.5)[0][0]) == pytest.approx(0.5, abs=1e-3)
    assert tr.segments.max() == 1


def test_budget_mode_runs_to_the_default_horizon():
    e = resolve_entry("quadratic?lambda=1")
    tr = integrate_maximal_slope(e.functional, np.array([1.0]))
    assert tr.budget_mode
    assert tr.ts[-1] == 40.0


def test_continuous_certificates_on_quadratic(quad_traj):
    pf = make_power_theta(1.0 / math.sqrt(2.0), 0.5)
    certs = certify_rates_continuous(quad_traj, pf, np.array([1.0]), 1.0)
    kinds = {c.kind for c in certs}
    assert kinds == {
        "theta-distance",
        "gamma-distance",
        "eta-energy",
        "confinement",
        "exponential",
        "exponential-distance",
    }
    for c in certs:
        assert not c.skipped, c.kind
        assert c.verdict, (c.kind, c.margin)
        assert c.margin >= -c.tol


def test_power_family_and_sqrt_improvement(quad_traj):
    c = 1.0 / math.sqrt(2.0)
    cert = certify_power_family(quad_traj, c, 0.5, r=1.0)
    assert cert.kind == "power-family" and cert.verdict
    assert cert.margin >= -cert.tol
    imp = improved_sqrt_distance_bound(quad_traj, c, 0.0, 5.0)
    assert imp.kind == "improved-sqrt" and imp.verdict and not imp.skipped


def test_slope_column_samples_a_kink_without_a_slope_oracle():
    # the double-well ridge x = 0 has no gradient; its descending slope lam a
    # = 1 comes from the gradients of its neighbouring floats, not sampling
    f = resolve_entry("double-well?lambda=1&a=1").functional
    traj = integrate_maximal_slope(f, np.array([0.0]), t_end=0.5)
    assert traj.xs[0, 0] == 0.0
    assert traj.slopes[0] == 1.0
    exact = [abs(abs(float(x[0])) - 1.0) for x in traj.xs]
    assert traj.slopes.tolist() == exact


def test_trajectory_csv_round_trip_is_bitwise(tmp_path, quad_traj):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    trajectory_to_csv(quad_traj, p1)
    trajectory_to_csv(quad_traj, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "t,x_1,f,slope,speed,segment"
    back = np.loadtxt(p1, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], quad_traj.ts)
    assert np.array_equal(back[:, 1:2], quad_traj.xs)


def test_integration_is_deterministic():
    e = resolve_entry("double-well?lambda=1&a=1")
    a = integrate_maximal_slope(e.functional, np.array([0.0]), t_end=4.0)
    b = integrate_maximal_slope(e.functional, np.array([0.0]), t_end=4.0)
    assert np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.fs, b.fs)


def test_unknown_flow_policy_is_rejected():
    valid = "valid policies: positive-branch, negative-branch, lexicographic"
    with pytest.raises(ValueError, match=valid):
        FlowControls(policy="smallest-distance")
    assert FlowControls(policy="lexicographic").policy == "lexicographic"


@pytest.mark.parametrize(
    "controls, message",
    [
        # fixed_dt 0 or below used to record every sample at t = 0
        ({"fixed_dt": 0.0}, "fixed_dt must be a positive finite number, got 0.0"),
        ({"fixed_dt": -0.1}, "fixed_dt must be a positive finite number, got -0.1"),
        ({"fixed_dt": math.inf}, "fixed_dt must be a positive finite number, got inf"),
        ({"fixed_dt": "0.1"}, "fixed_dt must be a positive finite number, got '0.1'"),
        ({"fixed_dt": True}, "fixed_dt must be a positive finite number, got True"),
        # max_steps -1 used to take no step and pass
        ({"max_steps": -1}, "max_steps must be a positive integer, got -1"),
        ({"max_steps": 0}, "max_steps must be a positive integer, got 0"),
        ({"max_steps": 2.5}, "max_steps must be a positive integer, got 2.5"),
    ],
)
def test_bad_flow_controls_are_rejected(controls, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        FlowControls(**controls)
    FlowControls(fixed_dt=0.01, max_steps=1)


# ---------------------------------------------------------------------------
# the per-sample loops the array passes replaced, kept as references


def reference_sample_speeds(ts, xs, segs):
    n = ts.size
    speeds = np.zeros(n)
    for i in range(n):
        lo = i - 1 if i > 0 and segs[i - 1] == segs[i] else i
        hi = i + 1 if i < n - 1 and segs[i + 1] == segs[i] else i
        if lo == hi:
            continue
        dt = ts[hi] - ts[lo]
        if dt > 0:
            speeds[i] = float(np.linalg.norm(xs[hi] - xs[lo])) / dt
    return speeds


def reference_verify_ede(traj, f):
    """Residual rows, maxima and count, with slopes recomputed from f."""
    ts, fsv, segs = traj.ts, traj.fs, traj.segments
    slopes = traj.slopes
    if f.analytic_slope is not None:
        slopes = np.array([float(f.analytic_slope(x)) for x in traj.xs])
    rows = []
    eq_rows = []
    n = ts.size
    for i in range(1, n - 1):
        if segs[i - 1] != segs[i] or segs[i + 1] != segs[i]:
            continue
        if traj.absorbed and traj.t_star is not None and ts[i + 1] > traj.t_star + 1e-14:
            continue
        dt = ts[i + 1] - ts[i - 1]
        if dt <= 0:
            continue
        dfdt = (fsv[i + 1] - fsv[i - 1]) / dt
        sp = float(np.linalg.norm(traj.xs[i + 1] - traj.xs[i - 1])) / dt
        sl = slopes[i]
        resid = abs(-dfdt - 0.5 * sp * sp - 0.5 * sl * sl)
        triple = (-dfdt, sp * sp, sl * sl)
        rows.append((ts[i], resid))
        eq_rows.append((ts[i], max(triple) - min(triple)))
    res = np.array(rows) if rows else np.zeros((0, 2))
    eq = np.array(eq_rows) if eq_rows else np.zeros((0, 2))
    return (
        res,
        float(res[:, 1].max()) if rows else 0.0,
        eq,
        float(eq[:, 1].max()) if eq_rows else 0.0,
        len(rows),
    )


def reference_probe_direction(f, x, fx, c):
    delta = PROBE_DELTA * max(1.0, float(np.linalg.norm(x)))
    dirs = unit_directions(x.size, 16)
    rates = []
    for d in dirs:
        rate = (fx - f.value(x + delta * d)) / delta
        rates.append((rate, tuple(d)))
    best = max(r for r, _ in rates)
    tied = [d for r, d in rates if r >= best - 1e-9 * (1.0 + abs(best))]
    return best, np.array(pick_branch(tied, c.policy))


# functional, x0, horizon, and whether the run is glued and absorbed
FLOWS = {
    "staircase": ("staircase?m=1&eps=0.1", [1.5], 3.0, True, True),
    "sharpness": ("sharpness?eps=0.05", [1.0], 8.0, True, False),
    "quadratic-budget": ("quadratic?lambda=1", [1.0], None, False, True),
    "quadratic-2d": ("quadratic?lambda=1&center=0,0", [1.0, 0.5], 3.0, False, False),
    "quadratic-3d": ("quadratic?lambda=1&center=0,0,0", [1.0, 0.5, -0.25], 3.0, False, False),
}


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_array_passes_match_the_sample_loops(name):
    fid, x0, horizon, glued, absorbed = FLOWS[name]
    f = resolve_entry(fid).functional
    tr = integrate_maximal_slope(f, np.array(x0), t_end=horizon)
    assert (tr.glued, tr.absorbed) == (glued, absorbed)
    speeds = reference_sample_speeds(tr.ts, tr.xs, tr.segments)
    assert tr.speeds.tobytes() == speeds.tobytes()
    res, max_res, eq, max_eq, n_interior = reference_verify_ede(tr, f)
    rep = verify_ede(tr)
    assert n_interior > 0 and rep.n_interior == n_interior
    assert rep.residuals.tobytes() == res.tobytes()
    assert rep.equality_residuals.tobytes() == eq.tobytes()
    assert (rep.max_residual, rep.max_equality_residual) == (max_res, max_eq)


@pytest.mark.parametrize("policy", ["positive-branch", "negative-branch"])
@pytest.mark.parametrize(
    "fid, x",
    [
        ("double-well?lambda=1&a=1", [0.0]),
        ("staircase?m=1&eps=0.1", [1.0]),
        ("power-potential?p=1&center=0,0", [0.0, 0.0]),
    ],
)
def test_batched_kink_probe_matches_the_probe_loop(fid, x, policy):
    f = resolve_entry(fid).functional
    x = np.array(x)
    c = FlowControls(policy=policy)
    rate, direction = _probe_direction(f, x, f.value(x), c)
    ref_rate, ref_direction = reference_probe_direction(f, x, f.value(x), c)
    assert np.float64(rate).tobytes() == np.float64(ref_rate).tobytes()
    assert direction.tobytes() == ref_direction.tobytes()


def _counting(f):
    """A copy of f whose oracles count their calls."""
    calls = dict.fromkeys(["value", "batch_value", "analytic_slope", "smooth_gradient"], 0)

    def counted(name):
        oracle = getattr(f, name)

        def call(x):
            calls[name] += 1
            return oracle(x)

        return call if oracle is not None else None

    return dataclasses.replace(f, **{name: counted(name) for name in calls}), calls


def test_verify_ede_calls_no_oracle():
    f, calls = _counting(resolve_entry("quadratic?lambda=1").functional)
    tr = integrate_maximal_slope(f, np.array([1.0]))
    # one gradient per distinct point: the slope column asks for none
    assert calls["smooth_gradient"] == 4 * tr.diagnostics["steps"] + 1 == 5389
    calls.update(dict.fromkeys(calls, 0))
    assert verify_ede(tr).n_interior > 0
    assert set(calls.values()) == {0}


def test_one_gradient_per_accepted_point():
    # the first point costs one gradient; each accepted RK4 step then costs
    # three stage gradients plus the one at its end point, which the next
    # step and the slope column reuse, as does the constant tail
    f, calls = _counting(resolve_entry("quadratic?lambda=1").functional)
    tr = integrate_maximal_slope(f, np.array([1.0]))
    steps = tr.diagnostics["steps"]
    assert (steps, tr.n_samples) == (1347, 1350)
    assert calls["smooth_gradient"] == 4 * steps + 1 == 5389
