"""Threshold condition checks: alpha estimation, budgets, and the equivalence."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from klflow import (
    Functional,
    check_condition_A,
    check_condition_C,
    estimate_alpha,
    make_power_theta,
    matched_half_power,
    resolve_entry,
)
from klflow.conditions import ConditionReport, check_conditions

# entry id, anchor, reference radius used for the equivalence sweep
EQUIV_ANCHORS = (
    ("quadratic?lambda=1", 1.0, 2.0),
    ("double-well?lambda=1&a=1", 0.5, 0.5),
    ("truncated-parabola", 1.0, 1.0),
    ("power-potential?p=1", 1.0, 1.1),
    ("power-potential?p=4", 1.0, 1.5),
    ("staircase?m=1&eps=0.1", 1.5, 3.0),
    ("sharpness?c=1&gamma=0.5&M=4&eps=0.05", 1.0, 1.0),
)


def test_alpha_quadratic_is_two_lambda():
    e = resolve_entry("quadratic?lambda=1")
    est = estimate_alpha(e.functional, np.array([1.0]), 0.5)
    assert abs(est - 2.0) < 1e-9
    e25 = resolve_entry("quadratic?lambda=2.5")
    assert abs(estimate_alpha(e25.functional, np.array([1.0]), 0.5) - 5.0) < 1e-9


def test_alpha_truncated_parabola_regimes():
    e = resolve_entry("truncated-parabola")
    x0 = np.array([1.0])
    assert estimate_alpha(e.functional, x0, 0.5) == 4.0
    assert estimate_alpha(e.functional, x0, 1.5) == 0.0


@pytest.mark.parametrize(
    "cid,x0,r,exact,max_excess",
    [
        ("power-potential?p=1", 1.0, 1.0, 1.0, 1e-9),
        ("staircase?m=1&eps=0.1", 2.0, 5.0, 10 / 21, 1e-9),
        ("power-potential?p=4", 1.0, 0.5, 4.0, 1e-8),
    ],
)
def test_alpha_estimate_reaches_the_exact_infimum(cid, x0, r, exact, max_excess):
    # an estimate above the infimum errs toward a false pass
    est = estimate_alpha(resolve_entry(cid).functional, np.array([x0]), r)
    assert exact * (1.0 - 1e-15) <= est <= exact * (1.0 + max_excess)


def test_condition_A_matched_quadratic_holds():
    e = resolve_entry("quadratic?lambda=1")
    pf = matched_half_power(2.0)
    rep = check_condition_A(e.functional, pf, np.array([1.0]), 2.0)
    assert rep.holds and not rep.equilibrium
    # budget = r - theta(f(x0)) = 2 - 2 sqrt(0.5 / 2) = 1
    assert math.isclose(rep.theta_budget, 1.0, abs_tol=1e-12)
    strict = check_condition_A(e.functional, pf, np.array([1.0]), 2.0, strict=True)
    assert strict.holds


def test_condition_A_budget_boundary_strictness():
    """theta(f(x0)) == r exactly: the plain condition holds, the strict one fails."""
    e = resolve_entry("quadratic?lambda=1")
    pf = matched_half_power(2.0)
    rep = check_condition_A(e.functional, pf, np.array([1.0]), 1.0)
    strict = check_condition_A(e.functional, pf, np.array([1.0]), 1.0, strict=True)
    assert rep.holds
    assert not strict.holds
    assert abs(rep.theta_budget) <= 1e-12


def test_condition_C_boundary_strictness():
    e = resolve_entry("truncated-parabola")
    x0 = np.array([1.0])
    assert check_condition_C(e.functional, x0, 1.0).holds
    assert not check_condition_C(e.functional, x0, 1.0, strict=True).holds


def test_sharpness_budget_deficit_is_minus_eps():
    e = resolve_entry("sharpness?c=1&gamma=0.5&M=4&eps=0.05")
    pf = make_power_theta(1.0, 0.5)
    rep = check_condition_A(e.functional, pf, np.array([1.0]), 1.0)
    assert not rep.holds
    assert math.isclose(rep.theta_budget, -0.05, abs_tol=1e-12)
    # only the budget fails; the slope inequality is tight but satisfied
    assert rep.details["slope_ok"]
    assert not rep.details["budget_ok"]


def test_failing_check_reports_worst_witness():
    e = resolve_entry("sharpness?c=1&gamma=0.5&M=4&eps=0.05")
    pf = make_power_theta(1.0, 0.5)
    rep = check_condition_A(e.functional, pf, np.array([1.0]), 1.0)
    point, gap = rep.worst_witness
    assert abs(point[0] - 1.0) < 1.0
    assert math.isclose(gap, rep.details["min_product"] - 1.0, abs_tol=1e-15)


def test_trivial_equilibrium_at_minimiser():
    e = resolve_entry("quadratic?lambda=1")
    x0 = np.array([0.0])
    for rep in (
        check_condition_C(e.functional, x0, 1.0),
        check_condition_C(e.functional, x0, 1.0, strict=True),
        check_condition_A(e.functional, matched_half_power(2.0), x0, 1.0),
    ):
        assert rep.holds
        assert rep.equilibrium


def test_estimates_are_deterministic():
    e = resolve_entry("double-well?lambda=1&a=1")
    a = estimate_alpha(e.functional, np.array([0.5]), 0.4)
    b = estimate_alpha(e.functional, np.array([0.5]), 0.4)
    assert a == b
    r1 = check_condition_C(e.functional, np.array([0.5]), 0.4)
    r2 = check_condition_C(e.functional, np.array([0.5]), 0.4)
    assert r1.alpha_estimate == r2.alpha_estimate and r1.holds == r2.holds


@pytest.mark.parametrize("cid,anchor,r0", EQUIV_ANCHORS)
def test_equivalence_A_with_matched_theta_and_C(cid, anchor, r0):
    """Condition A under theta(u) = 2 sqrt(u/alpha) agrees with condition C."""
    e = resolve_entry(cid)
    x0 = np.array([anchor])
    for r in (0.5 * r0, r0, 1.5 * r0):
        est = estimate_alpha(e.functional, x0, r)
        repC = check_condition_C(e.functional, x0, r, alpha_override=est)
        repCs = check_condition_C(e.functional, x0, r, alpha_override=est, strict=True)
        if est <= 0.0:
            assert not repC.holds and not repCs.holds
            continue
        pf = matched_half_power(est)
        repA = check_condition_A(e.functional, pf, x0, r)
        repAs = check_condition_A(e.functional, pf, x0, r, strict=True)
        assert repA.holds == repC.holds, (cid, r)
        assert repAs.holds == repCs.holds, (cid, r)


@given(
    x0=st.floats(min_value=0.6, max_value=2.0),
    radii=st.tuples(
        st.floats(min_value=0.1, max_value=1.4),
        st.floats(min_value=0.1, max_value=1.4),
    ),
)
def test_alpha_estimate_decreases_with_radius(x0, radii):
    # the infimum over a larger ball can only be smaller
    e = resolve_entry("power-potential?p=4")
    r1, r2 = sorted(radii)
    a_small = estimate_alpha(e.functional, np.array([x0]), r1)
    a_large = estimate_alpha(e.functional, np.array([x0]), r2)
    assert a_large <= a_small + 1e-9


def _same(a, b) -> bool:
    """Exact equality, NaN equal to NaN, arrays compared element by element."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=True)
        )
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


def _oracle_free(cid, batched=False):
    """The entry's value oracle alone: every slope comes from ball sampling."""
    f = resolve_entry(cid).functional
    return Functional(
        label=f"oracle-free {cid}",
        value=f.value,
        backend=f.backend,
        batch_value=f.batch_value if batched else None,
    )


@pytest.mark.parametrize(
    "f,theta,x0,r,kwargs",
    [
        (resolve_entry("quadratic?lambda=1").functional, (0.5**0.5, 0.5), [1.0], 1.0, {}),
        (resolve_entry("sharpness?c=1&gamma=0.5&M=4&eps=0.05").functional, (1.0, 0.5), [1.0], 1.0, {}),
        (resolve_entry("truncated-parabola").functional, (0.5, 0.5), [1.0], 1.5, {}),
        (resolve_entry("double-well?lambda=1&a=1").functional, (0.5**0.5, 0.5), [0.5], 0.5,
         {"alpha_override": 2.0}),
        (resolve_entry("quadratic?lambda=2&center=0,0").functional, (0.5, 0.5), [1.0, 0.5], 0.8,
         {"sample_count": 256}),
        (resolve_entry("power-potential?p=4&center=0,0,0").functional, (1.0, 0.25),
         [1.0, 0.5, 0.25], 1.2, {"sample_count": 512, "seed": 7}),
        (_oracle_free("quadratic?lambda=1"), (0.5**0.5, 0.5), [1.0], 0.5, {"sample_count": 512}),
        (_oracle_free("quadratic?lambda=1&center=0,0", batched=True), (0.5**0.5, 0.5),
         [1.0, 0.5], 0.5, {"sample_count": 64}),
        (resolve_entry("quadratic?lambda=1").functional, (0.5**0.5, 0.5), [0.0], 1.0, {}),
    ],
    ids=["q-1d", "sharpness", "trunc", "dw-override", "q-2d", "p4-3d", "free-1d", "free-2d",
         "equilibrium"],
)
def test_check_conditions_matches_the_four_checks(f, theta, x0, r, kwargs):
    pf = make_power_theta(*theta)
    x0 = np.array(x0)
    together = check_conditions(f, pf, x0, r, **kwargs)
    a_kwargs = {k: v for k, v in kwargs.items() if k != "alpha_override"}
    apart = {
        "A": check_condition_A(f, pf, x0, r, **a_kwargs),
        "A-strict": check_condition_A(f, pf, x0, r, strict=True, **a_kwargs),
        "C": check_condition_C(f, x0, r, **kwargs),
        "C-strict": check_condition_C(f, x0, r, strict=True, **kwargs),
    }
    assert together.keys() == apart.keys()
    for name, rep in apart.items():
        for fld in dataclasses.fields(ConditionReport):
            mine, theirs = getattr(together[name], fld.name), getattr(rep, fld.name)
            assert _same(mine, theirs), (name, fld.name, mine, theirs)


def test_reports_say_how_the_verdict_was_computed():
    pf = make_power_theta(0.5**0.5, 0.5)
    x0 = np.array([1.0])
    sampled = check_conditions(_oracle_free("quadratic?lambda=1"), pf, x0, 0.5, sample_count=64, seed=3)
    for rep in sampled.values():
        assert rep.details["sample_count"] == 64 and rep.details["seed"] == 3
        assert rep.details["slope_method"] == "ball-sampling"
    exact = check_conditions(resolve_entry("quadratic?lambda=1").functional, pf, x0, 0.5,
                             alpha_override=2.0)
    assert exact["A"].details["slope_method"] == "gradient-norm"
    # a given alpha is not a sampled verdict
    assert exact["C"].details["sample_count"] == 0
    assert exact["C"].details["slope_method"] is None


def test_oracle_free_refinement_stops_at_the_sampled_slope_radius():
    # below slope.FINEST_RADII[-1] two sampled keys differ only by sampling
    # noise; refining down to REFINE_STEP_TOL took 46,477 value calls here
    f = resolve_entry("quadratic?lambda=1&center=0,0").functional
    calls = []

    def value(x):
        calls.append(1)
        return f.value(x)

    counted = Functional(label="counted quadratic", value=value, backend=f.backend)
    rep = check_condition_C(counted, [1.0, 0.5], 0.5, sample_count=64)
    assert len(calls) <= 25_000
    assert not rep.holds
    assert rep.alpha_estimate == pytest.approx(2.0, rel=0.02)


def test_scans_with_exact_slopes_refine_to_the_step_tolerance():
    # pinned bit for bit: the sampled-slope floor leaves oracle scans alone
    f = resolve_entry("quadratic?lambda=1&center=0,0").functional
    reps = check_conditions(f, make_power_theta(1.0 / math.sqrt(2.0), 0.5), [1.0, 0.5], 0.5)
    a_witness = ([0.7363981941614348, 0.5959111629999189], -3.3306690738754696e-16)
    c_witness = ([0.7404563105340728, 0.7175360579025096], -8.0)
    for name, (point, gap) in [("A", a_witness), ("A-strict", a_witness),
                               ("C", c_witness), ("C-strict", c_witness)]:
        rep = reps[name]
        assert not rep.holds and rep.details["slope_method"] == "gradient-norm"
        assert rep.alpha_estimate == 1.9999999999999991, name
        assert rep.worst_witness[0].tolist() == point and rep.worst_witness[1] == gap, name
    assert reps["A"].details["min_product"] == 0.9999999999999997


def test_a_scan_reads_every_gradient_from_the_batched_oracle():
    # the per-point scan made 1,175 smooth_gradient calls here
    f = resolve_entry("quadratic?lambda=1").functional
    calls = {"scalar": 0, "batched": 0}

    def gradient(x):
        calls["scalar"] += 1
        return f.smooth_gradient(x)

    def batch_gradient(xs):
        calls["batched"] += 1
        return f.batch_gradient(xs)

    counted = dataclasses.replace(f, smooth_gradient=gradient, batch_gradient=batch_gradient)
    reps = check_conditions(counted, make_power_theta(math.sqrt(0.5), 0.5), [1.0], 1.5)
    assert all(rep.holds for rep in reps.values())
    assert calls == {"scalar": 0, "batched": 79}


def test_an_oracle_free_scan_keeps_its_value_calls():
    f = resolve_entry("quadratic?lambda=1").functional
    calls = []

    def value(x):
        calls.append(1)
        return f.value(x)

    counted = Functional(label="counted quadratic", value=value, backend=f.backend)
    estimate_alpha(counted, [1.0], 0.5)
    assert len(calls) == 6415


@pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan, 0.0, -1.0, True])
def test_checks_reject_a_radius_that_is_not_positive_and_finite(r):
    # r = inf sampled only non-finite points, so nothing was admissible and A "held"
    f = resolve_entry("truncated-parabola").functional
    pf = make_power_theta(0.5, 0.5)
    for check in (lambda: check_condition_A(f, pf, [1.0], r),
                  lambda: check_condition_C(f, [1.0], r),
                  lambda: check_conditions(f, pf, [1.0], r),
                  lambda: estimate_alpha(f, [1.0], r)):
        with pytest.raises(ValueError, match="r must be a positive finite number"):
            check()


@pytest.mark.parametrize("count", [-1, 0, 2.0, True, "64"])
def test_checks_reject_a_sample_count_that_is_not_a_positive_integer(count):
    # -1 sampled nothing and "held"; 0 raised ZeroDivisionError
    f = resolve_entry("quadratic?lambda=1").functional
    pf = make_power_theta(math.sqrt(0.5), 0.5)
    for check in (lambda: check_condition_A(f, pf, [1.0], 1.5, sample_count=count),
                  lambda: check_condition_C(f, [1.0], 1.5, sample_count=count),
                  lambda: check_conditions(f, pf, [1.0], 1.5, sample_count=count),
                  lambda: estimate_alpha(f, [1.0], 1.5, sample_count=count)):
        with pytest.raises(ValueError, match="sample_count must be a positive integer"):
            check()
