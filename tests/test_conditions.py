"""Threshold condition checks: alpha estimation, budgets, and the equivalence."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from klflow import (
    EuclideanBackend,
    Functional,
    check_condition_A,
    check_condition_C,
    estimate_alpha,
    make_power_theta,
    matched_half_power,
    resolve_entry,
)
from klflow.conditions import (
    DEFAULT_SAMPLE_COUNT,
    REFINE_STEP_TOL,
    ConditionReport,
    _scan,
    check_conditions,
)
from klflow.core import INF, norm, row_norms
from klflow.sampling import SAMPLER_SEED, ball_sample
from klflow.slope import FINEST_RADII, descending_slopes
from klflow.theta import ParameterFunction

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
    # the per-point scan made 1,175 smooth_gradient calls here, and scoring
    # each search's compass levels apart 79 batched ones; now one call
    # scores the sample and one each of the 13 compass levels of all six
    # searches
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
    assert calls == {"scalar": 0, "batched": 14}


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


# -- the lockstep compass searches against one search at a time ---------------


def _one_search_at_a_time(f, x0, r, f_x0, pf, sample_count, seed):
    """``conditions._scan`` as it was before its searches ran in lockstep: each
    compass search scores each of its levels as a batch of its own."""
    methods = set()

    def admissible(pts):
        pts = pts[row_norms(pts - x0) < r]
        fys = f.values(pts)
        keep = (0.0 < fys) & (fys <= f_x0)
        pts, fys = pts[keep], fys[keep]
        slopes, used = descending_slopes(f, pts, fys)
        methods.update(used)
        return pts, fys, slopes

    def compass_search(scored, y0, v0, h, floor):
        axes = np.vstack([np.eye(y0.size), -np.eye(y0.size)])
        y, v, step = y0, v0, h
        while step > max(REFINE_STEP_TOL * max(1.0, norm(y)), floor):
            probes = scored(y + step * axes)
            best = min(probes, key=lambda p: p[1], default=None)
            if best is not None and best[1] < v:
                y, v = best
            else:
                step /= 4.0
        return y, v

    sample = admissible(ball_sample(x0, r, sample_count, seed))
    n_sample = len(sample[1])
    out = {"n_admissible": n_sample}
    h = 4.0 * r * (sample_count ** (-1.0 / x0.size))
    floor = float(FINEST_RADII[-1]) if "ball-sampling" in methods else 0.0

    def sampling():
        return {"sample_count": sample_count, "seed": seed,
                "slope_method": "+".join(sorted(methods)) or None}

    def refined_min(keys):
        def scored(pts):
            pts, fys, slopes = admissible(pts)
            return list(zip(pts, keys(slopes, fys)))

        pts, fys, slopes = sample
        vals = keys(slopes, fys)
        starts = sorted(range(n_sample), key=vals.__getitem__)[:3]
        best_val, best_pt = vals[starts[0]], pts[starts[0]]
        for i in starts:
            if vals[i] == INF:
                continue
            y_ref, v_ref = compass_search(scored, pts[i], vals[i], h, floor)
            if v_ref < best_val:
                best_val, best_pt = v_ref, y_ref
        return best_val, best_pt

    if n_sample:
        alpha, out["alpha_witness"] = refined_min(lambda s, fys: (s * s / fys).tolist())
        out["alpha"] = max(float(alpha), 0.0)
    else:
        out["alpha"], out["alpha_witness"] = INF, None
    out["alpha_sampling"] = sampling()
    if pf is not None:
        if n_sample:
            prod, out["product_witness"] = refined_min(lambda slopes, fys: [
                INF if s == INF else pf.theta_deriv(fy) * s
                for s, fy in zip(slopes.tolist(), fys.tolist())
            ])
            out["min_product"] = float(prod)
        else:
            out["min_product"], out["product_witness"] = INF, None
    out["sampling"] = sampling()
    return out


def _assert_scans_agree(f, x0, r, pf, sample_count=DEFAULT_SAMPLE_COUNT, seed=SAMPLER_SEED):
    """``_scan`` returns what one search at a time returns, bit for bit."""
    x0 = np.asarray(x0, dtype=float)
    f_x0 = f.value(x0)

    def plain(scan):  # points as lists; repr tells every float apart, NaN too
        return repr(sorted((k, v.tolist() if isinstance(v, np.ndarray) else v)
                           for k, v in scan.items()))

    got = _scan(f, x0, r, f_x0, pf, sample_count, seed)
    assert plain(got) == plain(_one_search_at_a_time(f, x0, r, f_x0, pf, sample_count, seed))
    return got


@pytest.mark.parametrize("cid, anchors", [
    ("quadratic?lambda=1", ([0.5], [1.7])),
    ("double-well?lambda=1&a=1", ([0.5], [1.7])),
    ("asymmetric-double-well", ([0.5], [-1.7])),
    ("truncated-parabola", ([0.5], [-0.7])),
    ("staircase?m=1&eps=0.1", ([0.5], [1.5])),
    ("power-potential?p=1", ([0.5], [1.7])),
    ("power-potential?p=4", ([0.5], [1.7])),
    ("sharpness?c=1&gamma=0.5&M=4&eps=0.05", ([0.5], [1.7])),
    ("quadratic?lambda=1&center=0,0", ([1.0, 0.5], [-0.3, 1.2])),
    ("power-potential?p=1&center=0,0,0", ([0.5, 0.2, -0.1], [1.0, -1.0, 0.5])),
])
def test_lockstep_scans_of_every_corpus_entry_are_one_search_at_a_time(cid, anchors):
    f = resolve_entry(cid).functional
    for x0 in anchors:
        for r in (0.5, 1.5):
            for pf in (None, make_power_theta(0.5, 0.5)):
                _assert_scans_agree(f, x0, r, pf)


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("cid, x0", [
    ("quadratic?lambda=1", [1.0]),
    ("quadratic?lambda=1&center=0,0", [1.0, 0.5]),
])
def test_lockstep_scans_without_oracles_are_one_search_at_a_time(cid, x0, batched):
    f = resolve_entry(cid).functional
    oracle_free = Functional(label=f"oracle-free {cid}", value=f.value, backend=f.backend,
                             batch_value=f.batch_value if batched else None)
    for pf in (None, make_power_theta(0.5, 0.5)):
        scan = _assert_scans_agree(oracle_free, x0, 0.5, pf, sample_count=256)
        assert scan["sampling"]["slope_method"] == "ball-sampling"


def test_lockstep_scans_keep_the_first_of_tied_and_nan_keys():
    # the slope falls with x1 + x2 on a 2^-20 lattice, so a probe along +e1
    # ties with the one along +e2 and the first must win; theta'(0.9) is NaN,
    # and f = 0.9 beyond x1 = 0.4, where a NaN probe must stop a search as
    # ``min`` stops it
    def slope(x):
        return 3.0 - round((x[0] + x[1]) * 2.0**20) / 2.0**20

    tied = Functional(label="tied slopes", value=lambda x: 0.9 if x[0] > 0.4 else 1.0,
                      backend=EuclideanBackend(2),
                      smooth_gradient=lambda x: np.array([slope(x), 0.0]))
    pf = ParameterFunction(theta=lambda u: u, theta_deriv=lambda u: math.nan if u < 0.95 else 1.0)
    scan = _assert_scans_agree(tied, [0.0, 0.0], 1.0, pf, sample_count=512)
    assert scan["sampling"]["slope_method"] == "gradient-norm"


def test_lockstep_scans_drop_inadmissible_probes():
    # a NaN probe after an inadmissible one: dropping the inadmissible probe
    # makes the NaN the first and stops the move; a key of +inf would not
    k, a = np.array([1.96, 2.7]), 0.2
    wave = Functional(label="wave", value=lambda x: 1.0 + a * math.sin(k @ x),
                      backend=EuclideanBackend(2),
                      smooth_gradient=lambda x: a * math.cos(k @ x) * k)
    pf = ParameterFunction(theta=lambda u: u,
                           theta_deriv=lambda u: math.nan if 0.9 < u < 1.1 else u ** -0.5)
    _assert_scans_agree(wave, [0.47, 0.83], 0.945278, pf, sample_count=256, seed=7)


@pytest.mark.parametrize("batched", [False, True])
def test_lockstep_scans_attribute_slope_methods_to_their_key(batched):
    # f = |x|^1.5: alpha = 2.25 / sqrt|x| is least at the edge |x| = 1 and,
    # for gamma = 0.9, theta' |df| = 1.35 |x|^0.35 near 0, where the gradient
    # oracle is blind and the slope comes from ball sampling
    blind = 1e-6

    def gradient(x):
        return None if abs(x[0]) < blind else np.array([1.5 * math.copysign(abs(x[0]) ** 0.5, x[0])])

    def batch_gradient(xs):
        g = 1.5 * np.sign(xs) * np.abs(xs) ** 0.5
        return np.where(np.abs(xs) < blind, math.nan, g)

    f = Functional(label="blind near 0", value=lambda x: abs(float(x[0])) ** 1.5,
                   backend=EuclideanBackend(1), smooth_gradient=gradient,
                   batch_gradient=batch_gradient if batched else None)
    scan = _assert_scans_agree(f, [1.0], 1.5, make_power_theta(1.0, 0.9))
    assert scan["alpha_sampling"]["slope_method"] == "gradient-norm"
    assert scan["sampling"]["slope_method"] == "ball-sampling+gradient-norm"
    assert abs(scan["product_witness"][0]) < blind
