"""Descending slopes: derived from the gradient oracle, and sampled."""

import math
import urllib.parse

import numpy as np
import pytest

from klflow import (
    EuclideanBackend,
    Functional,
    descending_slope,
    resolve_entry,
    sampled_slope,
)
from klflow.core import INF
from klflow.slope import PROBE_BLOCK, descending_slopes
from klflow.sampling import SAMPLER_SEED, unit_directions
from klflow.theta import make_power_theta


def reference_slope(entry_id, x):
    """The closed-form descending slope of the corpus entry ``entry_id`` at x."""
    name, _, query = entry_id.partition("?")
    q = {k: np.array(v.split(","), dtype=float) if "," in v else float(v)
         for k, v in urllib.parse.parse_qsl(query)}
    lam, a, eps = q.get("lambda", 1.0), q.get("a", 1.0), q.get("eps", 0.1)
    v = float(x[0])
    if name == "quadratic":
        return lam * math.hypot(*(x - q.get("center", 0.0)))
    if name == "double-well":
        return lam * abs(abs(v) - a)
    if name == "truncated-parabola":
        return 2.0 * v if v > 0 else 0.0
    if name == "staircase":
        return q.get("m", 1.0) if v > 0 else 0.0
    if name == "asymmetric-double-well":
        # the left well for v <= 0, the right one flattened to a plateau for v > 0
        if v <= 0:
            return lam * abs(v + a)
        return 0.0 if 0.5 * lam * (v - a) ** 2 <= eps else lam * abs(v - a)
    if name == "power-potential":
        p, scale = q.get("p", 2.0), q.get("scale", 1.0)
        d = math.hypot(*(x - q.get("center", 0.0)))
        return 0.0 if d == 0.0 else scale * p * d ** (p - 1.0)
    if name == "sharpness":
        c, gamma = q.get("c", 1.0), q.get("gamma", 0.5)
        if v <= 0 or v >= q.get("M", 4.0):
            return 0.0
        pf = make_power_theta(c, gamma)
        u = pf.theta_inverse(v + q.get("eps", 0.0))
        if u == 0.0:  # the limit of 1 / theta' at 0
            return 1.0 / c if gamma == 1.0 else 0.0
        return 1.0 / pf.theta_deriv(u)
    raise KeyError(entry_id)


CORPUS_IDS = (
    "quadratic?lambda=1",
    "double-well?lambda=1&a=1",
    "asymmetric-double-well",
    "truncated-parabola",
    "staircase?m=1&eps=0.1",
    "power-potential?p=1",
    "power-potential?p=4",
    "sharpness?c=1&gamma=0.5&M=4&eps=0.05",
)


def test_quadratic_slope_value():
    e = resolve_entry("quadratic?lambda=1")
    est = sampled_slope(e.functional, np.array([2.0]))
    assert abs(est.value - 2.0) < 1e-4
    assert est.radius_used > 0
    assert est.samples > 0


def test_double_well_ridge_slope_is_lambda_a():
    # descent from the ridge drops toward either well at unit rate
    e = resolve_entry("double-well?lambda=1&a=1")
    est = sampled_slope(e.functional, np.array([0.0]))
    assert abs(est.value - 1.0) < 1e-4


def test_cone_slope_at_kink_and_away():
    e = resolve_entry("power-potential?p=1")
    assert abs(sampled_slope(e.functional, np.array([1.0])).value - 1.0) < 1e-4
    # the vertex is the minimiser: nothing descends from it
    assert sampled_slope(e.functional, np.array([0.0])).value == 0.0


def test_plateau_slope_is_zero():
    e = resolve_entry("truncated-parabola")
    assert sampled_slope(e.functional, np.array([-0.5])).value == 0.0


def test_slope_outside_effective_domain_is_infinite():
    f = Functional(
        label="boxed",
        backend=EuclideanBackend(1),
        value=lambda x: float(0.5 * x[0] ** 2) if abs(x[0]) <= 1.0 else INF,
    )
    assert math.isinf(descending_slope(f, np.array([1.5])).value)
    assert abs(descending_slope(f, np.array([0.5])).value - 0.5) < 1e-4


#: the full shrinking schedule whose two finest radii the estimator keeps
FOUR_RADII = (1e-2, 1e-3, 1e-4, 1e-5)


def _four_radius_reference(f, x, n_directions=64):
    """The scalar loop over every radius that the estimator's value follows."""
    fx = f.value(x)
    dirs = unit_directions(x.size, n_directions, SAMPLER_SEED)
    per_radius = []
    for r in FOUR_RADII:
        best = 0.0
        for d in dirs:
            fy = f.value(x + r * d)
            if fy < fx:
                best = max(best, (fx - fy) / r)
        per_radius.append((r, best))
    return max(q for _, q in per_radius[-2:]), per_radius[-1][0]


def _oracle_free(cid):
    f = resolve_entry(cid).functional
    return Functional(label=f"oracle-free {cid}", value=f.value, backend=f.backend)


BOXED = Functional(
    label="boxed",
    backend=EuclideanBackend(1),
    value=lambda x: float(0.5 * x[0] ** 2) if abs(x[0]) <= 1.0 else INF,
)


@pytest.mark.parametrize(
    "f,point",
    [
        (resolve_entry("power-potential?p=1").functional, [0.0]),  # kink at the minimiser
        (resolve_entry("power-potential?p=1").functional, [1.0]),
        (resolve_entry("double-well?lambda=1&a=1").functional, [0.0]),  # ridge
        (resolve_entry("double-well?lambda=1&a=1").functional, [1.0]),  # well bottom
        (resolve_entry("asymmetric-double-well").functional, [0.3]),
        (resolve_entry("truncated-parabola").functional, [-0.5]),  # plateau
        (resolve_entry("truncated-parabola").functional, [0.0]),  # plateau edge
        (resolve_entry("staircase?m=1&eps=0.1").functional, [1.0]),  # jump
        (resolve_entry("staircase?m=1&eps=0.1").functional, [-1.0]),  # flat
        (BOXED, [1.0]),  # +inf neighbours on one side
        (BOXED, [1.0 + 5e-6]),  # outside the domain
        (_oracle_free("quadratic?lambda=1&center=0,0"), [1.0, 0.5]),
        (_oracle_free("power-potential?p=1&center=0,0,0"), [0.0, 0.0, 0.0]),
        (resolve_entry("power-potential?p=1&center=0,0,0").functional, [0.3, -0.2, 0.1]),
    ],
)
def test_sampled_slope_is_the_four_radius_value(f, point):
    x = np.array(point)
    est = sampled_slope(f, x)
    value, radius = _four_radius_reference(f, x)
    assert est.value == value
    if math.isinf(value):
        assert (est.radius_used, est.samples) == (0.0, 0)
        return
    assert est.radius_used == radius
    # only the two finest radii are probed
    assert est.samples == 2 * len(unit_directions(x.size, 64, SAMPLER_SEED))


def test_oracle_free_2d_sampled_slope_call_budget():
    f = resolve_entry("quadratic?lambda=1&center=0,0").functional
    calls = []

    def value(x):
        calls.append(1)
        return f.value(x)

    counted = Functional(label="counted", value=value, backend=f.backend)
    est = sampled_slope(counted, np.array([1.0, 0.5]))
    assert len(calls) == 1 + 2 * 64
    assert est.samples == 2 * 64
    calls.clear()
    descending_slope(counted, np.array([1.0, 0.5]), fx=f.value(np.array([1.0, 0.5])))
    assert len(calls) == 2 * 64


def test_corpus_sampled_matches_analytic():
    """Estimator agrees with closed forms away from the nonsmooth points."""
    rng = np.random.default_rng(902)
    for cid in CORPUS_IDS:
        e = resolve_entry(cid)
        lo, hi = e.sample_box
        pts = [
            p
            for p in rng.uniform(lo, hi, size=200)
            if all(abs(p - q) > 1e-3 for q in e.nonsmooth_points)
        ][:100]
        assert len(pts) == 100
        for p in pts:
            x = np.array([p])
            a = reference_slope(cid, x)
            s = sampled_slope(e.functional, x).value
            if not np.isfinite(a):
                assert not np.isfinite(s)
            else:
                assert abs(s - a) <= max(0.02 * abs(a), 1e-3), (cid, p, a, s)


REFERENCE_IDS = (
    "quadratic?lambda=2.5&center=0.3",
    "double-well?lambda=0.7&a=1.3",
    "truncated-parabola?x_ref=2",
    "staircase?m=1&eps=0.1",
    "staircase?m=2&eps=0",
    "asymmetric-double-well",
    "asymmetric-double-well?lambda=2&a=1.5&eps=0.3",
    "sharpness?c=1&gamma=0.5&M=4&eps=0.05",
    "sharpness?c=1&gamma=0.5&M=4&eps=0",
    "sharpness?c=1.3&gamma=1&M=2&eps=0",
    "power-potential?p=1",
    "power-potential?p=1.5&scale=2",
    "power-potential?p=4",
)


def _ulps(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b))) if a != b else 0.0


@pytest.mark.parametrize("cid", REFERENCE_IDS)
def test_descending_slope_is_the_reference_table(cid):
    # at random points and at every nonsmooth point and its two float
    # neighbours the slope comes from the gradient oracle, never sampling
    e = resolve_entry(cid)
    rng = np.random.default_rng(2811)
    pts = rng.uniform(*e.sample_box, size=2000).tolist()
    for q in e.nonsmooth_points:
        pts += [math.nextafter(q, -INF), q, math.nextafter(q, INF)]
    exact = not cid.startswith("power-potential")
    for p in pts:
        x = np.array([p])
        est = descending_slope(e.functional, x)
        ref = reference_slope(cid, x)
        assert est.method == "gradient-norm", (cid, p)
        if exact:
            assert est.value == ref, (cid, p, est.value, ref)
        else:  # norm(g) rounds differently from scale p d^(p - 1)
            assert _ulps(est.value, ref) <= 4, (cid, p, est.value, ref)


@pytest.mark.parametrize("cid", ["power-potential?p=4&center=0,0,0", "power-potential?p=1.5&center=1,0",
                                 "quadratic?lambda=1&center=0,0"])
def test_descending_slope_is_the_reference_table_in_several_dimensions(cid):
    e = resolve_entry(cid)
    rng = np.random.default_rng(2812)
    for x in rng.uniform(*e.sample_box, size=(500, e.functional.backend.dimension)):
        est = descending_slope(e.functional, x)
        assert est.method == "gradient-norm"
        assert _ulps(est.value, reference_slope(cid, x)) <= 4, (cid, x)


@pytest.mark.parametrize(
    "cid,point,expected",
    [
        ("staircase?m=2&eps=0.1", [1.0], 2.0),  # the jump: descent from the left
        ("staircase?m=2&eps=0.1", [0.0], 0.0),  # the ramp ascends from the plateau
        ("sharpness?c=1&gamma=0.5&M=4&eps=0", [4.0], 0.0),  # the ramp jumps up on the left
        ("sharpness?c=1&gamma=0.5&M=4&eps=0", [0.0], 0.0),
        ("truncated-parabola", [0.0], 0.0),
        ("double-well?lambda=0.5&a=3", [0.0], 1.5),  # the ridge descends to both wells
        ("asymmetric-double-well?lambda=2&a=1.5&eps=0.3", [0.0], 3.0),
        ("power-potential?p=1", [0.0], 0.0),
        ("power-potential?p=1&center=0,0", [0.0, 0.0], 0.0),
    ],
)
def test_kink_slopes_are_exact(cid, point, expected):
    f = resolve_entry(cid).functional
    x = np.array(point)
    assert f.gradient(x) is None
    est = descending_slope(f, x)
    assert est.value == expected
    assert est.method == ("gradient-norm" if x.size == 1 else "ball-sampling")


@pytest.mark.parametrize(
    "cid,point",
    [
        ("truncated-parabola", [5e-324]),
        ("power-potential?p=1.5", [-1e-300]),
        ("quadratic?lambda=1&center=0,0", [1e-160, 3e-160]),
        ("power-potential?p=4&center=0,0", [1e-60, -1e-60]),  # f = 4e-240 > 0
    ],
)
def test_gradient_norm_keeps_its_magnitude_where_squares_underflow(cid, point):
    x = np.array(point)
    est = descending_slope(resolve_entry(cid).functional, x)
    assert est.value > 0.0
    assert _ulps(est.value, reference_slope(cid, x)) <= 4


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _assert_slopes_are_per_point(f, pts):
    """``descending_slopes`` equals the per-point calls in values and methods."""
    pts = np.asarray(pts, dtype=float).reshape(-1, f.backend.dimension)
    fxs = np.array([f.value(p) for p in pts], dtype=float)
    values, methods = descending_slopes(f, pts, fxs)
    ests = [descending_slope(f, p, fx=fx) for p, fx in zip(pts, fxs.tolist())]
    assert _bits(values) == _bits([e.value for e in ests])
    assert methods == {e.method for e in ests}
    return methods


def _counted(f, batched=True, gradient=False):
    """f's value oracles (and its scalar gradient), counting batched calls."""
    rows = []

    def batch_value(xs):
        rows.append(len(xs))
        return f.batch_value(xs)

    counted = Functional(
        label=f"counted {f.label}", value=f.value, backend=f.backend,
        batch_value=batch_value if batched else None,
        smooth_gradient=f.smooth_gradient if gradient else None,
    )
    return counted, rows


@pytest.mark.parametrize("cid", CORPUS_IDS + ("quadratic?lambda=1&center=0,0",
                                              "power-potential?p=1&center=0,0,0"))
def test_descending_slopes_is_the_per_point_loop_with_kink_rows(cid):
    e = resolve_entry(cid)
    dim = e.functional.backend.dimension
    rng = np.random.default_rng(2813)
    pts = rng.uniform(*e.sample_box, size=(300, dim))
    kinks = [[v] * dim for q in e.nonsmooth_points
             for v in (math.nextafter(q, -INF), q, math.nextafter(q, INF))]
    centre = [[0.0] * dim] if dim > 1 else []
    methods = _assert_slopes_are_per_point(e.functional, np.vstack([pts, *kinks, *centre]))
    assert "gradient-norm" in methods


def test_descending_slopes_of_an_all_kink_batch_report_only_the_fallback():
    cone = resolve_entry("power-potential?p=1&center=0,0").functional
    assert _assert_slopes_are_per_point(cone, [[0.0, 0.0], [0.0, 0.0]]) == {"ball-sampling"}
    # a 1-D kink reads its neighbours' gradients, which is a gradient norm
    stairs = resolve_entry("staircase?m=2&eps=0.1").functional
    assert _assert_slopes_are_per_point(stairs, [[0.0], [1.0]]) == {"gradient-norm"}


def test_descending_slopes_of_an_empty_batch():
    f = resolve_entry("quadratic?lambda=1").functional
    values, methods = descending_slopes(f, np.empty((0, 1)), np.empty(0))
    assert values.shape == (0,) and methods == set()
    assert _assert_slopes_are_per_point(_oracle_free("quadratic?lambda=1"), []) == set()


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("cid, pts", [
    ("truncated-parabola", [[-0.5], [0.0], [0.3], [1.0], [2.5]]),
    ("quadratic?lambda=1&center=0,0", [[1.0, 0.5], [0.0, 0.0], [-0.3, 2.0]]),
])
def test_descending_slopes_without_oracles_is_the_per_point_loop(cid, pts, batched):
    f, _ = _counted(resolve_entry(cid).functional, batched=batched)
    assert _assert_slopes_are_per_point(f, pts) == {"ball-sampling"}


def test_descending_slopes_outside_the_domain_and_with_oracles_of_their_own():
    # f = +inf rows keep the outside-domain convention, sampled or not
    assert _assert_slopes_are_per_point(BOXED, [[0.5], [1.5], [-0.2]]) == {
        "analytic", "ball-sampling"}
    q = resolve_entry("quadratic?lambda=1&center=0,0").functional
    scalar_only, _ = _counted(q, gradient=True)
    assert _assert_slopes_are_per_point(scalar_only, [[1.0, 0.5], [0.0, 0.0]]) == {
        "gradient-norm"}
    exact = Functional(label="exact", value=q.value, backend=q.backend,
                       analytic_slope=lambda x: float(np.hypot(*x)),
                       smooth_gradient=q.smooth_gradient, batch_gradient=q.batch_gradient)
    assert _assert_slopes_are_per_point(exact, [[1.0, 0.5], [0.3, 0.0]]) == {"analytic"}


def test_descending_slopes_sample_in_blocks_of_probes():
    f, rows = _counted(resolve_entry("quadratic?lambda=1&center=0,0").functional)
    per_point = 2 * len(unit_directions(2, 64, SAMPLER_SEED))
    n = 2 * (PROBE_BLOCK // per_point) + 5  # two full blocks and a part
    pts = np.random.default_rng(2814).uniform(-2.0, 2.0, size=(n, 2))
    _assert_slopes_are_per_point(f, pts)
    blocked = rows[:3]  # the batched call; the rest are the per-point ones
    assert blocked == [PROBE_BLOCK // per_point * per_point] * 2 + [5 * per_point]
    assert max(rows) <= PROBE_BLOCK
