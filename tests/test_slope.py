"""Sampled descending slopes."""

import math

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
from klflow.sampling import SAMPLER_SEED, unit_directions

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
            a = e.functional.analytic_slope(x)
            s = sampled_slope(e.functional, x).value
            if not np.isfinite(a):
                assert not np.isfinite(s)
            else:
                assert abs(s - a) <= max(0.02 * abs(a), 1e-3), (cid, p, a, s)
