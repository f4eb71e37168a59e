"""Closed-form cross-checks for the registered example functionals."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from klflow import (
    brute_force_minimiser, descending_slope, list_corpus, resolve_entry, resolvent,
    run_prox_sequence,
)
from klflow.core import EuclideanBackend, Functional, dense_scan, norm
from klflow.corpus import make_power_potential, make_quadratic

# several parameter sets per corpus factory, for the batched-oracle checks
BATCH_IDS = [
    "quadratic?lambda=1",
    "quadratic?lambda=2.5&center=0.3",
    "double-well?lambda=1&a=1",
    "double-well?lambda=2&a=0.7",
    "truncated-parabola",
    "truncated-parabola?x_ref=1.7",
    "staircase",
    "staircase?m=2&eps=0.3",
    "staircase?m=0.5&eps=0",
    "asymmetric-double-well",
    "asymmetric-double-well?lambda=2&a=1.3&eps=0.2",
    "power-potential?p=1",
    "power-potential?p=1.5",
    "power-potential?p=2",
    "power-potential?p=2.5&scale=0.7",
    "power-potential?p=3&center=0.4",
    "power-potential?p=4&scale=2",
    "sharpness",
    "sharpness?eps=0.1",
    "sharpness?c=0.7&gamma=0.3&M=3&eps=0.05",
]


def _bits(values) -> list:
    """Raw float64 bit patterns, so that -0.0 and 0.0 (or two NaNs) differ."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def test_registry_lists_every_entry():
    lines = list_corpus()
    ids = {line.split()[0] for line in lines}
    assert ids == {
        "quadratic",
        "double-well",
        "asymmetric-double-well",
        "truncated-parabola",
        "staircase",
        "power-potential",
        "sharpness",
    }


def test_resolve_entry_applies_parameters():
    e = resolve_entry("quadratic?lambda=2.5")
    assert math.isclose(e.functional.value(np.array([1.0])), 1.25)
    e2 = resolve_entry("power-potential?p=4&scale=2")
    assert math.isclose(e2.functional.value(np.array([1.0])), 2.0)
    e3 = resolve_entry("staircase?m=2&eps=0.3")
    assert math.isclose(e3.functional.value(np.array([1.5])), 3.3)


def test_resolve_entry_rejects_unknown():
    with pytest.raises(KeyError):
        resolve_entry("no-such-functional")
    with pytest.raises((KeyError, TypeError, ValueError)):
        resolve_entry("quadratic?bogus=1")


def test_quadratic_oracles():
    e = resolve_entry("quadratic?lambda=1")
    curve = e.analytic_trajectory(np.array([1.0]))
    for t in (0.0, 0.5, 2.0):
        x = curve(t)
        assert math.isclose(float(x[0]), math.exp(-t), rel_tol=1e-12)
        assert math.isclose(
            e.functional.value(x), 0.5 * math.exp(-2.0 * t), rel_tol=1e-12
        )
    (z,) = e.analytic_resolvent(np.array([1.0]), 0.5)
    assert math.isclose(float(z[0]), 1.0 / 1.5, rel_tol=1e-14)
    assert e.known_alpha(np.array([1.0]), 0.5) == 2.0
    g = e.functional.smooth_gradient(np.array([0.7]))
    assert math.isclose(float(g[0]), 0.7, rel_tol=1e-14)


def test_double_well_shape_and_tie():
    e = resolve_entry("double-well?lambda=1&a=1")
    f = e.functional
    assert math.isclose(f.value(np.array([0.4])), 0.18, rel_tol=1e-14)
    assert descending_slope(f, np.array([0.0])).value == 1.0
    pts = e.analytic_resolvent(np.array([0.0]), 0.5)
    vals = sorted(float(p[0]) for p in pts)
    v = 0.5 * 1.0 / 1.5  # lam tau a / (1 + lam tau)
    assert len(vals) == 2
    assert math.isclose(vals[0], -v, rel_tol=1e-12)
    assert math.isclose(vals[1], v, rel_tol=1e-12)
    curve = e.analytic_trajectory(np.array([0.0]), policy="positive-branch")
    assert float(curve(3.0)[0]) > 0.9


def test_truncated_parabola_jump_rule():
    e = resolve_entry("truncated-parabola")
    hop = e.analytic_resolvent(np.array([-0.5]), 1.0)  # jump 0.125 < plateau 0.5
    assert len(hop) == 1 and float(hop[0][0]) == 0.0
    stay = e.analytic_resolvent(np.array([-2.0]), 1.0)  # jump 2 > plateau
    assert len(stay) == 1 and float(stay[0][0]) == -2.0
    both = e.analytic_resolvent(np.array([-1.0]), 1.0)  # jump == plateau
    assert sorted(float(p[0]) for p in both) == [-1.0, 0.0]


def test_staircase_values_and_condition_data():
    e = resolve_entry("staircase?m=1&eps=0.1")
    f = e.functional
    assert f.value(np.array([-1.0])) == 0.0
    assert math.isclose(f.value(np.array([0.5])), 0.5)
    assert math.isclose(f.value(np.array([1.5])), 1.6)
    assert 1.0 in e.nonsmooth_points
    pf, r = e.condition_data(np.array([2.0]))
    # level 2.1: theta(f(x0)) = 2 sqrt(level) * c = 2 * level / m = r
    assert math.isclose(pf.theta(f.value(np.array([2.0]))), r, rel_tol=1e-12)


def test_power_potential_soft_threshold_and_stationarity():
    cone = resolve_entry("power-potential?p=1")
    (z,) = cone.analytic_resolvent(np.array([1.0]), 0.3)
    assert math.isclose(float(z[0]), 0.7, rel_tol=1e-14)
    (z0,) = cone.analytic_resolvent(np.array([0.2]), 0.3)
    assert float(z0[0]) == 0.0
    quartic = resolve_entry("power-potential?p=4")
    tau, x = 0.5, 1.3
    (z4,) = quartic.analytic_resolvent(np.array([x]), tau)
    v = float(z4[0])
    # stationarity of the proximal objective: 4 z^3 + (z - x)/tau = 0
    assert abs(4.0 * v**3 + (v - x) / tau) < 1e-9


def test_sharpness_profile_is_theta_inverse_of_distance():
    e = resolve_entry("sharpness?c=1&gamma=0.5&M=4&eps=0.05")
    f = e.functional
    pf, r = e.condition_data(np.array([1.0]))
    # on the ramp the theta image of f recovers x + eps exactly
    for x in (0.25, 1.0, 3.0):
        assert math.isclose(pf.theta(f.value(np.array([x]))), x + 0.05, rel_tol=1e-12)
    assert f.value(np.array([-0.5])) == f.value(np.array([-2.0]))
    assert f.value(np.array([4.5])) == 0.0


@pytest.mark.parametrize("gamma", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("v", [1e-200, 5e-324])
def test_sharpness_gradient_where_theta_inverse_underflows(gamma, v):
    # theta^{-1}(v) underflows to 0 (except 1e-200 at gamma 0.75); the
    # gradient there is the limit of 1/theta' at 0: 0 below gamma = 1, 1/c at it
    c = 2.0
    f = resolve_entry(f"sharpness?c={c}&gamma={gamma}&M=4&eps=0").functional
    (g,) = f.gradient(np.array([v]))
    if gamma == 1.0:
        assert g == 1.0 / c
    elif f.value(np.array([v])) == 0.0:
        assert g == 0.0
    else:
        assert 0.0 < g < 1e-60
    assert descending_slope(f, np.array([v])).value == g
    seq = run_prox_sequence(f, np.array([v]), 0.1, n_steps=3)
    assert seq.slopes[0] == g


@pytest.mark.parametrize("v", [1e-17, -1e-17, 5e-324, -5e-324, 0.0])
def test_asymmetric_double_well_gradient_is_none_only_at_the_crossing(v):
    # the branches tie in floats for |v| up to about 5.5e-17, but cross
    # only at 0: the sign of v picks the branch
    f = resolve_entry("asymmetric-double-well?lambda=2&a=1.5&eps=0.3").functional
    g = f.gradient(np.array([v]))
    if v == 0.0:
        assert g is None
    else:
        assert g.tolist() == [2.0 * (v + 1.5) if v < 0 else 2.0 * (v - 1.5)]


def test_known_alpha_against_estimates():
    from klflow import check_condition_C, estimate_alpha

    checked = 0
    for line in list_corpus():
        e = resolve_entry(line.split()[0])
        if e.known_alpha is None:
            continue
        for anchor in (1.0, 0.5, -0.8, 2.0):
            x0 = np.array([anchor])
            if e.functional.value(x0) == 0.0:
                continue  # C reports an equilibrium's alpha as inf by design
            for r in (0.5, 1.5):
                known = e.known_alpha(x0, r)
                est = estimate_alpha(e.functional, x0, r)
                assert abs(est - known) <= 0.05 * max(known, 1.0), (e.provenance, anchor, r)
                report = check_condition_C(e.functional, x0, r)
                assert _bits([report.alpha_estimate]) == _bits([est]), (e.provenance, anchor, r)
                checked += 1
    assert checked == 30


def test_brute_force_minimiser_cases():
    q = brute_force_minimiser(resolve_entry("quadratic?lambda=1"))
    assert abs(float(q.point[0])) < 1e-9 and q.value < 1e-18
    assert not q.on_boundary

    dw = brute_force_minimiser(resolve_entry("double-well?lambda=1&a=1"))
    tie_vals = sorted(float(t[0]) for t in dw.ties)
    assert any(abs(v + 1.0) < 1e-9 for v in tie_vals)
    assert any(abs(v - 1.0) < 1e-9 for v in tie_vals)
    assert dw.nearest_distance(np.array([0.9])) < 0.11

    asym = brute_force_minimiser(resolve_entry("asymmetric-double-well"))
    # the flattened right well sits at height eps and is not a tie
    assert abs(float(asym.point[0]) + 1.0) < 1e-9
    assert all(abs(float(t[0]) + 1.0) < 1e-6 for t in asym.ties)

    stair = brute_force_minimiser(resolve_entry("staircase?m=1&eps=0.1"))
    assert stair.on_boundary  # the minimising plateau runs into the box edge
    assert stair.nearest_distance(np.array([0.0])) < 1e-9
    assert stair.nearest_distance(np.array([2.0])) == pytest.approx(2.0, abs=1e-9)


def test_resolvent_machinery_matches_analytic():
    # last flag: require the full tie set, or only a subset of it (knife-edge
    # equal-value ties are not resolvable to the default tie tolerance)
    cases = (
        ("quadratic?lambda=1", 1.0, 0.5, True),
        ("quadratic?lambda=2.5", -0.8, 0.2, True),
        ("double-well?lambda=1&a=1", 0.0, 0.5, True),
        ("power-potential?p=1", 1.0, 0.3, True),
        ("power-potential?p=1", 0.2, 0.3, True),
        ("power-potential?p=4", 1.3, 0.5, True),
        ("truncated-parabola", -0.5, 1.0, True),
        ("truncated-parabola", -1.0, 1.0, False),
    )
    for cid, x, tau, full in cases:
        e = resolve_entry(cid)
        got = resolvent(e.functional, np.array([x]), tau)
        want = sorted(float(p[0]) for p in e.analytic_resolvent(np.array([x]), tau))
        have = sorted(float(p[0]) for p in got.points)
        if full:
            assert len(have) == len(want), (cid, x, tau, have, want)
        else:
            assert 1 <= len(have) <= len(want), (cid, x, tau, have, want)
        for a in have:
            assert min(abs(a - b) for b in want) < 1e-9, (cid, x, tau, have, want)
        assert got.certified


def test_entry_metadata_sanity():
    for line in list_corpus():
        e = resolve_entry(line.split()[0])
        lo, hi = e.sample_box
        assert lo < hi
        for q in e.nonsmooth_points:
            assert lo <= q <= hi


@pytest.mark.parametrize("entry_id", BATCH_IDS)
def test_batched_values_match_scalar_bit_for_bit(entry_id):
    e = resolve_entry(entry_id)
    f = e.functional
    assert f.batch_value is not None
    lo, hi = e.sample_box
    # a fine grid past the sample box, plus every kink and jump exactly; it
    # is dense enough to hit points where numpy's ** rounds differently
    xs = np.concatenate([np.linspace(lo - 1.0, hi + 1.0, 20001), e.nonsmooth_points])
    pts = xs[:, None]
    assert _bits(f.values(pts)) == _bits([f.value(p) for p in pts])


@pytest.mark.parametrize(
    "entry_id, center",
    [
        ("quadratic?lambda=3&center=1,2", (1.0, 2.0)),
        ("quadratic?center=0.5,-1,2", (0.5, -1.0, 2.0)),
        ("power-potential?p=1.5&center=1,2", (1.0, 2.0)),
        ("power-potential?p=4&scale=2&center=0.5,-1,2", (0.5, -1.0, 2.0)),
    ],
)
def test_batched_values_match_scalar_in_several_dimensions(entry_id, center):
    f = resolve_entry(entry_id).functional
    c = np.array(center)
    rng = np.random.default_rng(7)
    pts = np.vstack([c, c + rng.normal(scale=2.0, size=(4000, c.size))])
    assert _bits(f.values(pts)) == _bits([f.value(p) for p in pts])


_coords = st.floats(-1e3, 1e3, allow_nan=False)


@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(_coords, min_size=n, max_size=n), st.lists(_coords, min_size=n, max_size=n)
    )),
    st.floats(1e-3, 1e3),
)
def test_quadratic_value_is_the_np_sum_form_bit_for_bit(point_center, lam):
    # the scalar oracle calls np.add.reduce over all axes, as np.sum does
    x, c = (np.array(v) for v in point_center)
    f = make_quadratic(lam, c).functional
    ref = 0.5 * lam * float(np.sum((x - c) ** 2))
    assert _bits([f.value(x)]) == _bits([ref]) == _bits(f.batch_value(x[None, :]))


def test_values_without_batch_oracle_loops_over_value():
    calls = []

    def value(x):
        calls.append(x.copy())
        return float(x[0]) ** 2 + float(x[1])

    f = Functional("bare", value, EuclideanBackend(2))
    out = f.values([[1.0, 0.5], [-2.0, 0.0], [0.5, 1.0]])
    assert out.dtype == float and out.tolist() == [1.5, 4.0, 1.25]
    assert [p.tolist() for p in calls] == [[1.0, 0.5], [-2.0, 0.0], [0.5, 1.0]]
    with pytest.raises(ValueError, match="values expects"):
        f.values(np.array([1.0, 2.0]))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_norm_is_np_linalg_norm_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    # ordinary, subnormal, tiny (squares underflow), huge (squares overflow)
    # and mixed magnitudes, with zeros
    scales = [1.0, 5e-324, 1e-310, 1e-160, 1e154, 1e300, 0.0]
    vectors = [rng.normal(size=dim) * s for s in scales for _ in range(50)]
    vectors += [rng.normal(size=dim) * rng.choice(scales, size=dim) for _ in range(500)]
    with np.errstate(over="ignore"):  # both overflow to inf alike
        pairs = [(norm(v), np.linalg.norm(v)) for v in vectors]
    for v, (got, ref) in zip(vectors, pairs):
        assert type(got) is float
        assert np.array([got]).view(np.int64) == np.array([ref]).view(np.int64), v


@pytest.mark.parametrize("z", [5e-324, 1e-170, 1e-155, -2e-160])
def test_cone_gradient_is_a_unit_vector_down_to_the_centre(z):
    # the squares of these coordinates are subnormal or 0; the gradient is
    # None at the centre only, so the 1-d resolvent's kink rule sees one point
    cone = resolve_entry("power-potential?p=1").functional
    assert cone.gradient(np.array([z])).tolist() == [math.copysign(1.0, z)]
    assert cone.gradient(np.array([0.0])) is None
    g = resolve_entry("power-potential?p=1&center=0,0").functional.gradient(np.array([z, z]))
    assert g.tolist() == pytest.approx([math.copysign(0.5**0.5, z)] * 2, rel=1e-15)


def test_dense_scan_basins_are_points_not_above_either_neighbour():
    scan = dense_scan(lambda g: np.array([3.0, 1.0, 1.0, 2.0, 0.0, 5.0]), 0.0, 5.0, 6)
    assert scan.grid.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert scan.basins.tolist() == [1, 2, 4]
    # endpoints count when not above their one neighbour
    edges = dense_scan(lambda g: np.abs(g - 0.5), -1.0, 1.0, 5)
    assert edges.basins.tolist() == [3]
    assert dense_scan(lambda g: -np.abs(g), -1.0, 1.0, 5).basins.tolist() == [0, 4]
    assert dense_scan(lambda g: g * 0.0, 0.0, 1.0, 1).basins.tolist() == [0]


@pytest.mark.parametrize(
    "entry_id",
    ["quadratic?lambda=1", "double-well?lambda=1&a=1", "asymmetric-double-well",
     "staircase?m=1&eps=0.1", "sharpness?eps=0.05", "power-potential?p=1.5"],
)
def test_brute_force_same_without_batch_oracle(entry_id):
    e = resolve_entry(entry_id)
    bare = dataclasses.replace(
        e, functional=dataclasses.replace(e.functional, batch_value=None)
    )
    got, ref = brute_force_minimiser(e), brute_force_minimiser(bare)
    assert _bits(got.point) == _bits(ref.point)
    assert _bits([got.value]) == _bits([ref.value])
    assert [_bits(t) for t in got.ties] == [_bits(t) for t in ref.ties]
    assert got.on_boundary == ref.on_boundary


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_power_potential_value_keeps_its_magnitude_where_squares_underflow(p):
    # rescaled by max |u_i| as the gradient is, the distance is |z| down to
    # the subnormals; the batched oracle keeps matching the scalar one
    f = resolve_entry(f"power-potential?p={p}").functional
    zs = [5e-324, -1e-310, 9.4e-299, -1e-170, 2.0**-511, math.nextafter(2.0**-511, 1.0), 1e-150, 0.0]
    pts = np.array(zs)[:, None]
    assert _bits(f.values(pts)) == _bits([f.value(q) for q in pts])
    assert [f.value(q) for q in pts] == [abs(z) ** p for z in zs]
    if p == 1.0:
        assert [descending_slope(f, q).value for q in pts] == [1.0] * 7 + [0.0]
    f2 = resolve_entry(f"power-potential?p={p}&center=0,0").functional
    pts2 = np.array([[z, -z] for z in zs])
    assert _bits(f2.values(pts2)) == _bits([f2.value(q) for q in pts2])
    assert f2.value(np.array([3e-200, -4e-200])) == pytest.approx(5e-200**p, rel=1e-15)


@pytest.mark.parametrize("p", [4.0, 3.0, 4.0 / 3.0, 1.5])
def test_power_potential_closed_form_is_within_8_ulps(p):
    # the radial root rho of rho + tau p rho^(p-1) = d against a 60-digit
    # bisection, started 16 ulps either side of the closed form's float
    resolve = make_power_potential(p).analytic_resolvent
    rng = np.random.default_rng(0)
    ds, taus = 10.0 ** rng.uniform(-12.0, 1.0, 500), 10.0 ** rng.uniform(-3.0, 0.5, 500)
    with mpmath.workdps(60):
        for d, tau in zip(ds, taus):
            ((z,),) = resolve(np.array([d]), tau)
            g = lambda r: r + mpmath.mpf(tau) * p * r ** (mpmath.mpf(p) - 1) - mpmath.mpf(d)
            ulp = math.ulp(z)
            lo, hi = max(mpmath.mpf(z) - 16 * ulp, 0), mpmath.mpf(z) + 16 * ulp
            assert g(lo) < 0 < g(hi), (d, tau)
            for _ in range(20):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
            assert abs(z - lo) <= 8 * ulp, (d, tau, float(abs(z - lo) / ulp))
    # the bisection ends where its ends are adjacent, also among the subnormals
    ((z,),) = resolve(np.array([1e-300]), 1.0)
    assert 0.0 <= z <= 1e-300


def _assert_batch_gradient_is_scalar(f, pts):
    """``batch_gradient`` is ``smooth_gradient`` at every row, bit for bit,
    with a NaN row exactly where the scalar oracle returns None."""
    got = f.batch_gradient(pts)
    assert got.shape == pts.shape
    ref = [f.gradient(p) for p in pts]
    none = np.array([g is None for g in ref])
    assert np.isnan(got[none]).all()
    assert _bits(got[~none]) == _bits([g for g in ref if g is not None])


@pytest.mark.parametrize("entry_id", BATCH_IDS)
def test_batch_gradient_matches_smooth_gradient_bit_for_bit(entry_id):
    e = resolve_entry(entry_id)
    rng = np.random.default_rng(31)
    xs = rng.uniform(*e.sample_box, size=20000).tolist()
    for q in e.nonsmooth_points:
        xs += [math.nextafter(q, -math.inf), q, math.nextafter(q, math.inf)]
    xs += [5e-324, -5e-324, 1e-200, 0.0, -0.0]
    _assert_batch_gradient_is_scalar(e.functional, np.array(xs)[:, None])


@pytest.mark.parametrize(
    "entry_id, extra",
    [
        ("quadratic?lambda=3&center=1,2", [[1.0, 2.0]]),
        ("quadratic?center=0.5,-1,2", [[1e-160, 3e-160, 0.0]]),
        ("power-potential?p=1&center=0,0", [[0.0, 0.0], [5e-324, 0.0], [1e-200, -1e-200]]),
        ("power-potential?p=1.5&center=1,2", [[1.0, 2.0]]),
        ("power-potential?p=4&center=0,0", [[1e-60, -1e-60], [0.0, 0.0]]),
        ("power-potential?p=4&scale=2&center=0.5,-1,2", [[0.5, -1.0, 2.0]]),
    ],
)
def test_batch_gradient_matches_smooth_gradient_in_several_dimensions(entry_id, extra):
    f = resolve_entry(entry_id).functional
    dim = f.backend.dimension
    rng = np.random.default_rng(32)
    pts = np.vstack([rng.normal(scale=2.0, size=(3000, dim)), extra])
    _assert_batch_gradient_is_scalar(f, pts)
