"""Proximal steps, discrete rate certificates, and the recursion machinery."""

import dataclasses
import math
import re
import signal
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import brentq

import klflow.prox
from klflow import Functional, resolve_entry
from klflow.core import GL_NODES, GL_WEIGHTS, gauss_legendre, pick_branch
from klflow.corpus import make_power_potential, make_quadratic
from klflow.prox import (
    POINT_TIE_TOL,
    ProxControls,
    certify_power_rates_discrete,
    certify_rates_discrete,
    check_step_monotonicity,
    de_giorgi_residual,
    ioffe_distance_check,
    limit_diagnostics,
    one_step_decay_check,
    recursion_equality_sequence,
    recursive_bound,
    recursive_bound_params,
    resolvent,
    run_prox_sequence,
    sequence_to_csv,
)
from klflow.theta import make_power_theta


def test_resolvent_quadratic_is_exact():
    e = resolve_entry("quadratic?lambda=1")
    res = resolvent(e.functional, np.array([1.0]), 0.5)
    assert res.certified
    assert len(res.points) == 1
    z = float(res.points[0][0])
    assert abs(z - 2.0 / 3.0) < 1e-12
    assert res.f_values[0] == pytest.approx(0.5 * z * z, rel=1e-12)
    assert res.objective == pytest.approx(0.5 * z * z + (1 - z) ** 2, rel=1e-10)


def test_resolvent_rejects_bad_tau():
    e = resolve_entry("quadratic?lambda=1")
    with pytest.raises(ValueError):
        resolvent(e.functional, np.array([1.0]), 0.0)


def test_resolvent_soft_threshold():
    cone = resolve_entry("power-potential?p=1")
    z = float(resolvent(cone.functional, np.array([1.0]), 0.3).points[0][0])
    assert abs(z - 0.7) < 1e-10
    z0 = float(resolvent(cone.functional, np.array([0.2]), 0.3).points[0][0])
    assert abs(z0) < 1e-9
    # start exactly at threshold distance: the step lands on the kink
    zk = float(resolvent(cone.functional, np.array([0.3]), 0.3).points[0][0])
    assert abs(zk) < 1e-9


def test_resolvent_beats_dense_grid_probes():
    for cid, x, tau in (
        ("double-well?lambda=1&a=1", 0.3, 0.4),
        ("power-potential?p=4", 1.3, 0.5),
        ("asymmetric-double-well", 0.6, 0.7),
    ):
        e = resolve_entry(cid)
        res = resolvent(e.functional, np.array([x]), tau)
        radius = math.sqrt(2.0 * tau * e.functional.value(np.array([x])))
        zs = np.linspace(x - radius, x + radius, 1000)
        probes = min(
            e.functional.value(np.array([z])) + (z - x) ** 2 / (2 * tau) for z in zs
        )
        assert res.objective <= probes + 1e-9, cid


def test_resolvent_tie_policies_on_symmetric_well():
    e = resolve_entry("double-well?lambda=1&a=1")
    res = resolvent(e.functional, np.array([0.0]), 0.5)
    vals = sorted(float(p[0]) for p in res.points)
    v = 1.0 / 3.0
    assert vals == [pytest.approx(-v, abs=1e-9), pytest.approx(v, abs=1e-9)]
    picked = {}
    for pol in ("smallest-distance", "positive-branch", "negative-branch"):
        s = run_prox_sequence(
            e.functional,
            np.array([0.0]),
            0.5,
            n_steps=1,
            controls=ProxControls(policy=pol),
        )
        picked[pol] = float(s.points[1][0])
    assert picked["positive-branch"] == pytest.approx(v, abs=1e-9)
    assert picked["negative-branch"] == pytest.approx(-v, abs=1e-9)
    # equidistant tie falls back to the canonical smaller point
    assert picked["smallest-distance"] == pytest.approx(-v, abs=1e-9)


def test_quadratic_sequence_matches_closed_form():
    e = resolve_entry("quadratic?lambda=1")
    seq = run_prox_sequence(e.functional, np.array([1.0]), 0.5, n_steps=30)
    assert seq.n_iterates == 31
    assert seq.stop_reason == "step-budget"
    assert seq.terminated_at is None
    for k, p in enumerate(seq.points):
        assert abs(float(p[0]) - 1.5 ** (-k)) < 1e-13
    assert np.all(np.diff(seq.fs) < 0)


def test_scalar_tau_requires_step_count():
    e = resolve_entry("quadratic?lambda=1")
    with pytest.raises(ValueError):
        run_prox_sequence(e.functional, np.array([1.0]), 0.5)


def test_stop_reasons():
    cone = resolve_entry("power-potential?p=1")
    s1 = run_prox_sequence(cone.functional, np.array([1.0]), 0.3, n_steps=10)
    assert s1.stop_reason == "f-tolerance"
    assert s1.terminated_at == 4
    assert [round(float(p[0]), 10) for p in s1.points] == [1.0, 0.7, 0.4, 0.1, 0.0]

    aw = resolve_entry("asymmetric-double-well")
    s2 = run_prox_sequence(aw.functional, np.array([1.2]), 0.01, n_steps=6)
    assert s2.stop_reason == "stall"
    assert float(s2.points[-1][0]) == pytest.approx(1.2)
    assert s2.fs[-1] > 0.0


def test_step_monotonicity_report():
    e = resolve_entry("quadratic?lambda=1")
    seq = run_prox_sequence(e.functional, np.array([1.0]), 0.5, n_steps=5)
    for step in seq.steps:
        m = check_step_monotonicity(step)
        assert set(m) == {
            "value_decrease",
            "variational_decrease",
            "variational_margin",
            "stationarity",
            "stationarity_margin",
        }
        assert m["value_decrease"] and m["variational_decrease"] and m["stationarity"]
        assert m["variational_margin"] >= 0.0


def test_stationarity_exemption_when_the_bottom_is_reached():
    # the final cone step lands on the kink minimiser; float error puts the
    # iterate a hair past it where the sampled slope jumps to 1, but the step
    # must still count as stationary
    cone = resolve_entry("power-potential?p=1")
    seq = run_prox_sequence(cone.functional, np.array([1.0]), 0.3, n_steps=10)
    last = seq.steps[-1]
    assert last.f_to <= 1e-14
    assert check_step_monotonicity(last)["stationarity"]


def test_one_step_decay_quadratic_and_cone():
    q = resolve_entry("quadratic?lambda=1")
    rep = one_step_decay_check(
        q.functional, np.array([1.0]), 0.25, make_power_theta(1.0 / math.sqrt(2.0), 0.5)
    )
    assert rep["holds"]
    assert rep["lhs"] == pytest.approx(0.18, abs=1e-12)
    assert rep["rhs"] == pytest.approx(0.16, abs=1e-12)
    assert rep["margin"] == pytest.approx(0.02, abs=1e-12)

    cone = resolve_entry("power-potential?p=1")
    rep2 = one_step_decay_check(
        cone.functional, np.array([1.0]), 0.3, make_power_theta(1.0, 1.0)
    )
    assert rep2["holds"]
    assert rep2["margin"] == pytest.approx(0.0, abs=1e-10)


def test_de_giorgi_identity_quadratic():
    e = resolve_entry("quadratic?lambda=1")
    rep = de_giorgi_residual(e.functional, np.array([1.0]), 1.0)
    assert abs(rep.residual) <= 1e-8
    assert abs(float(rep.z[0]) - 0.5) <= 1e-6
    assert rep.value_term == pytest.approx(0.125, rel=1e-6)
    assert rep.distance_term > 0 and rep.integral_term > 0


def test_de_giorgi_column_in_sequences():
    e = resolve_entry("quadratic?lambda=1")
    seq = run_prox_sequence(
        e.functional,
        np.array([1.0]),
        0.5,
        n_steps=3,
        controls=ProxControls(compute_de_giorgi=True),
    )
    assert math.isnan(seq.dg_residuals[0])
    assert np.all(np.abs(seq.dg_residuals[1:]) < 1e-8)


def test_gauss_legendre_rule_is_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert GL_NODES == tuple(nodes.tolist())
    assert GL_WEIGHTS == tuple(weights.tolist())
    # degree 15 is integrated exactly: int_0^2 s^15 ds = 2^16 / 16
    assert gauss_legendre(lambda s: s**15, 0.0, 2.0) == pytest.approx(4096.0, rel=1e-14)


@pytest.mark.parametrize(
    "name, x0, tau, residual",
    [
        ("quadratic?lambda=1", 1.0, 0.5, -2.2726265314076954e-13),
        ("power-potential?p=1", 1.0, 0.3, 0.0),
        ("double-well", 0.5, 0.4, -3.6359804056473877e-14),
        ("power-potential?p=4", 1.0, 0.2, -6.987188605478423e-12),
        ("truncated-parabola", 0.7, 0.3, -3.2096547641913276e-13),
    ],
)
def test_de_giorgi_residuals_are_pinned(name, x0, tau, residual):
    """The residuals the De Giorgi panels gave with their own leggauss(8)
    rule, bit for bit."""
    rep = de_giorgi_residual(resolve_entry(name).functional, np.array([x0]), tau)
    assert rep.residual == residual


def test_ioffe_strip_bound():
    e = resolve_entry("quadratic?lambda=1")
    ok = ioffe_distance_check(e.functional, np.array([2.0]), 0.5, 1.0)
    assert ok["holds"]
    assert ok["distance"] == pytest.approx(1.0, abs=1e-3)
    assert ok["bound"] == pytest.approx(1.5)
    assert ok["margin"] == pytest.approx(0.5, abs=1e-3)
    assert ok["strip_slope_min"] >= 1.0
    # the crossing of f = 0.5 at |z| = 1 is refined from either side
    for x in (2.1, -3.3):
        got = ioffe_distance_check(e.functional, np.array([x]), 0.5, 1.0)["distance"]
        assert got == pytest.approx(abs(x) - 1.0, abs=4e-16)
    # an overstated slope lower bound shrinks the claim below the true distance
    bad = ioffe_distance_check(e.functional, np.array([2.0]), 0.5, 4.0)
    assert not bad["holds"] and bad["margin"] < 0


def test_recursion_parameters_half_power():
    p = recursive_bound_params(1.0, 0.5, 1.0)
    assert p.k0 == 1 and p.u_star == 1.0 and p.alpha_tilde == pytest.approx(1.0)
    assert [recursive_bound(p, k) for k in range(4)] == [1.0, 0.5, 0.25, 0.0625]
    assert recursive_bound(p, 4) == pytest.approx(2.0 ** (-8), rel=1e-12)


def test_recursion_equality_sequences_never_exceed_bound():
    for delta in (0.5, 1.0, 1.7, 2.0):
        p = recursive_bound_params(1.0, delta, 1.0)
        u = recursion_equality_sequence(p, 300)
        assert u[0] == 1.0
        assert np.all(np.diff(u) <= 0)
        worst = min(recursive_bound(p, k) - float(u[k]) for k in range(300))
        assert worst >= 0.0, delta


def test_recursion_parameters_end_when_the_optimum_passes_float_spacing():
    # the optimal R is about 5.4e5, where floats are 1.2e-10 apart: wider than
    # the search's 1e-10 tolerance, so only a stuck bracket can end the search
    def timeout(signum, frame):
        raise TimeoutError("recursive_bound_params did not return within 10 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        p = recursive_bound_params(4e8, 2.0, 1.0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # the two branches alpha (delta - 1)/R and sqrt(R) - 1 cross at the optimum
    r_cross = brentq(lambda r: math.sqrt(r) - 1.0 - 4e8 / r, 1.0, 1e6, xtol=1e-12)
    assert p.poly_c == pytest.approx(4e8 / r_cross, rel=1e-12)


@pytest.mark.parametrize("delta", [1.7, 3.0])
def test_recursion_steps_are_sign_changes_at_adjacent_floats(delta):
    for alpha, f0 in ((1.0, 1.0), (0.3, 2.0)):
        u = recursion_equality_sequence(recursive_bound_params(alpha, delta, f0), 300)
        for prev, z in zip(u[:-1].tolist(), u[1:].tolist()):

            def g(v):
                return v + alpha * v**delta - prev

            below, here, above = g(math.nextafter(z, -math.inf)), g(z), g(math.nextafter(z, math.inf))
            assert below < 0.0 <= here or here < 0.0 <= above, (alpha, f0, prev, z)


@given(
    alpha=st.floats(0.2, 3.0),
    delta=st.floats(0.1, 3.0),
    f0=st.floats(0.1, 2.0),
    k=st.integers(0, 40),
)
def test_recursive_bound_is_nonincreasing(alpha, delta, f0, k):
    p = recursive_bound_params(alpha, delta, f0)
    b0 = recursive_bound(p, k)
    b1 = recursive_bound(p, k + 1)
    assert b1 <= b0 * (1.0 + 1e-12)
    assert recursive_bound(p, 0) >= f0 * (1.0 - 1e-12)


def test_discrete_certificates_quadratic():
    e = resolve_entry("quadratic?lambda=1")
    seq = run_prox_sequence(e.functional, np.array([1.0]), 0.5, n_steps=30)
    pf = make_power_theta(1.0 / math.sqrt(2.0), 0.5)
    certs = certify_rates_discrete(
        seq, pf, x0=np.array([1.0]), r=1.0, alpha=2.0
    )
    kinds = {c.kind for c in certs}
    assert kinds == {
        "discrete-theta-distance",
        "discrete-theta-tail",
        "discrete-confinement",
        "discrete-geometric",
        "discrete-geometric-distance",
    }
    for c in certs:
        assert c.verdict and not c.skipped, (c.kind, c.margin)


def test_finite_termination_certificate_for_the_cone():
    cone = resolve_entry("power-potential?p=1")
    seq = run_prox_sequence(cone.functional, np.array([1.0]), 0.3, n_steps=10)
    certs = certify_power_rates_discrete(seq, 1.0, 1.0, r=1.1)
    by_kind = {c.kind: c for c in certs}
    fin = by_kind["finite-termination"]
    assert fin.verdict and not fin.skipped
    assert fin.details["k_bound"] == 4
    assert by_kind["discrete-distance-power"].verdict


def test_doubly_exponential_certificate_after_exact_zero():
    # gamma = 3/4: exact iterates reach f = 0 at k = 17, before the entry
    # index k0 = 31; a resolvent at f = 0 returns its input, so row k0 is
    # checked with the value 0 it would observe, not skipped
    e = resolve_entry("power-potential?p=1.3333333333333333")
    exact = ProxControls(stop_f_tol=0.0, stall_tol=0.0)
    seq = run_prox_sequence(e.functional, np.array([1.0]), 0.1, n_steps=35, controls=exact)
    assert seq.fs[-1] == 0.0 and seq.n_iterates - 1 < 31
    certs = {c.kind: c for c in certify_power_rates_discrete(seq, 0.8, 0.75, r=1.6)}
    cert = certs["discrete-doubly-exponential"]
    assert not cert.skipped and cert.verdict and cert.margin > 0.0
    assert cert.details["k0"] == 31
    assert (cert.ts.tolist(), cert.observed.tolist()) == ([31.0], [0.0])


def test_power_certificates_skip_under_variable_tau():
    e = resolve_entry("quadratic?lambda=1")
    seq = run_prox_sequence(e.functional, np.array([1.0]), [0.5, 0.25, 0.1, 0.1])
    assert np.allclose(seq.taus, [0.5, 0.25, 0.1, 0.1])
    certs = certify_power_rates_discrete(seq, 1.0 / math.sqrt(2.0), 0.5, r=1.0)
    assert len(certs) == 1 and certs[0].skipped
    # the per-step certificates do not need a constant step size
    pf = make_power_theta(1.0 / math.sqrt(2.0), 0.5)
    var = certify_rates_discrete(
        seq, pf, x0=np.array([1.0]), r=1.0, alpha=2.0
    )
    assert all(c.verdict and not c.skipped for c in var)


def test_limit_diagnostics_summary():
    cone = resolve_entry("power-potential?p=1")
    seq = run_prox_sequence(cone.functional, np.array([1.0]), 0.3, n_steps=10)
    d = limit_diagnostics(seq)
    assert d["f_limit"] <= 1e-14
    assert d["path_length"] == pytest.approx(1.0, abs=1e-9)
    assert d["direct_distance"] == pytest.approx(1.0, abs=1e-9)
    assert d["stop_reason"] == "f-tolerance"


def test_sequence_csv_is_deterministic(tmp_path):
    e = resolve_entry("quadratic?lambda=1")
    seq = run_prox_sequence(e.functional, np.array([1.0]), 0.5, n_steps=5)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    sequence_to_csv(seq, p1)
    sequence_to_csv(seq, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "k,x_1,f,dist_step,slope,de_giorgi_residual"
    assert len(lines) == 1 + seq.n_iterates


def _bits(values) -> list:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _without_batch(f):
    return dataclasses.replace(f, batch_value=None)


@pytest.mark.parametrize(
    "entry_id, x, tau",
    [
        ("quadratic?lambda=1", 1.0, 0.5),
        ("double-well?lambda=1&a=1", 0.0, 0.5),  # two tied minimisers
        ("double-well?lambda=2&a=0.7", 1.9, 0.3),
        ("truncated-parabola", -1.0, 1.0),  # knife-edge jump tie
        ("staircase?m=1&eps=0.1", 1.05, 0.3),
        ("asymmetric-double-well", -0.2, 0.8),
        ("power-potential?p=1", 0.3, 0.3),  # lands on the kink
        ("power-potential?p=4", 1.3, 0.2),
        ("sharpness?eps=0.1", 1.0, 0.4),
    ],
)
def test_resolvent_same_without_batch_oracle(entry_id, x, tau):
    f = resolve_entry(entry_id).functional
    for controls in (ProxControls(), ProxControls(n_grid=257)):
        got = resolvent(f, np.array([x]), tau, controls)
        ref = resolvent(_without_batch(f), np.array([x]), tau, controls)
        assert [_bits(p) for p in got.points] == [_bits(p) for p in ref.points]
        assert _bits([got.objective]) == _bits([ref.objective])
        assert _bits(got.f_values) == _bits(ref.f_values)
        assert (got.certified, got.n_evals) == (ref.certified, ref.n_evals)


@pytest.mark.parametrize(
    "entry_id, x, delta, v",
    [
        ("quadratic?lambda=1", 2.0, 0.5, 1.0),
        ("quadratic?lambda=1", 2.0, 0.5, 4.0),
        ("double-well?lambda=1&a=1", 0.2, 0.05, 0.5),
        ("staircase?m=1&eps=0.1", 1.5, 0.3, 1.0),
        ("truncated-parabola", 1.2, 0.2, 1.5),
    ],
)
def test_ioffe_check_same_without_batch_oracle(entry_id, x, delta, v):
    f = resolve_entry(entry_id).functional
    got = ioffe_distance_check(f, np.array([x]), delta, v)
    ref = ioffe_distance_check(_without_batch(f), np.array([x]), delta, v)
    assert got == ref


def test_ioffe_check_reads_strip_values_from_its_scan():
    # the slope at a strip point takes f there from the scan, so the scalar
    # value calls left are f(x) and the crossing's root solve
    f = resolve_entry("quadratic?lambda=1").functional
    calls = {"value": 0}

    def value(x):
        calls["value"] += 1
        return f.value(x)

    got = ioffe_distance_check(dataclasses.replace(f, value=value), np.array([1.0]), 0.1, 1.0)
    assert got == ioffe_distance_check(f, np.array([1.0]), 0.1, 1.0)
    assert calls["value"] == 19


def _count_points(f):
    """``f`` with every point its value oracle sees recorded in a list, in
    call order, as ``(coordinates, scalar_call)``."""
    seen = []

    def value(z):
        seen.append((tuple(z), True))
        return f.value(z)

    def batch_value(zs):
        seen.extend((tuple(z), False) for z in zs)
        return f.batch_value(zs)

    return dataclasses.replace(f, value=value, batch_value=batch_value), seen


@pytest.mark.parametrize(
    "entry_id, x, expected",
    [
        # strongly convex phi: f(x) and f at the root of phi' (the solve reads
        # only the gradient)
        ("quadratic?lambda=1", [1.0], 2),
        # no modulus: 1025 grid points, f(x), two tied minimisers, one root each
        ("double-well", [0.0], 1028),
        ("quadratic?center=0,0", [1.0, 0.5], None),  # multistart branch
        # certified single start: f(x), the descent's phi at x and after its
        # one step of length 1/mu, which lands on the minimiser, and f(z)
        ("quadratic?center=0,0", [1.0, 0.5], 4),
    ],
)
def test_resolvent_counts_every_oracle_point(entry_id, x, expected):
    f = resolve_entry(entry_id).functional
    if expected is None:  # the multistart's count depends on its sampled starts
        f = dataclasses.replace(f, convexity=None)
    counted, seen = _count_points(f)
    res = resolvent(counted, np.array(x), 0.5)
    assert res.n_evals == len(seen)
    if expected is not None:
        assert res.n_evals == expected
    if len(x) == 1:  # the 1-d refinement never evaluates a point twice
        for k, (z, scalar) in enumerate(seen):
            assert not scalar or z not in {w for w, _ in seen[:k]}


def test_cone_sequence_terminates_on_the_kink():
    # iterate 19 is 0.05 up to rounding, so the soft threshold puts iterate 20
    # on the kink; a stop short of it used to leave 8.8e-11 and end at k = 21
    cone = resolve_entry("power-potential?p=1")
    seq = run_prox_sequence(cone.functional, np.array([1.0]), 0.05, n_steps=60)
    assert seq.terminated_at == 20
    for k, p in enumerate(seq.points):
        z = float(p[0])
        assert abs(z - max(1.0 - k * 0.05, 0.0)) <= 1e-12 * (1.0 + abs(z))


# within OBJECTIVE_TIE_TOL of the double-well's ridge both wells tie by design,
# while the closed form names one; x = 0 itself is kept
_X_1D = st.floats(-3.0, 3.0).filter(lambda v: v == 0.0 or abs(v) > 1e-6)


def _psi(f, x, tau):
    """phi' = f' + (z - x)/tau at a float z, None where f has no gradient.
    Where that float sum is 0, the rounding error of z - x over tau, in
    exact rationals."""

    def psi(z):
        g = f.gradient(np.array([z]))
        if g is None:
            return None
        d = z - x
        p = float(g[0]) + d / tau
        return p if p != 0.0 else float((Fraction(z) - Fraction(x) - Fraction(d)) / Fraction(tau))

    return psi


def _exact_convex_resolvent(entry_id, x, tau):
    """The resolvent of ``quadratic?lambda=l`` or ``power-potential?p=p``
    (centre 0, scale 1) at x, in 60-digit decimals: the closed forms, else
    bisection of rho + tau p rho^(p-1) = |x| on [0, |x|].  (The corpus
    closed form bisects that equation in floats.)"""
    with localcontext() as ctx:
        ctx.prec = 60
        X, T = Decimal(x), Decimal(tau)
        name, _, arg = entry_id.partition("?")
        par = Decimal(float(arg.split("=")[1]))
        if name == "quadratic":
            return float(X / (1 + par * T))
        if par == 1:
            return float(max(abs(X) - T, Decimal(0)).copy_sign(X))
        if par == 2:
            return float(X / (1 + 2 * T))
        lo, hi = Decimal(0), abs(X)
        for _ in range(220):
            mid = (lo + hi) / 2
            if mid + T * par * mid ** (par - 1) < abs(X):
                lo = mid
            else:
                hi = mid
        return float(((lo + hi) / 2).copy_sign(X))


@given(
    entry_id=st.sampled_from(
        [
            "quadratic?lambda=1",
            "quadratic?lambda=3",
            "power-potential?p=1",
            "power-potential?p=1.3333333333333333",
            "power-potential?p=2",
            "power-potential?p=4",
        ]
    ),
    x=_X_1D,
    tau=st.floats(0.001, 3.0),
)
def test_convex_1d_resolvent_is_a_sign_change_of_phi_prime(entry_id, x, tau):
    f = resolve_entry(entry_id).functional
    res = resolvent(f, np.array([x]), tau)
    (z,) = (float(p[0]) for p in res.points)
    assert res.certified
    psi = _psi(f, x, tau)
    below, here = psi(math.nextafter(z, -math.inf)), psi(z)
    above = psi(math.nextafter(z, math.inf))
    if here is None:  # the cone's kink: 0 lies in the subdifferential of phi
        assert below <= 0.0 <= above
    else:
        assert below < 0.0 <= here or here < 0.0 <= above
    # psi rounds on the scale of its larger term, so the root is as good as
    # an ulp of |z| or of the step |x - z|, whichever is larger
    exact = _exact_convex_resolvent(entry_id, x, tau)
    assert abs(z - exact) <= 2.0 * np.spacing(max(abs(exact), abs(x - exact)))


@pytest.mark.parametrize("entry_id, x, tau", [
    # the root lies 2e-11 from the centre; an absolute stop of 1e-15 on it
    # was 1.2e-5 off in relative terms
    ("power-potential?p=1.3333333333333333", -4.8e-4, 1.32),
    # x^2 underflows, so a plain norm puts x on the centre
    ("power-potential?p=2", 1e-160, 0.7),
])
def test_power_potential_closed_form_resolvent_is_exact_near_the_centre(entry_id, x, tau):
    (z,) = resolve_entry(entry_id).analytic_resolvent(np.array([x]), tau)
    exact = _exact_convex_resolvent(entry_id, x, tau)
    assert abs(float(z[0]) - exact) <= 4.0 * np.finfo(float).eps * abs(exact)


@given(u=st.floats(-1.0, 1.0), tau=st.floats(0.001, 3.0))
@example(u=9.4e-299, tau=1.0)  # x^2 underflows, f(x) must not
@example(u=-1.0, tau=1.0)  # z - x rounds to tau on the floats left of 0
@example(u=-1.0, tau=2.63)
def test_cone_resolvent_lands_on_the_centre_exactly(u, tau):
    # |x| <= tau: the soft threshold is the kink, which float-order
    # bisection reaches and the kink rule accepts
    f = resolve_entry("power-potential?p=1").functional
    probes = []
    counted = dataclasses.replace(f, smooth_gradient=lambda z: probes.append(z) or f.gradient(z))
    x = u * tau
    res = resolvent(counted, np.array([x]), tau)
    assert res.certified
    assert [float(p[0]) for p in res.points] == [0.0]
    assert res.f_values == [0.0]
    # the first bisection probes 0; the midpoint of the ends' float-order
    # positions would take 85 probes or more to isolate it
    assert len(probes) <= 6


def test_long_quadratic_sequence_oracle_counts():
    # counts do not depend on the machine, so they guard the 1-d solve's
    # cost where a timing cannot: per step f(x) and f(z) in the resolvent,
    # about 4.5 gradient probes and one gradient for the slope at z, whose
    # value the sequence already holds
    f = resolve_entry("quadratic?lambda=1").functional
    calls = {"value": 0, "batch": 0, "gradient": 0}

    def counted(fn, key, points=lambda args: 1):
        def wrapper(*args):
            calls[key] += points(args)
            return fn(*args)

        return wrapper

    g = dataclasses.replace(
        f,
        value=counted(f.value, "value"),
        batch_value=counted(f.batch_value, "batch", lambda args: len(args[0])),
        smooth_gradient=counted(f.smooth_gradient, "gradient"),
    )
    seq = run_prox_sequence(g, np.array([1.0]), 0.002, n_steps=2000,
                            controls=ProxControls(n_grid=33))
    assert seq.n_iterates == 2001
    assert calls == {"value": 4001, "batch": 0, "gradient": 10975}


@given(
    entry_id=st.sampled_from(
        [
            "quadratic",
            "double-well",
            "power-potential?p=1",
            "power-potential?p=2",
            "power-potential?p=4",
        ]
    ),
    policy=st.sampled_from(["smallest-distance", "positive-branch", "negative-branch"]),
    x=_X_1D,
    tau=st.floats(0.01, 3.0),
)
def test_1d_resolvent_matches_the_closed_form(entry_id, policy, x, tau):
    e = resolve_entry(entry_id)
    x = np.array([x])
    res = resolvent(e.functional, x, tau, ProxControls(policy=policy))
    z = pick_branch(res.points, policy, x)
    exact = pick_branch(e.analytic_resolvent(x, tau), policy, x)
    assert res.certified
    assert abs(float(z[0] - exact[0])) <= 1e-14 * (1.0 + abs(float(z[0])))


@given(
    entry_id=st.sampled_from(
        [
            "quadratic",
            "power-potential?p=1",
            "power-potential?p=1.5",
            "power-potential?p=2",
            "power-potential?p=4",
        ]
    ),
    x=st.floats(-3.0, 3.0),
    tau=st.floats(0.01, 3.0),
)
def test_convex_1d_resolvent_does_not_depend_on_n_grid(entry_id, x, tau):
    # a declared modulus makes phi strongly convex, so the box is one bracket
    # whatever n_grid asks for
    e = resolve_entry(entry_id)
    x = np.array([x])
    results = [resolvent(e.functional, x, tau, ProxControls(n_grid=n)) for n in (3, 33, 1025)]
    for res in results:
        (z,) = res.points
        assert res.certified
        assert _bits(z) == _bits(results[0].points[0])
        assert _bits(res.f_values) == _bits(results[0].f_values)
    (exact,) = e.analytic_resolvent(x, tau)
    z = float(results[0].points[0][0])
    assert abs(z - float(exact[0])) <= 1e-14 * (1.0 + abs(z))


@pytest.mark.parametrize(
    "entry_id, x, tau",
    [
        ("power-potential?p=1", 0.3, 0.5),  # soft threshold onto the kink
        ("power-potential?p=1", -0.2, 0.3),  # the same from the left
        ("power-potential?p=1", 1.0, 0.3),  # smooth minimiser 0.7
        ("double-well", 0.3, 0.4),
        ("double-well", 0.0, 0.5),  # two tied smooth minimisers
    ],
)
def test_value_path_without_a_gradient(entry_id, x, tau):
    # golden section pins a kink to about 1 ulp, but phi is flat to rounding
    # over about sqrt(eps) |z| around a smooth minimum
    e = resolve_entry(entry_id)
    f = dataclasses.replace(e.functional, smooth_gradient=None)
    res = resolvent(f, np.array([x]), tau)
    exact = e.analytic_resolvent(np.array([x]), tau)
    assert len(res.points) == len(exact)
    for z, w in zip(res.points, exact):
        w = float(w[0])
        assert abs(float(z[0]) - w) <= (1e-7 * abs(w) if w else 1e-15)


def test_value_only_multistart_reports_one_minimiser():
    # phi is strictly convex, but each start descends on central differences
    # of f, which are off by about eps |f| / FD_PROBE, so the starts stop
    # apart, though within the multistart's sqrt(eps) (1 + |z|)
    q = resolve_entry("quadratic?lambda=1&center=0,0").functional
    f = Functional(label="value-only quadratic", value=q.value, backend=q.backend,
                   batch_value=q.batch_value)
    res = resolvent(f, np.array([1.0, 0.5]), 0.5)
    (z,) = res.points
    assert not res.certified
    assert np.linalg.norm(z - np.array([2.0, 1.0]) / 3.0) <= 1e-7
    seq = run_prox_sequence(f, np.array([1.0, 0.5]), 0.5, n_steps=5)
    assert [s.n_candidates for s in seq.steps] == [1] * 5


def test_a_kink_hiding_the_sign_change_takes_a_half_bracket():
    # on the 3-point grid -0.824, -0.4, 0.024 the bracket's right end is past
    # the ridge at 0, where phi' is negative again; the half [-0.824, -0.4]
    # still changes sign, so the root solve, not golden section, places -0.6
    e = resolve_entry("double-well")
    res = resolvent(e.functional, np.array([-0.4]), 0.5, ProxControls(n_grid=3))
    assert abs(float(res.points[0][0]) + 0.6) <= 1e-15


@pytest.mark.parametrize(
    "x, tau, n_grid",
    [
        # phi' = 1 + (z - x)/tau is negative on both sides of the jump at 1,
        # so the bracket around it has no sign change
        (1.05, 0.01, 1025),
        # phi' changes sign at 1.0143 on the upper piece, but the jump makes
        # phi there worse than at the grid point below 1: the root is refused
        (1.4972589328394905, 0.4829148896072088, 33),
    ],
)
def test_staircase_jump_takes_the_value_path(x, tau, n_grid):
    # f(z) = z on (0, 1] jumps to z + 0.1 past 1; the lower-semicontinuous
    # minimiser is 1, which golden section pins as it does without a gradient
    # (to about 1e-14 where phi' is as shallow as -0.03 on the left)
    f = resolve_entry("staircase?m=1&eps=0.1").functional
    c = ProxControls(n_grid=n_grid)
    res = resolvent(f, np.array([x]), tau, c)
    ref = resolvent(dataclasses.replace(f, smooth_gradient=None), np.array([x]), tau, c)
    assert _bits(res.points) == _bits(ref.points)
    assert [abs(float(p[0]) - 1.0) <= 1e-13 for p in res.points] == [True]


_COORDS = st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)


@given(
    quadratic=st.booleans(),
    modulus=st.floats(0.01, 10.0),
    dim=st.sampled_from([2, 3]),
    center=_COORDS,
    x=_COORDS,
    tau=st.floats(0.01, 5.0),
)
def test_declared_convexity_certifies_one_start(quadratic, modulus, dim, center, x, tau):
    # lam/2 d^2 declares lam; power-potential p=2 is scale d^2 and declares 2 scale
    if quadratic:
        entry = make_quadratic(modulus, center[:dim])
    else:
        entry = make_power_potential(2.0, modulus, center[:dim])
    x = np.array(x[:dim])
    res = resolvent(entry.functional, x, tau)
    (z,) = res.points
    (exact,) = entry.analytic_resolvent(x, tau)
    assert res.certified
    assert np.linalg.norm(z - exact) <= 1e-12 * (1.0 + np.linalg.norm(z))


@pytest.mark.parametrize("p", ["1", "3", "4"])
def test_convex_power_potential_certifies_one_start(monkeypatch, p):
    # convexity 0 gives mu = 1/tau: the certificate bounds the error by 1e-9 (1 + |z|)
    e = resolve_entry(f"power-potential?p={p}&center=0,0")
    x = np.array([1.0, 0.5])
    calls = _count_multistarts(monkeypatch)
    res = resolvent(e.functional, x, 0.5)
    (z,) = res.points
    (exact,) = e.analytic_resolvent(x, 0.5)
    assert res.certified and not calls
    assert np.linalg.norm(z - exact) <= 1e-9 * (1.0 + np.linalg.norm(z))


def _count_multistarts(monkeypatch):
    """Record each multistart, which draws its starts through ``ball_sample``."""
    calls = []
    original = klflow.prox.ball_sample

    def ball_sample(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(klflow.prox, "ball_sample", ball_sample)
    return calls


def test_undeclared_convexity_takes_the_multistart(monkeypatch):
    f = resolve_entry("quadratic?center=0,0").functional
    undeclared = dataclasses.replace(f, convexity=None)
    calls = _count_multistarts(monkeypatch)
    res = resolvent(undeclared, np.array([1.0, 0.5]), 0.5)
    assert len(calls) == 1 and not res.certified
    assert np.linalg.norm(res.points[0] - [2.0 / 3.0, 1.0 / 3.0]) < 1e-9
    certified = resolvent(f, np.array([1.0, 0.5]), 0.5)
    assert len(calls) == 1 and certified.certified
    # a declared modulus takes one start without a gradient oracle too, on
    # central differences of f, which no gradient bound certifies
    value_only = resolvent(dataclasses.replace(f, smooth_gradient=None), np.array([1.0, 0.5]), 0.5)
    assert len(calls) == 1 and not value_only.certified
    assert np.linalg.norm(value_only.points[0] - [2.0 / 3.0, 1.0 / 3.0]) < 1e-7


@pytest.mark.parametrize(
    "x",
    [
        [0.1, 0.05],
        [0.5, 0.0],  # a line search lands exactly on the kink, where phi has no gradient
    ],
)
def test_kink_resolvent_takes_one_uncertified_start(monkeypatch, x):
    # phi is strongly convex, so the single start stands; its gradient bound
    # certifies z only where grad f(z) exists, which it does not on the kink
    e = resolve_entry("power-potential?p=1&center=0,0")
    x = np.array(x)  # |x| <= tau, so the soft threshold lands on the centre
    assert e.analytic_resolvent(x, 0.5)[0].tolist() == [0.0, 0.0]
    assert e.functional.gradient(np.zeros(2)) is None
    counted, seen = _count_points(e.functional)
    calls = _count_multistarts(monkeypatch)
    res = resolvent(counted, x, 0.5)
    (z,) = res.points
    g = e.functional.gradient(z)
    bound = math.inf if g is None else np.linalg.norm(g + (z - x) / 0.5) / 2.0  # mu = 1/tau
    assert not calls and res.certified == (bound <= POINT_TIE_TOL * (1.0 + np.linalg.norm(z)))
    # the descent nears the kink in a few halvings of its step per step
    assert res.n_evals == len(seen) == {(0.1, 0.05): 74, (0.5, 0.0): 58}[tuple(x)]
    assert np.linalg.norm(z) <= 1e-14


def test_q2d_prox_rests_on_certified_resolvents():
    e = resolve_entry("quadratic?lambda=1&center=0,0")
    x0 = np.array([1.0, 0.5])
    seq = run_prox_sequence(e.functional, x0, 0.5, n_steps=20)
    assert all(s.certified for s in seq.steps)
    for prev, z in zip(seq.points, seq.points[1:]):
        (exact,) = e.analytic_resolvent(prev, 0.5)
        assert np.linalg.norm(z - exact) <= 1e-15 * (1.0 + np.linalg.norm(z))
    pf, r = e.condition_data(x0)
    certs = certify_rates_discrete(seq, pf, x0=x0, r=r)
    certs += certify_power_rates_discrete(seq, pf.c, pf.gamma, r=r)
    assert {c.details["uncertified_steps"] for c in certs} == {0}


def test_prox_steps_carry_resolvent_facts():
    e1 = resolve_entry("double-well?lambda=1&a=1")
    seq = run_prox_sequence(e1.functional, np.array([0.0]), 0.5, n_steps=3)
    assert all(s.certified for s in seq.steps)
    assert seq.steps[0].n_candidates == 2
    for s in seq.steps:
        res = resolvent(e1.functional, s.from_point, s.tau)
        assert s.n_evals == res.n_evals > ProxControls().n_grid
    e2 = resolve_entry("quadratic?center=0,0")
    seq2 = run_prox_sequence(e2.functional, np.array([1.0, 0.5]), 0.5, n_steps=2)
    assert [s.certified for s in seq2.steps] == [True, True]  # declared convexity
    assert all(s.n_evals > 0 for s in seq2.steps)


@pytest.mark.parametrize(
    "controls, message",
    [
        # one grid point used to certify 0.29289 where the resolvent is 2/3
        ({"n_grid": 1}, "n_grid must be an integer >= 3, got 1"),
        ({"n_grid": 0}, "n_grid must be an integer >= 3, got 0"),
        ({"n_grid": 2}, "n_grid must be an integer >= 3, got 2"),
        ({"max_steps": 0}, "max_steps must be a positive integer, got 0"),
        ({"max_steps": "5"}, "max_steps must be a positive integer, got '5'"),
        ({"stop_f_tol": -1.0}, "stop_f_tol must be a finite number >= 0, got -1.0"),
        ({"stall_tol": math.inf}, "stall_tol must be a finite number >= 0, got inf"),
        ({"stall_tol": True}, "stall_tol must be a finite number >= 0, got True"),
    ],
)
def test_bad_prox_controls_are_rejected(controls, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ProxControls(**controls)
    ProxControls(n_grid=3, stop_f_tol=0, stall_tol=0.0, max_steps=1)


def test_unknown_policy_is_rejected():
    with pytest.raises(ValueError, match="smallest-distance, positive-branch"):
        ProxControls(policy="postive-branch")
    ProxControls(policy="lexicographic")


@pytest.mark.parametrize(
    "policy, expected",
    [
        ("positive-branch", (1.5, 0.5)),  # largest coordinates
        ("negative-branch", (-3.0, 0.0)),  # smallest coordinates
        ("lexicographic", (-3.0, 0.0)),  # alias of negative-branch
        ("smallest-distance", (0.5, 1.5)),  # distance tie, smaller coordinates
    ],
)
def test_pick_branch_table(policy, expected):
    x = np.array([0.5, 0.5])
    cands = [np.array(c) for c in ((1.5, 0.5), (0.5, 1.5), (-3.0, 0.0))]
    for order in (cands, cands[::-1]):
        assert tuple(pick_branch(order, policy, x)) == expected
    with pytest.raises(ValueError, match="unknown policy 'nearest'"):
        pick_branch(cands, "nearest", x)


@pytest.mark.parametrize("tau", [0.31, 0.62, 0.86, 2.39])  # +w comes out an ulp nearer
def test_smallest_distance_tie_survives_rounding(tau):
    # from the ridge x = 0 the two wells are exactly tied and equidistant; the
    # computed minimisers differ in the last bits, which must not pick +w
    e = resolve_entry("double-well")
    seq = run_prox_sequence(e.functional, np.array([0.0]), tau, n_steps=1)
    (minus, _) = e.analytic_resolvent(np.array([0.0]), tau)
    assert seq.steps[0].n_candidates == 2
    assert abs(float(seq.points[1][0] - minus[0])) <= 1e-14
    near = [np.array([-1.0 - 2.3e-16]), np.array([1.0])]  # one ulp farther
    for order in (near, near[::-1]):
        assert pick_branch(order, "smallest-distance", np.array([0.0])) is near[0]


def test_max_steps_rejects_a_longer_schedule(monkeypatch):
    import klflow.prox

    def no_resolvent(*args, **kwargs):
        raise AssertionError("resolvent called before the schedule was checked")

    monkeypatch.setattr(klflow.prox, "resolvent", no_resolvent)
    e = resolve_entry("quadratic?lambda=1")
    controls = ProxControls(max_steps=5)
    with pytest.raises(ValueError, match=r"6 steps, more than max_steps=5"):
        run_prox_sequence(e.functional, np.array([1.0]), 0.5, n_steps=6, controls=controls)
    with pytest.raises(ValueError, match=r"7 steps, more than max_steps=5"):
        run_prox_sequence(e.functional, np.array([1.0]), [0.5] * 7, controls=controls)
    monkeypatch.undo()
    seq = run_prox_sequence(e.functional, np.array([1.0]), 0.5, n_steps=5, controls=controls)
    assert seq.taus.size == 5


@pytest.mark.parametrize(
    "tau, n_steps, match",
    [
        (-0.1, 5, "tau must be a positive finite number, got -0.1"),
        (0.0, 5, "tau must be a positive finite number, got 0.0"),
        (math.nan, 5, "tau must be a positive finite number, got nan"),
        (math.inf, 5, "tau must be a positive finite number, got inf"),
        ([0.5, -0.1], None, "tau must be a positive finite number, got -0.1"),
        ([0.5, 0.0], 2, "tau must be a positive finite number, got 0.0"),
        ([0.5, math.nan], None, "tau must be a positive finite number, got nan"),
        ([math.inf, 0.5], None, "tau must be a positive finite number, got inf"),
        ("0.1", 5, "tau must be a positive finite number, got '0.1'"),
        (True, 5, "tau must be a positive finite number, got True"),
        ([0.5, "0.1"], None, "tau must be a positive finite number, got '0.1'"),
        (0.5, -3, "n_steps must be a positive integer, got -3"),
        (0.5, 0, "n_steps must be a positive integer, got 0"),
        (0.5, 5.7, "n_steps must be a positive integer, got 5.7"),
        ([0.5] * 5, 5.0, "n_steps must be a positive integer, got 5.0"),
        (0.5, True, "n_steps must be a positive integer, got True"),
        ([], None, "the tau schedule is empty"),
    ],
)
def test_bad_schedules_are_rejected_before_any_step(monkeypatch, tau, n_steps, match):
    import klflow.prox

    def no_resolvent(*args, **kwargs):
        raise AssertionError("resolvent called before the schedule was checked")

    monkeypatch.setattr(klflow.prox, "resolvent", no_resolvent)
    e = resolve_entry("quadratic?lambda=1")
    with pytest.raises(ValueError, match=re.escape(match)):
        run_prox_sequence(e.functional, np.array([1.0]), tau, n_steps=n_steps)
