"""The pairwise theta-distance kernel shared by the flow and prox certificates."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from klflow import resolve_entry
from klflow.certificates import theta_distance_margin
from klflow.experiment import ExperimentConfig, run_experiment
from klflow.flow import FlowControls, certify_rates_continuous, integrate_maximal_slope
from klflow.prox import ProxSequence, certify_rates_discrete, run_prox_sequence
from klflow.theta import make_power_theta

QUAD_PF = make_power_theta(1.0 / math.sqrt(2.0), 0.5)


def _pair_loop(theta, points):
    margin = math.inf
    for i in range(len(theta)):
        for j in range(i + 1, len(theta)):
            d = float(np.linalg.norm(points[j] - points[i]))
            margin = min(margin, theta[i] - theta[j] - d)
    return margin


def _random_pairs(n, dim):
    rng = np.random.default_rng(100 * dim + n)
    theta = np.sort(rng.uniform(0.0, 3.0, n))[::-1].copy()
    return theta, rng.normal(size=(n, dim))


# from two 1-d points on, the margin comes from running minima (next test)
@pytest.mark.parametrize(
    "n, dim", [(n, dim) for dim in (1, 2, 3, 5) for n in (0, 1, 2, 50) if dim > 1 or n < 2]
)
def test_theta_distance_margin_is_the_pair_loop(dim, n):
    theta, points = _random_pairs(n, dim)
    margin = theta_distance_margin(theta, points)
    assert margin == _pair_loop(theta, points)
    if n < 2:
        assert margin == math.inf


def _within_8_ulps(margin, theta, points):
    # each of the two kernels rounds at most 4 times by at most one ulp of
    # M = max |theta|, |p|, so they differ by at most 8 ulps of M
    scale = max(np.abs(theta).max(), np.abs(points).max())
    return abs(margin - _pair_loop(theta, points)) <= 8.0 * np.spacing(scale)


@pytest.mark.parametrize("n", [2, 50])
def test_theta_distance_margin_1d_is_the_pair_loop_to_8_ulps(n):
    theta, points = _random_pairs(n, 1)
    assert _within_8_ulps(theta_distance_margin(theta, points), theta, points)


@given(
    st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=2, max_size=40),
    st.booleans(),
)
def test_1d_theta_distance_margin_property(pairs, sharp):
    # sharp: theta_i = |p_i| on a monotone run, where every pair is tight
    theta, p = (np.array(c) for c in zip(*pairs))
    if sharp:
        p = np.sort(np.abs(p))[::-1].copy()
        theta = p.copy()
    points = p[:, None]
    assert _within_8_ulps(theta_distance_margin(theta, points), theta, points)


def test_theta_distance_margin_keeps_a_nan_pair():
    theta = np.array([2.0, math.nan, 0.0])
    points = np.zeros((3, 1))
    assert math.isnan(theta_distance_margin(theta, points))


def _geometric_sequence(n, tau=1e-3):
    xs = (1.0 + tau) ** -np.arange(n, dtype=float)
    fs = 0.5 * xs * xs
    dists = np.concatenate([[0.0], -np.diff(xs)])
    return ProxSequence(
        steps=[],
        points=xs[:, None],
        fs=fs,
        dists=dists,
        slopes=xs.copy(),
        dg_residuals=np.full(n, math.nan),
        taus=np.full(n - 1, tau),
        stop_reason="step-budget",
        terminated_at=None,
        policy="smallest-distance",
        x0=np.array([1.0]),
    )


def test_certify_rates_discrete_runs_in_bounded_memory():
    # one 4001 x 4001 float array alone is 122 MiB
    seq = _geometric_sequence(4001)
    tracemalloc.start()
    try:
        certs = certify_rates_discrete(seq, QUAD_PF, x0=[1.0], r=1.5, alpha=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    pairs = next(c for c in certs if c.kind == "discrete-theta-distance")
    assert pairs.details["pairs"] == 4001 * 4000 // 2
    assert pairs.verdict


def _observed(path):
    with open(path) as fh:
        return [row["observed"] for row in csv.DictReader(fh)]


def test_2d_prox_tail_distances_are_the_distance_power_series(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "id": "q2d-prox", "mode": "prox", "functional": "quadratic?lambda=1&center=0,0",
        "x0": [1.0, 0.5], "tau": 0.5, "n_steps": 20,
    })
    run_experiment(cfg, output_root=tmp_path)
    tail = _observed(tmp_path / "q2d-prox" / "cert_discrete-theta-tail.csv")
    dlast = _observed(tmp_path / "q2d-prox" / "cert_discrete-distance-power.csv")
    assert len(tail) == 20
    assert tail == dlast[:-1]


def test_details_say_whether_pairs_were_sampled():
    e = resolve_entry("quadratic?lambda=1")
    x0 = np.array([1.0])

    def flow_pairs(traj):
        certs = certify_rates_continuous(traj, QUAD_PF, x0, 1.0)
        return next(c for c in certs if c.kind == "theta-distance").details

    budget = integrate_maximal_slope(e.functional, x0)
    assert budget.n_samples > 40
    details = flow_pairs(budget)
    assert details["pairs_sampled"] is True
    assert details["pairs"] == 40 * 39 // 2

    short = integrate_maximal_slope(
        e.functional, x0, t_end=0.3, controls=FlowControls(fixed_dt=0.01)
    )
    assert short.n_samples <= 40
    details = flow_pairs(short)
    assert details["pairs_sampled"] is False
    assert details["pairs"] == short.n_samples * (short.n_samples - 1) // 2

    seq = run_prox_sequence(e.functional, x0, 0.5, n_steps=5)
    certs = certify_rates_discrete(seq, QUAD_PF)
    details = next(c for c in certs if c.kind == "discrete-theta-distance").details
    assert details["pairs_sampled"] is False
    assert details["pairs"] == 6 * 5 // 2
