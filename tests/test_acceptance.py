"""End-to-end acceptance gates.

Each test covers one headline claim of the library and prints a single
``[PASS]``/``[FAIL]`` line so the whole file reads as a checklist:

 1. quadratic descent matches the exponential rate and the distance envelope
 2. symmetric double-well branch trajectories earn every continuous certificate
 3. staircase descent glues at the jump and telescopes the theta-distance
 4. energy-identity residuals shrink at second order in the step size
 5. variational interpolation identity is exact on solvable instances
 6. discrete iterates beat the geometric bound at every step
 7. sharp finite-termination step count for the cone
 8. regime-specific discrete bounds dominate across the power exponents
 9. equality recursions saturate but never exceed the recursive bound
10. chain rule for the reparametrised slope across the corpus
11. slope-condition truth table and the matched-theta equivalence
12. the tight offset generator is reported as the designed failure
13. certified runs always have a minimiser within the theta budget
"""

import math
import time

import numpy as np
import pytest
import yaml
from scipy.optimize import minimize_scalar

from klflow import brute_force_minimiser, estimate_alpha, list_corpus, resolve_entry
from test_slope import reference_slope
from klflow.conditions import (
    check_condition_A,
    check_condition_C,
    matched_half_power,
)
from klflow.core import Functional
from klflow.experiment import ExperimentConfig, run_experiment, run_suite
from klflow.flow import FlowControls, certify_rates_continuous, integrate_maximal_slope, verify_ede
from klflow.prox import (
    ProxControls,
    certify_power_rates_discrete,
    de_giorgi_residual,
    recursion_equality_sequence,
    recursive_bound,
    recursive_bound_params,
    run_prox_sequence,
)
from klflow.slope import descending_slope
from klflow.theta import make_power_theta


def _gate(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_01_quadratic_exponential_rate():
    t0 = time.perf_counter()
    e = resolve_entry("quadratic?lambda=1")
    traj = integrate_maximal_slope(e.functional, np.array([1.0]), t_end=5.0)
    f0 = float(traj.fs[0])
    rel = max(
        abs(fv - f0 * math.exp(-2.0 * t)) / (f0 * math.exp(-2.0 * t))
        for t, fv in zip(traj.ts, traj.fs)
    )
    # distance envelope d(y_t, y_T) <= r exp(-alpha t / 2) with r=1, alpha=2
    x_end = float(traj.xs[-1, 0])
    margin = min(
        math.exp(-t) - abs(float(x) - x_end)
        for t, x in zip(traj.ts, traj.xs[:, 0])
    )
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-4 and margin >= -1e-7 and elapsed < 1.0
    _gate(
        "01 quadratic exponential rate",
        ok,
        f"rel<= {rel:.2e}, dist margin {margin:.2e}, {elapsed:.2f}s",
    )


def test_02_double_well_branch_certificates():
    t0 = time.perf_counter()
    e = resolve_entry("double-well?lambda=1&a=1")
    pf = matched_half_power(2.0)
    x0 = np.array([0.0])
    ok = True
    worst = math.inf
    for pol in ("positive-branch", "negative-branch"):
        traj = integrate_maximal_slope(
            e.functional, x0, t_end=15.0, controls=FlowControls(policy=pol)
        )
        certs = certify_rates_continuous(traj, pf, x0, 1.0)
        for c in certs:
            ok = ok and not c.skipped and c.verdict and c.margin >= -c.tol
            worst = min(worst, c.margin)
        # strict confinement: inside the unit ball while the value is positive
        live = traj.fs > 1e-12
        ok = ok and float(np.abs(traj.xs[live, 0]).max()) < 1.0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _gate(
        "02 double-well branch certificates",
        ok,
        f"worst margin {worst:.2e}, {elapsed:.2f}s",
    )


def test_03_staircase_glue_telescoping():
    t0 = time.perf_counter()
    e = resolve_entry("staircase?m=1&eps=0.1")
    x0 = np.array([2.0])
    pf, r = e.condition_data(x0)
    traj = integrate_maximal_slope(e.functional, x0, t_end=3.0)
    glue_ok = (
        len(traj.segment_boundaries) == 1
        and abs(traj.segment_boundaries[0] - 1.0) <= 1e-3
    )
    certs = certify_rates_continuous(traj, pf, x0, r)
    cert_ok = all(c.skipped or c.verdict for c in certs)
    tele = next(c for c in certs if c.kind == "theta-distance")
    elapsed = time.perf_counter() - t0
    ok = glue_ok and cert_ok and tele.margin >= -1e-7 and elapsed < 1.0
    _gate(
        "03 staircase glue and telescoping",
        ok,
        f"boundary {traj.segment_boundaries[0]:.4f}, "
        f"theta-distance margin {tele.margin:.2e}, {elapsed:.2f}s",
    )


def test_04_energy_identity_order():
    e = resolve_entry("quadratic?lambda=1")
    residuals = {}
    for dt in (2e-3, 1e-3):
        traj = integrate_maximal_slope(
            e.functional, np.array([1.0]), t_end=1.0, controls=FlowControls(fixed_dt=dt)
        )
        residuals[dt] = verify_ede(traj).max_residual
    ratio = residuals[2e-3] / residuals[1e-3]
    _gate("04 energy identity order", ratio >= 1.8, f"ratio {ratio:.2f}")


def test_05_variational_interpolation_identity():
    t0 = time.perf_counter()
    quad = resolve_entry("quadratic?lambda=1")
    rq = de_giorgi_residual(quad.functional, np.array([1.0]), 1.0)
    cone = resolve_entry("power-potential?p=1")
    rc = de_giorgi_residual(cone.functional, np.array([1.0]), 1.0)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(rq.residual) <= 1e-8
        and abs(float(rq.z[0]) - 0.5) <= 1e-6
        and abs(rc.residual) <= 1e-6
        and elapsed < 1.0
    )
    _gate(
        "05 variational interpolation identity",
        ok,
        f"quad {rq.residual:.1e}, cone {rc.residual:.1e}, {elapsed:.2f}s",
    )


def test_06_discrete_exponential_bound():
    e = resolve_entry("quadratic?lambda=1")
    seq = run_prox_sequence(
        e.functional,
        np.array([1.0]),
        0.5,
        n_steps=50,
        controls=ProxControls(stop_f_tol=0.0),
    )
    assert seq.n_iterates == 51
    obs_ok = all(
        abs(float(fv) - 0.5 * 2.25 ** (-k)) <= 1e-9 * 0.5 * 2.25 ** (-k)
        for k, fv in enumerate(seq.fs)
    )
    margins = [0.5 * 2.0 ** (-k) - float(fv) for k, fv in enumerate(seq.fs)]
    # the bound meets the observed value exactly at k=0 and dominates after
    bound_ok = margins[0] >= 0.0 and all(m > 0.0 for m in margins[1:])
    _gate(
        "06 discrete exponential bound",
        obs_ok and bound_ok,
        f"min margin k>=1: {min(margins[1:]):.2e}",
    )


def test_07_finite_termination_step_count():
    cone = resolve_entry("power-potential?p=1")
    seq = run_prox_sequence(cone.functional, np.array([1.0]), 0.3, n_steps=10)
    k_pred = math.ceil(1.0 * 1.1 / 0.3)
    certs = certify_power_rates_discrete(seq, 1.0, 1.0, r=1.1)
    fin = next(c for c in certs if c.kind == "finite-termination")
    ok = (
        seq.terminated_at == 4
        and k_pred == 4
        and fin.verdict
        and fin.details["k_bound"] == 4
    )
    _gate(
        "07 finite termination step count",
        ok,
        f"terminated at {seq.terminated_at}, predicted {k_pred}",
    )


def test_08_power_regime_sweep():
    cases = (
        (0.25, "power-potential?p=4", 0.3, 200, None,
         {"discrete-polynomial", "discrete-distance-power"}),
        (0.5, "quadratic?lambda=1", 0.75, 200, None,
         {"discrete-geometric", "discrete-distance-power"}),
        (0.75, "power-potential?p=1.3333333333333333", 0.8, 35,
         ProxControls(stop_f_tol=0.0, stall_tol=0.0),
         {"discrete-geometric", "discrete-doubly-exponential",
          "discrete-distance-power"}),
    )
    ok = True
    details = []
    for gamma, cid, c, n, controls, kinds in cases:
        e = resolve_entry(cid)
        x0 = np.array([1.0])
        f0 = e.functional.value(x0)
        r = 1.5 * (c / gamma) * f0**gamma
        seq = run_prox_sequence(e.functional, x0, 0.1, n_steps=n, controls=controls)
        certs = certify_power_rates_discrete(seq, c, gamma, r=r)
        got = {cert.kind for cert in certs}
        regime_ok = got == kinds and all(
            not cert.skipped and cert.verdict and cert.margin >= 0.0 for cert in certs
        )
        ok = ok and regime_ok
        details.append(
            f"gamma={gamma}: min margin {min(cert.margin for cert in certs):.1e}"
        )
    _gate("08 power regime sweep", ok, "; ".join(details))


def test_09_recursion_equality_sharpness():
    ok = True
    worst = math.inf
    for delta in (0.5, 1.0, 2.0):
        params = recursive_bound_params(1.0, delta, 1.0)
        u = recursion_equality_sequence(params, 10_000)
        m = min(
            recursive_bound(params, k) - float(u[k]) for k in range(u.size)
        )
        worst = min(worst, m)
        ok = ok and m >= -1e-12
    # independent oracle for the polynomial constant at delta=2: golden-section
    # localisation of the cubic crossover s^3 = s^2 + 1, then C = 1/s^2
    res = minimize_scalar(
        lambda s: (s**3 - s**2 - 1.0) ** 2,
        bracket=(1.0, 1.5, 2.0),
        method="golden",
        options={"xtol": 1e-12},
    )
    c_oracle = 1.0 / float(res.x) ** 2
    params2 = recursive_bound_params(1.0, 2.0, 1.0)
    diff = abs(params2.poly_c - c_oracle)
    ok = ok and diff <= 1e-8 and abs(c_oracle - 0.4656) < 1e-4
    _gate(
        "09 recursion equality sharpness",
        ok,
        f"worst margin {worst:.1e}, constant diff {diff:.1e}",
    )


def test_10_chain_rule_corpus():
    total_used = 0
    total_bad = 0
    for line in list_corpus():
        e = resolve_entry(line.split()[0])
        f = e.functional
        if e.condition_data is not None:
            pf, _ = e.condition_data(np.array([1.0]))
        else:
            pf = make_power_theta(1.0, 0.5)
        comp = Functional(
            label="reparametrised",
            value=lambda x, f=f, pf=pf: pf.theta(max(f.value(x), 0.0)),
            backend=f.backend,
        )
        for x in np.linspace(*e.sample_box, 100):
            p = np.array([x])
            fv = f.value(p)
            if fv <= 1e-9 or not np.isfinite(fv):
                continue
            if any(abs(x - q) < 1e-3 for q in e.nonsmooth_points):
                continue
            slope = reference_slope(line.split()[0], p)
            if not np.isfinite(slope) or slope <= 1e-6:
                continue
            numeric = descending_slope(comp, p).value
            product = pf.theta_deriv(fv) * slope
            total_used += 1
            if abs(numeric - product) > 0.02 * product + 1e-3:
                total_bad += 1
    ok = total_bad == 0 and total_used >= 500
    _gate(
        "10 chain rule across the corpus",
        ok,
        f"{total_used} points, {total_bad} mismatches",
    )


def test_11_condition_truth_table_and_equivalence():
    e = resolve_entry("truncated-parabola")
    x0 = np.array([1.0])
    plain_at_anchor = check_condition_C(e.functional, x0, 1.0).holds
    strict_failures = sum(
        not check_condition_C(e.functional, x0, float(r), strict=True).holds
        for r in np.linspace(0.1, 2.0, 20)
    )
    table_ok = plain_at_anchor and strict_failures == 20

    anchors = (
        ("quadratic?lambda=1", 1.0, 2.0),
        ("double-well?lambda=1&a=1", 0.5, 0.5),
        ("truncated-parabola", 1.0, 1.0),
        ("power-potential?p=1", 1.0, 1.1),
        ("power-potential?p=4", 1.0, 1.5),
        ("staircase?m=1&eps=0.1", 1.5, 3.0),
        ("sharpness?c=1&gamma=0.5&M=4&eps=0.05", 1.0, 1.0),
    )
    agree = 0
    checked = 0
    for cid, anchor, r0 in anchors:
        e2 = resolve_entry(cid)
        p0 = np.array([anchor])
        for r in (0.5 * r0, r0, 1.5 * r0):
            est = estimate_alpha(e2.functional, p0, r)
            rep_c = check_condition_C(e2.functional, p0, r, alpha_override=est)
            checked += 1
            if est <= 0.0:
                agree += int(not rep_c.holds)
                continue
            rep_a = check_condition_A(e2.functional, matched_half_power(est), p0, r)
            agree += int(rep_a.holds == rep_c.holds)
    equiv_ok = agree == checked
    _gate(
        "11 condition truth table and equivalence",
        table_ok and equiv_ok,
        f"strict failures 20/20, matched agreement {agree}/{checked}",
    )


def test_12_designed_failure_negative_control(tmp_path):
    manifest = tmp_path / "suite.yaml"
    manifest.write_text(
        yaml.safe_dump(
            [
                {
                    "id": "q-flow",
                    "mode": "flow",
                    "functional": "quadratic?lambda=1",
                    "x0": 1.0,
                    "r": 1.5,
                    "horizon": 3.0,
                },
                {
                    "id": "sharpness-tight",
                    "mode": "all",
                    "functional": "sharpness?eps=0.05",
                    "x0": 1.0,
                    "r": 1.0,
                    "horizon": 8.0,
                },
            ]
        )
    )
    suite = run_suite(manifest, output_root=tmp_path / "out")
    bad = next(r for r in suite.reports if r.run_id == "sharpness-tight")
    budget = bad.condition["A"]["theta_budget"]
    f_final = bad.flow_summary["f_final"]
    bf = brute_force_minimiser(resolve_entry("sharpness?eps=0.05"))
    limit = np.array(bad.flow_summary["limit_point"])
    ok = (
        suite.verdict == "fail"
        and suite.failing == ["sharpness-tight"]
        and abs(budget + 0.05) <= 1e-12
        and abs(f_final - 0.000625) <= 1e-12
        and f_final > bf.value + 1e-4
        and bf.nearest_distance(limit) > 0.5
    )
    _gate(
        "12 designed failure is reported",
        ok,
        f"budget {budget:+.3f}, stalls at f={f_final:.6f}, "
        f"failing={suite.failing}",
    )


def test_13_minimiser_distance_bound(tmp_path):
    configs = (
        {"id": "q-flow", "mode": "all", "functional": "quadratic?lambda=1",
         "x0": 1.0, "r": 1.5, "horizon": 3.0},
        {"id": "dw-flow", "mode": "all", "functional": "double-well?lambda=1&a=1",
         "x0": 0.4, "r": 0.8, "horizon": 14.0},
        {"id": "stair-flow", "mode": "all", "functional": "staircase?m=1&eps=0.1",
         "x0": 2.0, "r": 5.0, "horizon": 3.0},
        {"id": "cone-prox", "mode": "all", "functional": "power-potential?p=1",
         "x0": 1.0, "r": 1.1, "horizon": 2.0, "tau": 0.3, "n_steps": 10},
        {"id": "power4-prox", "mode": "all", "functional": "power-potential?p=4",
         "x0": 1.0, "r": 1.5, "horizon": 5.0, "tau": 0.1, "n_steps": 60},
        # tight anchor on the plateau edge: never certified, kept as control
        {"id": "trunc-flow", "mode": "all", "functional": "truncated-parabola",
         "x0": 1.0, "r": 0.9, "horizon": 3.0},
    )
    certified = 0
    distance_ok = True
    optimality = {}
    for raw in configs:
        report = run_experiment(
            ExperimentConfig.from_dict(dict(raw)), output_root=tmp_path
        )
        if not report.condition["A-strict"]["holds"]:
            continue
        certified += 1
        entry = resolve_entry(raw["functional"])
        x0 = np.array([float(raw["x0"])])
        pf, _ = entry.condition_data(x0)
        bf = brute_force_minimiser(entry)
        bound = pf.theta(entry.functional.value(x0)) + 1e-3
        distance_ok = distance_ok and bf.nearest_distance(x0) <= bound
        lims = [
            c["verdict"]
            for c in report.certificates
            if c["kind"] == "limit-optimality" and not c.get("skipped")
        ]
        optimality[raw["id"]] = bool(lims) and all(lims)
    ok = (
        certified >= 4
        and distance_ok
        and all(optimality.get(i, False) for i in ("q-flow", "dw-flow", "cone-prox"))
    )
    _gate(
        "13 certified minimiser distance bound",
        ok,
        f"{certified} certified runs, limit optimality {sorted(optimality)}",
    )
