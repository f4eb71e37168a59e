"""The four benchmark workloads, generated from a seed.

Each workload is a list of runs. A run is either a suite config (executed by
``klflow.run_suite``) or a direct library check on an oracle-free functional
(condition-scan only). Every run states its expected verdict with a one-line
reason taken from the corpus closed forms, and the relative range within
which the seed may jitter its x0, tau or horizon. A zero-width
range pins a value: the known-defect runs and the designed negative control
are pinned at the values where their behaviour is documented, and the 2-D
oracle-free check is pinned because its refinement cost depends on the sample.

The seed jitters values and picks the seed passed to the sampled checkers;
at ``DEFAULT_SEED`` nothing is jittered and the checkers use the library's
own sampler seed, which is the setting the reference margins were recorded at.
This module only builds configs: the program receives nothing else.
"""
from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

DEFAULT_SEED = 0

#: the library's default sampler seed (klflow.sampling.SAMPLER_SEED)
LIBRARY_SAMPLER_SEED = 20240601

HALF_POWER_C1 = {"c": 1.0, "gamma": 0.5}
MATCHED_LAMBDA1 = {"c": 0.7071067811865476, "gamma": 0.5}


@dataclass
class Run:
    id: str
    expect: str  # "pass" | "fail"
    why: str
    config: dict
    jitter: Dict[str, float] = field(default_factory=dict)  # key -> relative half-width
    # direct checks only: "alpha" | "A" | "C" plus their arguments
    check: Optional[str] = None
    sample_count: Optional[int] = None


def _suite(id, expect, why, jitter=None, **config) -> Run:
    return Run(id=id, expect=expect, why=why, config={"id": id, **config}, jitter=jitter or {})


def _direct(id, check, expect, why, jitter=None, sample_count=2048, **config) -> Run:
    return Run(
        id=id, expect=expect, why=why, config={"id": id, **config},
        jitter=jitter or {}, check=check, sample_count=sample_count,
    )


X0_TAU = {"x0": 0.05, "tau": 0.05}

PROX_EXHAUSTIVE = [
    _suite(
        "q-prox", "pass",
        "exact resolvent x/(1+lam tau): f_k = f_0 (1+lam tau)^-2k, strict budget |x0| < r",
        X0_TAU, mode="prox", functional="quadratic?lambda=1", x0=1.0, r=1.5, tau=0.5, n_steps=60,
    ),
    _suite(
        "cone-prox", "pass",
        "soft-threshold x0 - k tau reaches 0 at k = 20 = ceil(c r / tau) with c = r = 1",
        None, mode="prox", functional="power-potential?p=1", x0=1.0, tau=0.05, n_steps=60,
    ),
    _suite(
        "dw-prox-neg", "pass",
        "from the kink the tied resolvents -+lam tau a/(1+lam tau) split by policy; the well is a quadratic",
        {"tau": 0.05}, mode="prox", functional="double-well?lambda=1&a=1", x0=0.0, tau=0.4,
        n_steps=60, prox_controls={"policy": "negative-branch"},
    ),
    _suite(
        "dw-prox-pos", "pass",
        "positive branch of the tied kink resolvent, then geometric decay into the well at +a",
        {"tau": 0.05}, mode="prox", functional="double-well?lambda=1&a=1", x0=0.0, r=1.5,
        tau=0.35, n_steps=60, prox_controls={"policy": "positive-branch"},
    ),
    _suite(
        "p4-prox", "pass",
        "gamma = 1/4: u_{k+1} + alpha u_{k+1}^(3/2) <= u_k gives the polynomial bound",
        X0_TAU, mode="prox", functional="power-potential?p=4", x0=1.0, r=1.5, tau=0.1, n_steps=30,
    ),
    _suite(
        "trunc-prox", "pass",
        "on x > 0 the resolvent is x/(1+2 tau), so the iterates never reach the plateau",
        X0_TAU, mode="prox", functional="truncated-parabola", x0=1.0, tau=0.3, n_steps=40,
        prox_controls={"policy": "negative-branch"},
    ),
    _suite(
        "stair-prox", "pass",
        "each step moves m tau down the ramp until the minimising plateau, inside theta(f(x0))",
        X0_TAU, mode="prox", functional="staircase?m=1&eps=0.1", x0=2.0, r=5.0, tau=0.3, n_steps=20,
    ),
    _suite(
        "q2d-prox", "pass",
        "exact resolvent (x + lam tau c)/(1 + lam tau) in R^2 satisfies every per-step inequality",
        None, mode="prox", functional="quadratic?lambda=1&center=0,0", x0=[1.0, 0.5],
        tau=0.5, n_steps=20,
    ),
    _suite(
        "rec-half", "pass",
        "the equality sequence of u_{k+1} + alpha u_{k+1}^(1/2) = u_k meets the closed-form bound",
        None, mode="recursion", recursion={"alpha": 1.0, "delta": 0.5, "f0": 1.0, "k_max": 200},
    ),
]

PROX_FINE = [
    _suite(
        "q-dg", "pass",
        "exact quadratic resolvent; the De Giorgi interpolation identity holds with equality",
        X0_TAU, mode="prox", functional="quadratic?lambda=1", x0=1.0, tau=0.5, n_steps=1,
        prox_controls={"compute_de_giorgi": True},
    ),
    _suite(
        "cone-dg", "pass",
        "soft-threshold step of the cone; the De Giorgi identity holds with equality",
        X0_TAU, mode="prox", functional="power-potential?p=1", x0=1.0, tau=0.3, n_steps=1,
        prox_controls={"compute_de_giorgi": True},
    ),
    _suite(
        "q-long", "pass",
        "2000 exact steps x/(1+lam tau) stay under the geometric bound; n = 2001 iterates",
        X0_TAU, mode="prox", functional="quadratic?lambda=1", x0=1.0, tau=0.002, n_steps=2000,
        prox_controls={"n_grid": 33},
    ),
]

FLOW_BUDGET = [
    _suite(
        "q-flow", "pass",
        "exact arc x0 exp(-lam t): f decays as exp(-2 lam t), strict budget |x0| < r",
        {"x0": 0.05}, mode="flow", functional="quadratic?lambda=1", x0=1.0, r=1.5,
    ),
    _suite(
        "p4-flow", "pass",
        "slow tail d(t) = (d0^-2 + 8 t)^-1/2 under the matched gamma = 1/4 theta",
        {"x0": 0.05}, mode="flow", functional="power-potential?p=4", x0=1.0, r=1.5,
    ),
    _suite(
        "stair-flow", "pass",
        "arc max(x0 - m t, 0) glued across the value jump at x = 1",
        {"x0": 0.05, "horizon": 0.05}, mode="flow", functional="staircase?m=1&eps=0.1",
        x0=2.0, r=5.0, horizon=3.0,
    ),
    _suite(
        "dw-kick", "pass",
        "the kink at 0 has two descent branches; the kick follows the policy into the well at -a",
        {"horizon": 0.05}, mode="flow", functional="double-well?lambda=1&a=1", x0=0.0,
        horizon=15.0, flow_controls={"policy": "negative-branch"},
    ),
    _suite(
        "sharp-flow", "pass",
        "theta(f(x)) = x exactly, so the budget is tight and every certificate holds with equality",
        {"x0": 0.05}, mode="flow", functional="sharpness?eps=0", x0=1.0, horizon=8.0,
    ),
    _suite(
        "q2d-flow", "pass",
        "exact arc c + exp(-lam t)(x0 - c) in R^2",
        {"x0": 0.05}, mode="flow", functional="quadratic?lambda=1&center=0,0", x0=[1.0, 0.5],
    ),
    _suite(
        "sharp-all", "fail",
        "designed negative control: theta(f(x0)) - r = eps > 0 and the flow stalls on the plateau",
        None, mode="all", functional="sharpness?eps=0.05", x0=1.0, r=1.0, horizon=8.0,
    ),
    _suite(
        "trunc-flow", "pass",
        "arc x0 exp(-2t) on the parabola side; the plateau is never entered",
        {"x0": 0.05}, mode="flow", functional="truncated-parabola", x0=1.0, horizon=5.0,
    ),
]

CONDITION_SCAN = [
    _suite(
        "q-cond", "pass",
        "alpha = 2 lam everywhere and theta(f(x0)) = |x0| = r: both conditions hold with equality",
        {"x0": 0.05}, mode="condition", functional="quadratic?lambda=1", x0=1.0,
        radii=[0.5, 1.5],
    ),
    _suite(
        "trunc-cond", "pass",
        "alpha = 4 on the parabola and the open ball (0, 2 x0) misses the plateau",
        {"x0": 0.05}, mode="condition", functional="truncated-parabola", x0=1.0,
        radii=[0.5, 1.0, 1.5],
    ),
    _suite(
        "adw-cond", "pass",
        "the ball stays left of the flattened well, where alpha = 2 lam",
        {"x0": 0.05}, mode="condition", functional="asymmetric-double-well", x0=-0.5,
        theta=MATCHED_LAMBDA1, r=0.6, radii=[0.3, 0.6, 1.2],
    ),
    _suite(
        "dw-cond", "pass",
        "alpha = 2 lam on each well and r = distance to the nearest minimiser",
        {"x0": 0.05}, mode="condition", functional="double-well?lambda=1&a=1", x0=0.5,
        radii=[0.25, 0.5],
    ),
    _suite(
        "q3d-cond", "pass",
        "alpha = 2 lam everywhere in R^3 and the matched budget is exact",
        {"x0": 0.05}, mode="condition", functional="quadratic?lambda=2&center=0,0,0",
        x0=[1.0, 0.5, 0.25], radii=[0.5],
    ),
    _suite(
        "p4-3d-cond", "fail",
        "alpha = inf 16 d^2 = 0 on a ball reaching the centre, below 4 f(x0)/r^2",
        {"x0": 0.05}, mode="condition", functional="power-potential?p=4&center=0,0,0",
        x0=[1.0, 0.5, 0.25],
    ),
    _direct(
        "free-q-alpha", "alpha", "pass",
        "sampled alpha on (x0 - r, x0 + r), away from the minimiser, equals 2 lam",
        {"x0": 0.05}, functional="quadratic?lambda=1", x0=[1.0], r=0.5,
    ),
    _direct(
        "free-trunc-C", "C", "fail",
        "the plateau is admissible in the ball, so alpha = 0 < 4 f(x0)/r^2",
        {"x0": 0.05}, functional="truncated-parabola", x0=[1.0], r=1.5,
    ),
    _direct(
        "free-q-A", "A", "pass",
        "theta = 2 sqrt(u): theta'(f)|df| = sqrt(2) > 1 everywhere and theta(f(x0)) = sqrt(2) x0 < r",
        None, functional="quadratic?lambda=1", x0=[1.0], r=1.5, theta=HALF_POWER_C1,
    ),
    _direct(
        "free-q2d-C", "C", "fail",
        "alpha = 2 lam < 4 f(x0)/r^2 = 10 lam: the ball of radius 0.5 misses the minimiser",
        None, sample_count=64, functional="quadratic?lambda=1&center=0,0",
        x0=[1.0, 0.5], r=0.5,
    ),
]

WORKLOADS: Dict[str, List[Run]] = {
    "prox-exhaustive": PROX_EXHAUSTIVE,
    "prox-fine": PROX_FINE,
    "flow-budget": FLOW_BUDGET,
    "condition-scan": CONDITION_SCAN,
}


def _scale(value, rel: float, rng: random.Random):
    if isinstance(value, list):
        return [_scale(v, rel, rng) for v in value]
    return value * (1.0 + rng.uniform(-rel, rel))


def generate(name: str, seed: int) -> List[Run]:
    """The workload's runs with values jittered by ``seed``.

    Jitter keys name a config key (``x0``, ``tau``, ``horizon``). Direct
    checks also get ``sampler_seed``; a pinned one (no jitter) keeps the
    library's, because its refinement cost depends on the sample drawn.
    """
    rng = random.Random(seed)
    runs = []
    for base in WORKLOADS[name]:
        run = copy.deepcopy(base)
        if seed != DEFAULT_SEED:
            for key in sorted(run.jitter):
                run.config[key] = _scale(run.config[key], run.jitter[key], rng)
        if run.check is not None:
            pinned = seed == DEFAULT_SEED or not run.jitter
            run.config["sampler_seed"] = (
                LIBRARY_SAMPLER_SEED if pinned else rng.randrange(1, 2**31)
            )
        runs.append(run)
    return runs


def manifest(runs: List[Run]) -> List[dict]:
    """The suite configs of a workload, in the form ``load_manifest`` reads."""
    return [r.config for r in runs if r.check is None]
