"""The public contract, and what importing and loading klflow costs: no scipy
on any run path, no numpy.ma on the flow path and no numpy.polynomial in the
De Giorgi integral.

The pytest process has imported scipy already, so each import check runs in a fresh
interpreter, where importing any scipy module raises ImportError.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import klflow

SRC = str(Path(klflow.__file__).resolve().parents[1])

#: klflow.__all__: adding or removing a public name is an edit here
PUBLIC_NAMES = [
    "BruteForceResult", "ConditionReport", "CorpusEntry", "DeGiorgiReport", "EdeReport",
    "EuclideanBackend", "ExperimentConfig", "FlowControls", "Functional",
    "ParameterFunction", "ProxControls", "ProxSequence", "ProxStep", "RateCertificate",
    "RecursiveBoundParams", "ResolventResult", "RunReport", "SlopeEstimate", "SuiteReport",
    "Trajectory", "as_point", "brute_force_minimiser", "certify_power_family",
    "certify_power_rates_discrete", "certify_rates_continuous", "certify_rates_discrete",
    "check_condition_A", "check_condition_C", "check_step_monotonicity",
    "de_giorgi_residual", "descending_slope", "emit_plot_data", "estimate_alpha",
    "eta_eval", "gamma_eval", "improved_sqrt_distance_bound", "integrate_maximal_slope",
    "ioffe_distance_check", "limit_diagnostics", "list_corpus", "make_power_theta",
    "matched_half_power", "one_step_decay_check", "recursion_equality_sequence",
    "recursive_bound", "recursive_bound_params", "resolve_entry", "resolvent",
    "run_experiment", "run_prox_sequence", "run_suite", "sampled_slope", "sequence_to_csv",
    "theta_inverse", "trajectory_to_csv", "verify_ede",
]

SCRIPT = r"""
import io, sys
from contextlib import redirect_stderr, redirect_stdout

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

class NoScipy:  # a meta path finder that fails every scipy import
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"klflow imported {name}")
        return None

sys.meta_path.insert(0, NoScipy())

tmp = sys.argv[1]
loaded = {}

import klflow
loaded["import"] = scipy_modules()

from klflow.corpus import resolve_entry
from klflow.experiment import load_manifest

with open(tmp + "/manifest.yaml", "w") as fh:
    fh.write(
        "runs:\n"
        "  - {id: a-flow, mode: flow, functional: 'quadratic?lambda=1', x0: 1.0, r: 1.0, horizon: 1.0}\n"
        "  - {id: b-prox, mode: prox, functional: 'double-well', x0: 0.5, r: 1.0, tau: 0.1, n_steps: 5}\n"
        "  - {id: c-cond, mode: condition, functional: 'power-potential?p=4&center=0,0,0', x0: [0.5, 0.0, 0.0], r: 0.5}\n"
        "  - {id: d-rec, mode: recursion, recursion: {alpha: 1.0, delta: 0.7, f0: 1.0, k_max: 20}}\n"
    )
configs = load_manifest(tmp + "/manifest.yaml")
for cfg in configs:
    if cfg.functional:
        resolve_entry(cfg.functional)
loaded["load"] = scipy_modules()

from klflow.cli import main
with redirect_stdout(io.StringIO()):
    assert main(["list-corpus"]) == 0
loaded["list-corpus"] = scipy_modules()

with open(tmp + "/bad.yaml", "w") as fh:
    fh.write("id: bad\nmode: flow\nfunctional: quadratic\nx0: 1.0\nflow_controls: {policy: sideways}\n")
with redirect_stderr(io.StringIO()):
    assert main(["run", tmp + "/bad.yaml", "--output", tmp + "/out"]) == 2
loaded["exit-2"] = scipy_modules()

from klflow.prox import ProxControls, resolvent
resolvent(resolve_entry("quadratic?lambda=1").functional, 0.7, 0.002, ProxControls(n_grid=33))
loaded["convex-resolvent"] = scipy_modules()
resolvent(resolve_entry("double-well").functional, 0.5, 0.1)
loaded["resolvent"] = scipy_modules()
resolvent(resolve_entry("quadratic?lambda=1&center=0,0").functional, [1.0, 0.5], 0.5)
loaded["convex-resolvent-2d"] = scipy_modules()
resolvent(resolve_entry("power-potential?p=1&center=0,0").functional, [0.1, 0.05], 0.5)
loaded["kink-resolvent-2d"] = scipy_modules()

from klflow.corpus import make_power_potential
make_power_potential(4).analytic_resolvent([1.0], 0.1)
loaded["power-closed-form"] = scipy_modules()

from klflow.prox import recursion_equality_sequence, recursive_bound_params
recursion_equality_sequence(recursive_bound_params(1.0, 1.7, 1.0), 20)
loaded["recursion"] = scipy_modules()

with open(tmp + "/q-cond.yaml", "w") as fh:
    fh.write("id: q-cond\nmode: condition\nfunctional: quadratic?lambda=1\nx0: 1.0\nradii: [0.5, 1.5]\n")
with redirect_stdout(io.StringIO()):
    assert main(["run", tmp + "/q-cond.yaml", "--output", tmp + "/q-cond-out"]) == 0
loaded["condition"] = scipy_modules()

# condition A-strict holds, so the run checks its limit by brute force
with open(tmp + "/strict-flow.yaml", "w") as fh:
    fh.write("id: strict-flow\nmode: flow\nfunctional: quadratic?lambda=1\nx0: 1.0\nr: 1.5\n")
with redirect_stdout(io.StringIO()):
    assert main(["run", tmp + "/strict-flow.yaml", "--output", tmp + "/strict-out"]) == 0
loaded["strict-flow"] = scipy_modules()
loaded["strict-flow-numpy.ma"] = "numpy.ma" in sys.modules

# in 2-D the condition scan and the flow's probes sample the ball
with open(tmp + "/q2d-cond.yaml", "w") as fh:
    fh.write("id: q2d-cond\nmode: condition\nfunctional: quadratic?lambda=1&center=0,0\nx0: [1.0, 0.5]\n")
with redirect_stdout(io.StringIO()):
    assert main(["run", tmp + "/q2d-cond.yaml", "--output", tmp + "/q2d-cond-out"]) == 0
loaded["condition-2d"] = scipy_modules()

with open(tmp + "/q2d-flow.yaml", "w") as fh:
    fh.write("id: q2d-flow\nmode: flow\nfunctional: quadratic?lambda=1&center=0,0\nx0: [1.0, 0.5]\n")
with redirect_stdout(io.StringIO()):
    assert main(["run", tmp + "/q2d-flow.yaml", "--output", tmp + "/q2d-flow-out"]) == 0
loaded["flow-2d"] = scipy_modules()

from klflow.core import Functional
q = resolve_entry("quadratic?lambda=1&center=0,0").functional
resolvent(Functional(label="value-only", value=q.value, backend=q.backend), [1.0, 0.5], 0.5)
loaded["value-only-multistart-2d"] = scipy_modules()

with open(tmp + "/q-dg.yaml", "w") as fh:
    fh.write(
        "id: q-dg\nmode: prox\nfunctional: quadratic?lambda=1\nx0: 1.0\ntau: 0.5\n"
        "n_steps: 1\nprox_controls: {compute_de_giorgi: true}\n"
    )
with redirect_stdout(io.StringIO()):
    assert main(["run", tmp + "/q-dg.yaml", "--output", tmp + "/q-dg-out"]) == 0
loaded["de-giorgi"] = scipy_modules()
loaded["de-giorgi-numpy.polynomial"] = "numpy.polynomial" in sys.modules

from klflow import eta_eval, gamma_eval
from klflow.theta import ParameterFunction
pf = ParameterFunction(theta=lambda u: u + u * u, theta_deriv=lambda u: 1.0 + 2.0 * u)
eta_eval(pf, 0.0), eta_eval(pf, 0.5), eta_eval(pf, 7.0), gamma_eval(pf, 2.0)
loaded["custom-theta"] = scipy_modules()
print(repr(loaded))
"""


def test_scipy_loads_only_where_it_is_used(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
    # every 1-D resolvent, with a modulus or without, and the recursion find
    # their roots in Python floats; brute force refines by golden section; an
    # n-D resolvent descends in numpy, and the power closed form bisects; the
    # n-D samples (condition scans, flow probes, multistart starts) take their
    # normal quantile from sampling._ndtri; the De Giorgi integral and a custom
    # theta's eta take core.gauss_legendre
    for step in ("import", "load", "list-corpus", "exit-2", "convex-resolvent",
                 "resolvent", "convex-resolvent-2d", "kink-resolvent-2d",
                 "power-closed-form", "recursion", "condition", "strict-flow",
                 "condition-2d", "flow-2d", "value-only-multistart-2d", "de-giorgi",
                 "custom-theta"):
        assert loaded[step] == [], (step, loaded[step])
    # the flow's pair certificate picks distinct indices without np.unique
    assert loaded["strict-flow-numpy.ma"] is False
    # the Gauss-Legendre nodes are literals, not leggauss(8)
    assert loaded["de-giorgi-numpy.polynomial"] is False


def test_public_names_are_the_pinned_list():
    assert klflow.__all__ == PUBLIC_NAMES
    assert PUBLIC_NAMES == sorted(set(PUBLIC_NAMES))
    for name in PUBLIC_NAMES:
        assert getattr(klflow, name) is not None, name
