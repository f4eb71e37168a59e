"""Local-to-global descent machinery with empirical rate certificates.

Slope conditions anchored at a point certify that gradient-flow trajectories
and proximal-point sequences converge to minimisers at explicit rates; this
package checks the conditions on sampled data, integrates the dynamics, and
validates every closed-form bound against observation.
"""
from .conditions import (
    ConditionReport,
    check_condition_A,
    check_condition_C,
    estimate_alpha,
    matched_half_power,
)
from .core import EuclideanBackend, Functional, as_point
from .corpus import (
    BruteForceResult,
    CorpusEntry,
    brute_force_minimiser,
    list_corpus,
    resolve_entry,
)
from .experiment import (
    ExperimentConfig,
    RunReport,
    SuiteReport,
    emit_plot_data,
    run_experiment,
    run_suite,
)
from .flow import (
    EdeReport,
    FlowControls,
    RateCertificate,
    Trajectory,
    certify_power_family,
    certify_rates_continuous,
    improved_sqrt_distance_bound,
    integrate_maximal_slope,
    trajectory_to_csv,
    verify_ede,
)
from .prox import (
    DeGiorgiReport,
    ProxControls,
    ProxSequence,
    ProxStep,
    RecursiveBoundParams,
    ResolventResult,
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
from .slope import SlopeEstimate, descending_slope, sampled_slope
from .theta import (
    ParameterFunction,
    eta_eval,
    gamma_eval,
    make_power_theta,
    theta_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "BruteForceResult",
    "ConditionReport",
    "CorpusEntry",
    "DeGiorgiReport",
    "EdeReport",
    "EuclideanBackend",
    "ExperimentConfig",
    "FlowControls",
    "Functional",
    "ParameterFunction",
    "ProxControls",
    "ProxSequence",
    "ProxStep",
    "RateCertificate",
    "RecursiveBoundParams",
    "ResolventResult",
    "RunReport",
    "SlopeEstimate",
    "SuiteReport",
    "Trajectory",
    "as_point",
    "brute_force_minimiser",
    "certify_power_family",
    "certify_power_rates_discrete",
    "certify_rates_continuous",
    "certify_rates_discrete",
    "check_condition_A",
    "check_condition_C",
    "check_step_monotonicity",
    "de_giorgi_residual",
    "descending_slope",
    "emit_plot_data",
    "estimate_alpha",
    "eta_eval",
    "gamma_eval",
    "improved_sqrt_distance_bound",
    "integrate_maximal_slope",
    "ioffe_distance_check",
    "limit_diagnostics",
    "list_corpus",
    "make_power_theta",
    "matched_half_power",
    "one_step_decay_check",
    "recursion_equality_sequence",
    "recursive_bound",
    "recursive_bound_params",
    "resolve_entry",
    "resolvent",
    "run_experiment",
    "run_prox_sequence",
    "run_suite",
    "sampled_slope",
    "sequence_to_csv",
    "theta_inverse",
    "trajectory_to_csv",
    "verify_ede",
]
