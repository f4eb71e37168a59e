"""Experiment configs, run orchestration, and certificate reporting.

A config names a corpus functional, an anchor (x0, r), a parameter function,
and a mode: ``condition`` (measure the slope condition), ``flow`` (integrate
the descent trajectory and certify continuous-time decay), ``prox`` (iterate
the resolvent and certify discrete decay), ``recursion`` (check the scalar
decay recursion against its closed-form bound), or ``all``.  Runs are fully
deterministic: rerunning a config reproduces every output file bit for bit.

Outputs per run: ``report.json``, a trajectory/sequence CSV, and one
``observed,bound,margin`` CSV per certificate.
"""
from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import yaml

from .certificates import (
    DEFAULT_CERT_TOL, RateCertificate, certificate, certificate_to_dict, is_discrete
)
# check_condition_A/C stay bound here for tracers that patch this module
from .conditions import (  # noqa: F401
    ConditionReport, check_condition_A, check_condition_C, check_conditions
)
from .core import SharedColumns, as_point, check_int, check_real, norm, plain, write_csv
from .corpus import CorpusEntry, brute_force_minimiser, resolve_entry
from .flow import (
    FlowControls,
    certify_power_family,
    certify_rates_continuous,
    integrate_maximal_slope,
    trajectory_table,
    trajectory_to_csv,
    verify_ede,
)
from .prox import (
    ProxControls,
    certify_power_rates_discrete,
    certify_rates_discrete,
    check_step_monotonicity,
    limit_diagnostics,
    recursion_equality_sequence,
    recursive_bound,
    recursive_bound_params,
    run_prox_sequence,
    sequence_table,
    sequence_to_csv,
    tau_schedule,
)
from .theta import make_power_theta

_MODES = ("condition", "flow", "prox", "recursion", "all")
_NESTED = ("theta", "flow_controls", "prox_controls", "tolerances", "recursion")
_THETA_KEYS = ("c", "gamma")
_TOLERANCE_KEYS = ("certificate", "recursion")
_RECURSION_KEYS = ("alpha", "delta", "f0", "k_max")


def _load_yaml(fh):
    """A config or manifest file's YAML, parsed by libyaml when it is installed."""
    return yaml.load(fh, Loader=yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


def _check_keys(raw, key: str, valid) -> None:
    """Reject a nested block that is not a mapping or holds a key outside
    ``valid``; the message lists the valid keys."""
    valid = list(valid)
    if not isinstance(raw, dict):
        raise ValueError(f"{key} must be a mapping with keys {valid}, got {raw!r}")
    unknown = sorted(set(raw) - set(valid))
    if unknown:
        raise ValueError(f"unknown {key} keys: {unknown}; valid keys: {valid}")


def _check_complete(raw, key: str, valid) -> None:
    """``_check_keys``, and every valid key must be present."""
    _check_keys(raw, key, valid)
    missing = [k for k in valid if k not in raw]
    if missing:
        raise ValueError(f"{key} needs keys {missing}; required keys: {list(valid)}")


def _build_controls(cls, raw: dict, key: str):
    """``cls(**raw)`` for a controls dataclass, after ``_check_keys``."""
    _check_keys(raw, key, [f.name for f in fields(cls)])
    return cls(**raw)


@dataclass
class ExperimentConfig:
    run_id: str
    mode: str
    functional: str = ""
    x0: Optional[Sequence[float]] = None
    r: Optional[float] = None
    theta: Optional[dict] = None  # {"c": .., "gamma": ..}; None means matched
    alpha: Optional[float] = None
    tau: Union[float, Sequence[float], None] = None
    n_steps: Optional[int] = None
    horizon: Optional[float] = None
    radii: Optional[Sequence[float]] = None  # condition mode: radius sweep
    flow_controls: dict = field(default_factory=dict)
    prox_controls: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    recursion: Optional[dict] = None
    variants: List[dict] = field(default_factory=list)
    output_dir: Optional[str] = None

    def __post_init__(self) -> None:
        # reject bad control keys, policy names, prox schedules and nested
        # blocks before anything runs; a base config with variants runs only
        # through them, so its blocks may be partial
        _build_controls(FlowControls, self.flow_controls, "flow_controls")
        prox = _build_controls(ProxControls, self.prox_controls, "prox_controls")
        if self.theta == "auto":
            self.theta = None
        if self.variants:
            return
        if self.tau is not None and self.mode in ("prox", "all"):
            tau_schedule(self.tau, self.n_steps, prox.max_steps)
        if self.theta is not None:
            _check_complete(self.theta, "theta", _THETA_KEYS)
            c, gamma = (check_real(f"theta {k}", self.theta[k]) for k in _THETA_KEYS)
            make_power_theta(c, gamma)  # rejects gamma outside (0, 1]
        if self.radii is not None and not isinstance(self.radii, (list, tuple)):
            raise ValueError(f"radii must be a list of positive finite numbers, got {self.radii!r}")
        for rr in self.radii or ():
            check_real("radii entries", rr)
        _check_keys(self.tolerances, "tolerances", _TOLERANCE_KEYS)
        for key, value in self.tolerances.items():
            check_real(f"tolerances {key}", value, positive=False)
        if self.recursion is not None or self.mode == "recursion":
            _check_complete(self.recursion, "recursion", _RECURSION_KEYS)
            for key in ("alpha", "delta", "f0"):
                check_real(f"recursion {key}", self.recursion[key])
            check_int("recursion k_max", self.recursion["k_max"], least=0)
        if self.mode == "recursion":
            return
        # what a run derives before its first scan: the entry, x0 of its
        # dimension, theta, r, and tau in prox mode
        try:
            entry = resolve_entry(self.functional)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"run {self.run_id!r}: {exc.args[0]}") from None
        if self.x0 is None:
            raise ValueError(f"run {self.run_id!r}: x0 is required")
        x0 = as_point(self.x0)
        dim = entry.functional.backend.dimension
        if x0.size != dim:
            raise ValueError(
                f"run {self.run_id!r}: x0 has {x0.size} coordinates, "
                f"but {self.functional!r} is {dim}-dimensional"
            )
        _theta_for(self, entry, x0)
        _radius_for(self, entry, x0)
        if self.mode == "prox" and self.tau is None:
            raise ValueError(f"run {self.run_id!r}: prox mode needs tau")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        data = dict(raw)
        if "id" in data:
            data["run_id"] = data.pop("id")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for req in ("run_id", "mode"):
            if req not in data:
                raise ValueError(f"config missing required key {req!r}")
        if data["mode"] not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {data['mode']!r}")
        if data["mode"] != "recursion" and not data.get("functional"):
            raise ValueError("config missing required key 'functional'")
        if isinstance(data.get("x0"), (int, float)):
            data["x0"] = [float(data["x0"])]
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            raw = _load_yaml(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config file {path} must hold a mapping")
        return cls.from_dict(raw)

    def expand(self) -> List["ExperimentConfig"]:
        """The base run plus one run per variant overlay."""
        base = {f.name: getattr(self, f.name) for f in fields(self)}
        base.pop("variants")
        if not self.variants:
            return [ExperimentConfig(**base, variants=[])]
        out = []
        for i, overlay in enumerate(self.variants):
            merged = dict(base)
            for key, val in overlay.items():
                key = "run_id" if key == "id" else key
                if key in _NESTED and isinstance(val, dict) and isinstance(
                    merged.get(key), dict
                ):
                    merged[key] = {**merged[key], **val}
                else:
                    merged[key] = val
            if merged["run_id"] == base["run_id"]:
                merged["run_id"] = f"{base['run_id']}--{i}"
            out.append(ExperimentConfig(**merged, variants=[]))
        return out

    def certificate_tol(self) -> float:
        return float(self.tolerances.get("certificate", DEFAULT_CERT_TOL))

    def recursion_tol(self) -> float:
        return float(self.tolerances.get("recursion", 1e-12))


@dataclass
class RunReport:
    run_id: str
    mode: str
    verdict: str  # "pass" | "fail"
    condition: dict = field(default_factory=dict)
    certificates: List[dict] = field(default_factory=list)
    flow_summary: Optional[dict] = None
    prox_summary: Optional[dict] = None
    recursion_summary: Optional[dict] = None
    files: List[str] = field(default_factory=list)  # names in the run directory
    notes: List[str] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0


@dataclass
class SuiteReport:
    verdict: str
    failing: List[str]
    reports: List[RunReport]


# ---------------------------------------------------------------------------
# serialization helpers


def _condition_to_dict(rep: ConditionReport) -> dict:
    return plain(
        {
            "condition": rep.condition,
            "holds": rep.holds,
            "alpha_estimate": rep.alpha_estimate,
            "worst_witness": rep.worst_witness,
            "r": rep.r,
            "x0": rep.x0,
            "theta_budget": rep.theta_budget,
            "equilibrium": rep.equilibrium,
            "details": rep.details,
        }
    )


def _cert_table(cert: RateCertificate) -> dict:
    """The columns ``t`` (``k`` in a discrete run), observed, bound, margin."""
    ts, pred, obs = (
        np.asarray(a, dtype=float) for a in (cert.ts, cert.predicted, cert.observed)
    )
    if is_discrete(cert):  # integral step indices are written as integers
        axis = {"k": [int(k) if k.is_integer() else k for k in ts.tolist()]}
    else:
        axis = {"t": ts}
    return {**axis, "observed": obs, "bound": pred, "margin": pred - obs}


def _write_cert_csv(
    cert: RateCertificate, path: Path, shared: Optional[SharedColumns] = None
) -> None:
    write_csv(path, _cert_table(cert), shared)


def emit_plot_data(
    certificates: Sequence[RateCertificate], out_dir, shared: Optional[SharedColumns] = None
) -> List[str]:
    """One observed/bound/margin CSV per non-skipped certificate.

    ``shared`` holds the columns that other files of the run repeat; without
    it the certificates' files share their repeated columns among themselves.
    """
    live = [c for c in certificates if not c.skipped and c.ts.size]
    if not live:
        raise ValueError("no certificate data to emit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if shared is None:
        shared = SharedColumns(map(_cert_table, live))
    used: dict = {}
    files = []
    for cert in live:
        count = used.get(cert.kind, 0)
        used[cert.kind] = count + 1
        stem = cert.kind if count == 0 else f"{cert.kind}-{count + 1}"
        path = out_dir / f"cert_{stem}.csv"
        _write_cert_csv(cert, path, shared)
        files.append(str(path))
    return files


# ---------------------------------------------------------------------------
# run machinery


def resolve_output_root(cli_output=None, config_output_dir=None) -> Path:
    root = (
        cli_output
        or config_output_dir
        or os.environ.get("KLFLOW_OUTPUT_ROOT")
        or "./klflow_output"
    )
    return Path(root)


def _theta_for(config: ExperimentConfig, entry: CorpusEntry, x0: np.ndarray):
    if config.theta is not None:
        pf = make_power_theta(float(config.theta["c"]), float(config.theta["gamma"]))
        return pf
    if entry.condition_data is not None:
        return entry.condition_data(x0)[0]
    raise ValueError(
        f"run {config.run_id!r}: no theta given and the corpus entry has no match"
    )


def _radius_for(config: ExperimentConfig, entry: CorpusEntry, x0: np.ndarray) -> float:
    if config.r is not None:
        return check_real("r", config.r)
    if entry.condition_data is not None:
        return float(entry.condition_data(x0)[1])
    raise ValueError(f"run {config.run_id!r}: no radius given")


def _limit_optimality_certificate(
    entry: CorpusEntry,
    pf,
    x0: np.ndarray,
    f_x0: float,
    limit_point: np.ndarray,
    tol: float,
) -> Optional[RateCertificate]:
    """On a strictly certified run, the reached limit must be a minimiser
    within distance theta(f(x0)) of the anchor.

    Checks d(limit, x0) <= theta(f(x0)) + 1e-3 and, via a dense scan, that
    the limit sits at (or within 1e-3 of) a global minimiser.
    """
    if entry.functional.backend.dimension != 1:
        return None
    bf = brute_force_minimiser(entry)
    cands = [bf.point] + list(bf.ties)
    x_near = min(cands, key=lambda c: norm(c - limit_point))
    d_set = bf.nearest_distance(limit_point)
    f_limit = float(entry.functional.value(limit_point))
    # a run cut off at finite horizon still has theta(f_end) of travel left,
    # so grant exactly that much slack towards the minimising set
    try:
        slack = float(pf.theta(max(f_limit, 0.0)))
    except ValueError:
        slack = 0.0
    near_optimal = bool(
        d_set <= slack + 1e-3 + tol
        or f_limit <= bf.value + 1e-9 * (1.0 + abs(bf.value))
    )
    d_anchor = norm(limit_point - x0)
    bound = pf.theta(f_x0) + 1e-3
    return certificate(
        "limit-optimality",
        np.array([0.0]),
        np.array([bound]),
        np.array([d_anchor]),
        0.0,
        tol,
        {
            "minimiser": [float(v) for v in np.atleast_1d(x_near)],
            "minimum_value": bf.value,
            "f_limit": f_limit,
            "limit_to_minimiser": d_set,
            "near_optimal": near_optimal,
            "on_boundary": bf.on_boundary,
        },
        verdict=d_anchor <= bound + tol and near_optimal,
    )


def _run_condition_mode(
    config: ExperimentConfig,
    entry: CorpusEntry,
    pf,
    x0: np.ndarray,
    r: float,
    reports: dict,
) -> Tuple[dict, dict]:
    summary = {}
    if config.radii:
        table = []
        for rr in config.radii:
            rr = float(rr)
            at_rr = reports if rr == r else check_conditions(
                entry.functional, pf, x0, rr, alpha_override=config.alpha
            )
            row = {
                "r": rr,
                "alpha_estimate": at_rr["C"].alpha_estimate,
                "C_holds": at_rr["C"].holds,
                "A_holds": at_rr["A"].holds,
            }
            if entry.known_alpha is not None:
                row["alpha_known"] = float(entry.known_alpha(x0, rr))
            table.append(row)
        summary["radius_sweep"] = table
    return {k: _condition_to_dict(v) for k, v in reports.items()}, summary


def _run_flow_mode(
    config: ExperimentConfig,
    entry: CorpusEntry,
    pf,
    x0: np.ndarray,
    r: float,
    conditions: dict,
    tables: list,
    report: RunReport,
) -> List[RateCertificate]:
    f = entry.functional
    controls = FlowControls(**config.flow_controls)
    cond, cond_strict = conditions["A"], conditions["A-strict"]
    report.condition.setdefault("A", _condition_to_dict(cond))
    report.condition.setdefault("A-strict", _condition_to_dict(cond_strict))
    traj = integrate_maximal_slope(f, x0, t_end=config.horizon, controls=controls)
    ede = verify_ede(traj)
    tol = config.certificate_tol()
    certs = certify_rates_continuous(traj, pf, x0, r, tol=tol, condition=cond)
    if pf.family == "power":
        certs.append(certify_power_family(traj, pf.c, pf.gamma, r=r, tol=tol))
    if cond_strict.holds and not cond_strict.equilibrium:
        opt = _limit_optimality_certificate(
            entry, pf, x0, f.value(x0), traj.limit_point, tol
        )
        if opt is not None:
            certs.append(opt)
    tables.append(("trajectory.csv", trajectory_to_csv, traj, trajectory_table(traj)))
    monotone = bool(np.all(np.diff(traj.fs) <= 1e-12 * (1.0 + np.abs(traj.fs[:-1]))))
    report.flow_summary = plain(
        {
            "t_end": traj.t_end,
            "t_star": traj.t_star,
            "absorbed": traj.absorbed,
            "equilibrium": traj.equilibrium,
            "glued": traj.glued,
            "segment_boundaries": traj.segment_boundaries,
            "n_samples": traj.n_samples,
            "f_initial": traj.fs[0],
            "f_final": traj.fs[-1],
            "limit_point": traj.limit_point,
            "monotone": monotone,
            "ede_max_residual": ede.max_residual,
            "ede_max_equality_residual": ede.max_equality_residual,
            "ede_interior_samples": ede.n_interior,
            "steps": traj.diagnostics.get("steps"),
        }
    )
    if not monotone:
        report.notes.append("flow: objective not monotone along samples")
    return certs


def _run_prox_mode(
    config: ExperimentConfig,
    entry: CorpusEntry,
    pf,
    x0: np.ndarray,
    r: float,
    conditions: dict,
    tables: list,
    report: RunReport,
) -> List[RateCertificate]:
    f = entry.functional
    controls = ProxControls(**config.prox_controls)
    cond_strict = conditions["A-strict"]
    report.condition.setdefault("A-strict", _condition_to_dict(cond_strict))
    seq = run_prox_sequence(f, x0, config.tau, config.n_steps, controls)
    tol = config.certificate_tol()
    certs = certify_rates_discrete(seq, pf, x0=x0, r=r, alpha=config.alpha, tol=tol)
    if pf.family == "power":
        certs.extend(certify_power_rates_discrete(seq, pf.c, pf.gamma, r=r, tol=tol))
    if cond_strict.holds and not cond_strict.equilibrium:
        opt = _limit_optimality_certificate(
            entry, pf, x0, f.value(x0), seq.points[-1], tol
        )
        if opt is not None:
            certs.append(opt)
    mono = [check_step_monotonicity(s) for s in seq.steps]
    # a null step (the iterate no longer moves) says nothing about the slope
    # at the new point, so stationarity is only enforced on real moves
    mono_ok = all(
        m["value_decrease"]
        and m["variational_decrease"]
        and (
            m["stationarity"]
            or s.dist <= 1e-9 * (1.0 + norm(s.from_point))
        )
        for m, s in zip(mono, seq.steps)
    )
    tables.append(("sequence.csv", sequence_to_csv, seq, sequence_table(seq)))
    report.prox_summary = plain(
        {
            **limit_diagnostics(seq),
            "monotonicity_ok": mono_ok,
            "worst_variational_margin": min(
                (m["variational_margin"] for m in mono), default=math.inf
            ),
            "worst_stationarity_margin": min(
                (m["stationarity_margin"] for m in mono), default=math.inf
            ),
            "policy": seq.policy,
            # steps whose resolvent is not certified: an n-d multistart (no
            # modulus), or a single start that no gradient bound certifies
            "uncertified_steps": sum(not s.certified for s in seq.steps),
            "resolvent_evals": sum(s.n_evals for s in seq.steps),
        }
    )
    if not mono_ok:
        report.notes.append("prox: a step violated the variational inequalities")
    return certs


def _run_recursion_mode(
    config: ExperimentConfig, tables: list, report: RunReport
) -> List[RateCertificate]:
    spec = config.recursion
    params = recursive_bound_params(
        float(spec["alpha"]), float(spec["delta"]), float(spec["f0"])
    )
    k_max = int(spec["k_max"])
    observed = recursion_equality_sequence(params, k_max)
    bounds = np.array([recursive_bound(params, k) for k in range(k_max + 1)])
    cert = certificate(
        "recursive-bound",
        np.arange(k_max + 1, dtype=float),
        bounds,
        observed,
        float(k_max),
        config.recursion_tol(),
        {
            "alpha": params.alpha,
            "delta": params.delta,
            "f0": params.f0,
            "poly_c": params.poly_c,
            "alpha_tilde": params.alpha_tilde,
            "k0": params.k0,
        },
    )
    tables.append(("recursion.csv", _write_cert_csv, cert, _cert_table(cert)))
    report.recursion_summary = plain(
        {
            "k_max": k_max,
            "worst_margin": cert.margin,
            "final_observed": observed[-1],
            "final_bound": bounds[-1],
            "poly_c": params.poly_c,
            "alpha_tilde": params.alpha_tilde,
            "u_star": params.u_star,
            "k0": params.k0,
        }
    )
    return [cert]


def run_experiment(
    config: ExperimentConfig, output_root=None
) -> RunReport:
    """Execute one config and write its artifacts under the output root."""
    t_begin = time.perf_counter()
    root = resolve_output_root(output_root, config.output_dir)
    run_dir = root / config.run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    report = RunReport(
        run_id=config.run_id,
        mode=config.mode,
        verdict="pass",
        config=plain(asdict(config)),
    )
    certs: List[RateCertificate] = []
    # (file name, writer, what it writes, its columns) of the run's main CSVs
    tables: list = []

    entry = resolve_entry(config.functional) if config.functional else None
    if config.mode in ("condition", "flow", "prox", "all"):
        # ExperimentConfig checked x0, theta and r at load
        x0 = as_point(config.x0)
        pf = _theta_for(config, entry, x0)
        r = _radius_for(config, entry, x0)
        report.notes.append(
            f"theta: family={pf.family} c={pf.c} gamma={pf.gamma} r={r}"
        )
        # one scan of B_r(x0) serves every mode of the run
        conditions = check_conditions(
            entry.functional, pf, x0, r, alpha_override=config.alpha
        )
    if config.mode in ("condition", "all"):
        cond_reports, summary = _run_condition_mode(
            config, entry, pf, x0, r, conditions
        )
        report.condition.update(cond_reports)
        if summary:
            report.flow_summary = report.flow_summary or {}
            report.flow_summary.update(plain(summary))
    if config.mode in ("flow", "all"):
        certs.extend(
            _run_flow_mode(config, entry, pf, x0, r, conditions, tables, report)
        )
    if config.mode in ("prox", "all") and (config.mode == "prox" or config.tau is not None):
        certs.extend(
            _run_prox_mode(config, entry, pf, x0, r, conditions, tables, report)
        )
    if config.mode == "recursion" or (config.mode == "all" and config.recursion):
        certs.extend(_run_recursion_mode(config, tables, report))

    report.certificates = [certificate_to_dict(c) for c in certs]
    live = [c for c in certs if not c.skipped and c.ts.size]
    # every CSV is written once all are known, so that a column which several
    # files repeat is formatted once
    shared = SharedColumns(chain((t[3] for t in tables), map(_cert_table, live)))
    for name, write, data, _ in tables:
        write(data, run_dir / name, shared)
        report.files.append(name)
    if live:
        report.files.extend(Path(p).name for p in emit_plot_data(live, run_dir, shared))
    failed_certs = [c.kind for c in certs if not c.skipped and not c.verdict]
    gates_ok = not failed_certs
    # the strict variants are diagnostic: budget-tight runs fail them while
    # the plain conditions still hold, so only the latter gate the verdict
    failed_conditions = [
        name
        for name, rep_c in report.condition.items()
        if not name.endswith("-strict") and not rep_c.get("holds", True)
    ]
    if failed_conditions:
        gates_ok = False
        report.notes.append("failed conditions: " + ", ".join(failed_conditions))
    if report.flow_summary and report.flow_summary.get("monotone") is False:
        gates_ok = False
    if report.prox_summary and not report.prox_summary.get("monotonicity_ok", True):
        gates_ok = False
    report.verdict = "pass" if gates_ok else "fail"
    if failed_certs:
        report.notes.append("failed certificates: " + ", ".join(failed_certs))

    report.wall_clock_s = time.perf_counter() - t_begin
    payload = plain({**asdict(report), "files": sorted(report.files)})
    report_path = run_dir / "report.json"
    report_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    report.files.append(report_path.name)
    return report


def load_manifest(path) -> List[ExperimentConfig]:
    """A manifest is a list of config paths or inline config mappings."""
    path = Path(path)
    with open(path) as fh:
        raw = _load_yaml(fh)
    if isinstance(raw, dict) and "runs" in raw:
        raw = raw["runs"]
    if not isinstance(raw, list):
        raise ValueError(f"manifest {path} must hold a list (or a 'runs' list)")
    configs: List[ExperimentConfig] = []
    for item in raw:
        if isinstance(item, str):
            cfg_path = Path(item)
            if not cfg_path.is_absolute():
                cfg_path = path.parent / cfg_path
            configs.extend(ExperimentConfig.from_file(cfg_path).expand())
        elif isinstance(item, dict):
            configs.extend(ExperimentConfig.from_dict(item).expand())
        else:
            raise ValueError("manifest entries must be paths or mappings")
    configs.sort(key=lambda c: c.run_id)
    ids = [c.run_id for c in configs]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate run ids in manifest: {dupes}")
    return configs


def run_suite(manifest_path, output_root=None) -> SuiteReport:
    """Run every config in a manifest and aggregate the verdicts.

    ``suite_report.json`` goes to ``output_root`` or, without one, to the
    ``output_dir`` the configs share; configs that name different ones are
    rejected before anything runs.
    """
    configs = load_manifest(manifest_path)
    if not configs:
        raise ValueError("manifest holds no runs")
    output_dirs = {c.output_dir for c in configs}
    if output_root is None and len(output_dirs) > 1:
        raise ValueError(
            "manifest runs name different output_dir values "
            f"{sorted(output_dirs, key=str)}; give one output root"
        )
    reports = [run_experiment(cfg, output_root=output_root) for cfg in configs]
    failing = [r.run_id for r in reports if r.verdict != "pass"]
    suite = SuiteReport(
        verdict="pass" if not failing else "fail", failing=failing, reports=reports
    )
    root = resolve_output_root(output_root, configs[0].output_dir)
    root.mkdir(parents=True, exist_ok=True)
    payload = plain(
        {
            "verdict": suite.verdict,
            "failing": suite.failing,
            "runs": [
                {"run_id": r.run_id, "mode": r.mode, "verdict": r.verdict}
                for r in reports
            ],
        }
    )
    (root / "suite_report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return suite
