"""Correctness gate behind ``failed_frac``.

A run fails the gate if it raises, if its verdict differs from the expected
verdict, if an oracle cross-check fails, or (at the default seed) if a
certificate margin moved from the committed reference by more than that
certificate's ``tol``. The cross-checks read the run's artifacts and compare
them with the corpus closed forms:

* prox runs: every iterate against ``analytic_resolvent`` of the previous one,
  and the De Giorgi residual column against the exact identity (0);
* flow runs: the trajectory endpoint against ``analytic_trajectory``;
* condition runs and direct checks: alpha estimates against ``known_alpha``.

The margin check covers only runs whose reference verdict already matches the
expected verdict, so a later fix to a known defect is not counted as drift.
A run that failed the gate when the reference was recorded is a known defect.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

#: iterate vs closed-form resolvent, relative to 1 + |z|. The 1-D resolvent is
#: an exhaustive scan polished to full precision (errors about 1e-16), so
#: 1e-12 leaves four orders of magnitude for rounding.
RESOLVENT_RTOL = 1e-12

#: |De Giorgi residual|: the interpolation identity is exact; on the corpus
#: the quadrature leaves about 1e-13.
DE_GIORGI_ATOL = 1e-9

#: flow endpoint vs closed-form arc, on top of the theta(f_end) of travel an
#: absorbed run still has left when it freezes. RK4 errors are about 1e-12.
TRAJECTORY_ATOL = 1e-8

#: alpha estimate from analytic slopes vs known_alpha (relative)
ALPHA_RTOL = 1e-9

#: alpha estimate from sampled slopes vs known_alpha. The sampled slope is a
#: lower estimate: in 1-D the finest radius 1e-5 biases the ratio by about
#: 2e-5, and in 2-D the 64 sampled directions lose about 0.7%.
SAMPLED_ALPHA_RTOL = {1: 1e-3, 2: 0.02}


@dataclass
class Outcome:
    id: str
    verdict: str  # "pass" | "fail" | "raised"
    problems: List[str] = field(default_factory=list)
    margins: List[list] = field(default_factory=list)  # [kind, margin, tol] per certificate

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _num(value) -> float:
    if isinstance(value, str):
        return float(value)  # "inf", "-inf", "nan"
    return math.nan if value is None else float(value)


def _encode(value: float):
    return value if math.isfinite(value) else repr(value)


def _rows(path: Path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        dim = sum(1 for name in header if name.startswith("x_"))
        return dim, [[float(v) for v in row] for row in reader]


def _check_resolvent(entry, cfg: dict, run_dir: Path, problems: List[str]) -> None:
    dim, rows = _rows(run_dir / "sequence.csv")
    tau = float(cfg["tau"])
    for prev, row in zip(rows, rows[1:]):
        z = np.array(row[1 : 1 + dim])
        exact = entry.analytic_resolvent(np.array(prev[1 : 1 + dim]), tau)
        err = min(float(np.linalg.norm(z - w)) for w in exact)
        if err > RESOLVENT_RTOL * (1.0 + float(np.linalg.norm(z))):
            problems.append(f"iterate {int(row[0])} is {err:.2e} off the closed-form resolvent")
            return
        residual = row[-1]
        if not math.isnan(residual) and abs(residual) > DE_GIORGI_ATOL:
            problems.append(f"De Giorgi residual {residual:.2e} at k={int(row[0])}")
            return


def _check_trajectory(entry, cfg: dict, report, run_dir: Path, problems: List[str]) -> None:
    dim, rows = _rows(run_dir / "trajectory.csv")
    last = rows[-1]
    t_end, x_end, f_end = last[0], np.array(last[1 : 1 + dim]), last[1 + dim]
    x0 = np.atleast_1d(np.asarray(cfg["x0"], dtype=float))
    policy = cfg.get("flow_controls", {}).get("policy", "positive-branch")
    exact = entry.analytic_trajectory(x0, policy)(t_end)
    tol = TRAJECTORY_ATOL
    if report.flow_summary.get("absorbed"):
        tol += entry.condition_data(x0)[0].theta(max(f_end, 0.0))
    err = float(np.linalg.norm(x_end - exact))
    if err > tol:
        problems.append(f"endpoint is {err:.2e} off the closed-form arc (tol {tol:.1e})")


def _alpha_problem(estimate, known: float, rtol: float, sampled: bool = False) -> Optional[str]:
    est = _num(estimate)
    if sampled:
        # a sampled slope under-estimates, so the estimate may sit below
        # known_alpha by the sampling bias but never above it
        ok = known * (1.0 - rtol) <= est <= known * (1.0 + ALPHA_RTOL)
    else:
        ok = abs(est - known) <= rtol * known
    return None if ok else f"alpha estimate {est!r} vs known {known!r}"


def _check_alpha(entry, report, problems: List[str]) -> None:
    cond = report.condition.get("C")
    x0 = np.asarray(cond["x0"], dtype=float)
    found = _alpha_problem(cond["alpha_estimate"], entry.known_alpha(x0, cond["r"]), ALPHA_RTOL)
    for row in (report.flow_summary or {}).get("radius_sweep", []):
        found = found or _alpha_problem(row["alpha_estimate"], row["alpha_known"], ALPHA_RTOL)
    if found:
        problems.append(found)


def check_suite_run(run, report, run_dir: Path, resolve) -> Outcome:
    """Gate one suite run from its report and the artifacts in ``run_dir``."""
    cfg = run.config
    out = Outcome(run.id, report.verdict)
    out.margins = [[c["kind"], _num(c["margin"]), c["tol"]] for c in report.certificates]
    if report.verdict != run.expect:
        out.problems.append(f"verdict {report.verdict}, expected {run.expect}: {run.why}")
    entry = resolve(cfg["functional"]) if cfg.get("functional") else None
    if entry is None:
        return out
    if report.prox_summary is not None and entry.analytic_resolvent is not None:
        _check_resolvent(entry, cfg, run_dir, out.problems)
    if report.flow_summary and "t_end" in report.flow_summary and entry.analytic_trajectory:
        _check_trajectory(entry, cfg, report, run_dir, out.problems)
    if "C" in report.condition and entry.known_alpha is not None and cfg.get("alpha") is None:
        _check_alpha(entry, report, out.problems)
    return out


def check_direct_run(run, result, resolve) -> Outcome:
    """Gate one direct check from the object the library returned.

    An ``alpha`` check passes when the estimate matches ``known_alpha``; an
    ``A`` or ``C`` check passes when the report holds, and a ``C`` check also
    cross-checks its alpha estimate.
    """
    cfg = run.config
    entry = resolve(cfg["functional"])
    x0 = np.asarray(cfg["x0"], dtype=float)
    problems = []
    if run.check in ("alpha", "C") and entry.known_alpha is not None:
        estimate = result if run.check == "alpha" else result.alpha_estimate
        found = _alpha_problem(
            estimate, entry.known_alpha(x0, cfg["r"]), SAMPLED_ALPHA_RTOL[x0.size], sampled=True
        )
        if found:
            problems.append(found)
    if run.check == "alpha":
        verdict = "fail" if problems else "pass"
    else:
        verdict = "pass" if result.holds else "fail"
    if verdict != run.expect:
        problems.append(f"verdict {verdict}, expected {run.expect}: {run.why}")
    return Outcome(run.id, verdict, problems)


def raised(run, exc: BaseException) -> Outcome:
    return Outcome(run.id, "raised", [f"raised {type(exc).__name__}: {exc}"])


# ---------------------------------------------------------------------------
# committed reference (default seed)


def reference_path(workload: str) -> Path:
    return Path(__file__).resolve().parent / "reference" / f"{workload}.json"


def load_reference(workload: str) -> Dict[str, dict]:
    path = reference_path(workload)
    if not path.exists():
        return {}
    with open(path) as fh:
        return json.load(fh)["runs"]


def record_reference(workload: str, runs, outcomes: List[Outcome], seed: int) -> Path:
    expected = {r.id: r.expect for r in runs}
    payload = {
        "workload": workload,
        "seed": seed,
        "runs": {
            o.id: {
                "verdict": o.verdict,
                "expect": expected[o.id],
                "known_defect": o.failed,
                "problems": o.problems,
                "margins": [[kind, _encode(m), tol] for kind, m, tol in o.margins],
            }
            for o in outcomes
        },
    }
    path = reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def check_margins(run, outcome: Outcome, reference: Dict[str, dict]) -> None:
    """Fail ``outcome`` if a margin moved by more than its certificate's tol."""
    ref = reference.get(run.id)
    if ref is None or ref["verdict"] != run.expect or outcome.verdict == "raised":
        return
    if [m[0] for m in ref["margins"]] != [m[0] for m in outcome.margins]:
        outcome.problems.append("certificate list differs from the reference")
        return
    for (kind, old, _), (_, new, tol) in zip(ref["margins"], outcome.margins):
        old = _num(old)
        same = old == new or (math.isnan(old) and math.isnan(new))
        if not same and not abs(new - old) <= tol:
            outcome.problems.append(f"{kind} margin {new!r} moved from reference {old!r}")
            return


def known_defects(reference: Dict[str, dict]) -> set:
    return {rid for rid, ref in reference.items() if ref["known_defect"]}
