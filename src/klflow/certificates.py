"""Rate certificates: observed values against predicted bounds.

A certificate keeps the series a decay claim was checked on (``ts``,
``predicted``, ``observed``), the signed margin bound - observed and a
verdict at a stated tolerance.  Flow, prox and the experiment runner build
every certificate through ``certificate`` (``skipped_certificate`` for a
claim that could not be tested), and the runner summarises them for
``report.json`` with ``certificate_to_dict``.  ``theta_distance_margin`` is the
one pairwise check of d(y_i, y_j) <= theta_i - theta_j, for flow and prox.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import INF, plain, row_norms

DEFAULT_CERT_TOL = 1e-7


@dataclass
class RateCertificate:
    kind: str
    ts: np.ndarray
    predicted: np.ndarray
    observed: np.ndarray
    margin: float
    verdict: bool
    t_star: float
    tol: float
    skipped: bool = False
    details: dict = field(default_factory=dict)


def min_margin(predicted: np.ndarray, observed: np.ndarray) -> float:
    """Smallest predicted - observed over the samples where it is not NaN."""
    diff = predicted - observed
    diff = diff[~np.isnan(diff)]
    return float(diff.min()) if diff.size else INF


def theta_distance_margin(theta: np.ndarray, points: np.ndarray) -> float:
    """Smallest theta_i - theta_j - d(p_i, p_j) over pairs i < j; +inf if n < 2.

    In one dimension d(p_i, p_j) = max(p_i - p_j, p_j - p_i), so the minimum
    is that of (theta_i -+ p_i) - (theta_j -+ p_j) over i < j: one running
    minimum per sign, in O(n) time.  That rounds differently from the pair
    loop, by a few ulps of max |theta| and |p|.  In several dimensions it is
    one row at a time, in O(n) memory, with ``core.row_norms`` distances.
    """
    if points.ndim == 2 and points.shape[1] == 1 and len(theta) >= 2:
        p = points[:, 0]
        return float(
            min(
                (np.minimum.accumulate(u[:-1]) - u[1:]).min()
                for u in (theta - p, theta + p)
            )
        )
    row_mins = [
        (theta[i] - theta[i + 1 :] - row_norms(points[i + 1 :] - points[i])).min()
        for i in range(len(theta) - 1)
    ]
    return float(np.min(row_mins)) if row_mins else INF


def certificate(
    kind: str,
    ts: np.ndarray,
    predicted: np.ndarray,
    observed: np.ndarray,
    t_star: float,
    tol: float,
    details: Optional[dict] = None,
    *,
    margin: Optional[float] = None,
    verdict: Optional[bool] = None,
    skipped: bool = False,
) -> RateCertificate:
    """A certificate whose margin and verdict follow from its series.

    ``margin`` defaults to ``min_margin(predicted, observed)``; pass it when
    the claim is checked on more than the stored series (all pairs, a step
    count).  ``verdict`` defaults to ``margin >= -tol``; pass it for a claim
    judged by another rule.
    """
    if margin is None:
        margin = min_margin(predicted, observed)
    return RateCertificate(
        kind=kind,
        ts=ts,
        predicted=predicted,
        observed=observed,
        margin=float(margin),
        verdict=bool(margin >= -tol if verdict is None else verdict),
        t_star=t_star,
        tol=tol,
        skipped=skipped,
        details=details or {},
    )


def skipped_certificate(
    kind: str, t_star: float, tol: float, reason: str
) -> RateCertificate:
    """A claim that could not be tested: no samples, infinite margin, passing."""
    empty = np.zeros(0)
    return certificate(
        kind, empty, empty, empty, t_star, tol, {"reason": reason}, skipped=True
    )


def is_discrete(cert: RateCertificate) -> bool:
    """Whether the certificate is indexed by step ``k`` rather than time ``t``."""
    return cert.kind.startswith("discrete") or cert.kind in (
        "finite-termination",
        "recursive-bound",
        "limit-optimality",
    )


def certificate_to_dict(cert: RateCertificate) -> dict:
    """The JSON summary of a certificate; array-valued details are left out."""
    return plain(
        {
            "kind": cert.kind,
            "margin": cert.margin,
            "verdict": cert.verdict,
            "t_star": cert.t_star,
            "tol": cert.tol,
            "skipped": cert.skipped,
            "n_samples": int(cert.ts.size),
            "details": {
                k: v
                for k, v in cert.details.items()
                if not isinstance(v, np.ndarray)
            },
        }
    )
