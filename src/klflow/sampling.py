"""Deterministic low-discrepancy point sets shared by the estimators.

Everything here is a pure function of (dimension, count, seed), so repeated
runs with the same configuration sample exactly the same points.  The
sequence is scipy's scrambled Halton (``qmc.Halton(d, scramble=True,
seed=seed)``) and its normal quantile is scipy's ``ndtri``, both reproduced bit
for bit in numpy, so that sampling imports no scipy.  The cached arrays are
returned read-only: they are shared by every caller in the process.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import List

import numpy as np

#: default seed for all deterministic sampling
SAMPLER_SEED = 20240601

# cephes ndtri: e^-2, sqrt(2 pi) and its coefficients, highest power first (Q0, Q1 monic)
_EXP_M2, _S2PI = 0.13533528323661269189, 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# the C library's log, element by element: np.log's SIMD loop is 1 ulp off at some points
_log = np.vectorize(math.log, otypes=[float])


def _primes(count: int) -> List[int]:
    """The first ``count`` primes, by trial division."""
    primes: List[int] = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def _halton(dim: int, n: int, seed: int) -> np.ndarray:
    """The first n points of Owen's scrambled Halton sequence, shape (n, dim).

    Coordinate j is the van der Corput sequence in the j-th prime base b with
    ceil(54 / log2 b) - 1 digit permutations, each one an ``arange(b)``
    shuffled by one generator in scipy's order; the digits are summed in
    scipy's order too, so the floats equal ``qmc.Halton(...).random(n)``.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((n, dim))
    for col, b in enumerate(_primes(dim)):
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = np.arange(n)
        seq = np.zeros(n)
        b2r = 1.0 / b
        for perm in perms:
            seq += perm[q % b] * b2r
            q //= b
            b2r /= b
        out[:, col] = seq
    return out


def _ndtri(p: np.ndarray) -> np.ndarray:
    """scipy's ``ndtri`` on [1e-12, 1 - 1e-12], in cephes' float operations.

    With y = min(p, 1 - p): a rational function of (y - 1/2)^2 where y > e^-2, else of
    1/x with x = sqrt(-2 log y) < 8, so cephes' far-tail branch is absent.  np.polyval
    is Horner's rule from 0, so 1.0 * x + Q[0] is cephes' monic x + Q[0] exactly.
    """
    assert np.all((p >= 1e-12) & (p <= 1.0 - 1e-12)), "ndtri outside its sampling domain"
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    out = np.empty_like(y)
    mid = y > _EXP_M2
    h = y[mid] - 0.5
    h2 = h * h
    out[mid] = (h + h * (h2 * np.polyval(_P0, h2) / np.polyval(_Q0, h2))) * _S2PI
    x = np.sqrt(-2.0 * _log(y[~mid]))
    z = 1.0 / x
    t = x - _log(x) / x - z * np.polyval(_P1, z) / np.polyval(_Q1, z)
    out[~mid] = np.where(upper[~mid], t, -t)
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=128)
def unit_directions(dim: int, count: int, seed: int = SAMPLER_SEED) -> np.ndarray:
    """Deterministic unit direction vectors, shape (m, dim), read-only.

    In one dimension the only directions are +1 and -1.  In higher dimensions
    a Halton sequence is pushed through the normal quantile map ``_ndtri`` and
    normalised, which spreads directions evenly over the sphere.
    """
    if dim == 1:
        return _read_only(np.array([[1.0], [-1.0]]))
    raw = _halton(dim, count + 8, seed)
    z = _ndtri(np.clip(raw, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    keep = norms > 1e-12
    dirs = z[keep] / norms[keep, None]
    return _read_only(dirs[:count])


@lru_cache(maxsize=128)
def unit_ball_points(dim: int, count: int, seed: int = SAMPLER_SEED) -> np.ndarray:
    """Deterministic points filling the open unit ball, shape (count, dim), read-only.

    One dimension uses midpoints of a uniform grid on (-1, 1); higher
    dimensions combine Halton directions (via ``_ndtri``) with a Halton radius
    coordinate via the usual r**(1/dim) volume correction.
    """
    if dim == 1:
        mids = (np.arange(count) + 0.5) / count
        return _read_only((2.0 * mids - 1.0).reshape(-1, 1))
    raw = _halton(dim + 1, count + 8, seed)
    z = _ndtri(np.clip(raw[:, :dim], 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    keep = norms > 1e-12
    dirs = z[keep] / norms[keep, None]
    radii = raw[keep, dim] ** (1.0 / dim)
    pts = dirs * radii[:, None]
    return _read_only(pts[:count])


def ball_sample(center: np.ndarray, r: float, count: int, seed: int = SAMPLER_SEED) -> np.ndarray:
    """Deterministic sample of the open ball B_r(center)."""
    center = np.asarray(center, dtype=float)
    pts = unit_ball_points(center.size, count, seed)
    return center[None, :] + r * pts
