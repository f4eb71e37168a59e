"""Deterministic low-discrepancy point sets shared by the estimators.

Everything here is a pure function of (dimension, count, seed), so repeated
runs with the same configuration sample exactly the same points.  The
sequence is scipy's scrambled Halton (``qmc.Halton(d, scramble=True,
seed=seed)``), reproduced bit for bit in numpy so that importing klflow does
not import ``scipy.stats``.  The cached arrays are returned read-only: they
are shared by every caller in the process.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import List

import numpy as np

#: default seed for all deterministic sampling
SAMPLER_SEED = 20240601


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=128)
def unit_directions(dim: int, count: int, seed: int = SAMPLER_SEED) -> np.ndarray:
    """Deterministic unit direction vectors, shape (m, dim), read-only.

    In one dimension the only directions are +1 and -1.  In higher dimensions
    a Halton sequence is pushed through the normal quantile map and
    normalised, which spreads directions evenly over the sphere.
    """
    if dim == 1:
        return _read_only(np.array([[1.0], [-1.0]]))
    from scipy.special import ndtri

    raw = _halton(dim, count + 8, seed)
    z = ndtri(np.clip(raw, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    keep = norms > 1e-12
    dirs = z[keep] / norms[keep, None]
    return _read_only(dirs[:count])


@lru_cache(maxsize=128)
def unit_ball_points(dim: int, count: int, seed: int = SAMPLER_SEED) -> np.ndarray:
    """Deterministic points filling the open unit ball, shape (count, dim), read-only.

    One dimension uses midpoints of a uniform grid on (-1, 1); higher
    dimensions combine Halton directions with a Halton radius coordinate via
    the usual r**(1/dim) volume correction.
    """
    if dim == 1:
        mids = (np.arange(count) + 0.5) / count
        return _read_only((2.0 * mids - 1.0).reshape(-1, 1))
    from scipy.special import ndtri

    raw = _halton(dim + 1, count + 8, seed)
    z = ndtri(np.clip(raw[:, :dim], 1e-12, 1.0 - 1e-12))
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
