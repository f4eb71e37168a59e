"""Euclidean metric backend and extended-value objective oracles.

Points are plain 1-D float arrays.  Objectives take values in [0, +inf];
``math.inf`` marks points outside the effective domain and compares greater
than every finite value, which is all the extended arithmetic we need.  The
module also holds what every layer shares: the branch policies, the checks
of numeric settings, the 1-D scalar primitives (the dense scan, the float
root solve, golden-section search, Gauss-Legendre), the n-D gradient descent
with its central-difference gradient, and the JSON and CSV output formats.
"""
from __future__ import annotations

import math
import numbers
import struct
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

INF = math.inf
EPS = float(np.finfo(float).eps)  #: double-precision machine epsilon

FLOW_POLICIES = ("positive-branch", "negative-branch", "lexicographic")
PROX_POLICIES = ("smallest-distance", *FLOW_POLICIES)
DISTANCE_TIE_TOL = 1e-12  #: relative gap under which two distances tie in pick_branch
FD_PROBE = 1e-6  #: central-difference step of the gradient when f has no gradient oracle
ARMIJO = 1e-4  #: share of the first-order decrease that a descent step must reach
#: 8-point Gauss-Legendre nodes and weights on [-1, 1], bit for bit numpy's leggauss(8)
GL_NODES = (-0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
            0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362)
GL_WEIGHTS = (0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
              0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706)


def check_policy(policy: str, valid: Tuple[str, ...]) -> None:
    """Reject a branch policy name that is not one of ``valid``."""
    if policy not in valid:
        raise ValueError(
            f"unknown policy {policy!r}; valid policies: {', '.join(valid)}"
        )


def check_int(name: str, value, least: int = 1) -> int:
    """``value`` as an int; anything but an integer >= ``least`` is an error.

    Bools, floats and strings are rejected, not converted.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        need = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ValueError(f"{name} must be {need}, got {value!r}")
    return int(value)


def check_real(name: str, value, positive: bool = True) -> float:
    """``value`` as a float; anything but a finite real number that is
    positive (nonnegative with ``positive=False``) is an error.

    Bools and strings are rejected, not converted.
    """
    ok = (
        not isinstance(value, bool)
        and isinstance(value, numbers.Real)
        and (0.0 < value < INF if positive else 0.0 <= value < INF)
    )
    if not ok:
        need = "a positive finite number" if positive else "a finite number >= 0"
        raise ValueError(f"{name} must be {need}, got {value!r}")
    return float(value)


def pick_branch(candidates: Sequence, policy: str, x=None):
    """The candidate a branch policy selects among tied candidates.

    Candidates are points or directions, compared by their coordinates:
    ``positive-branch`` takes the lexicographically largest,
    ``negative-branch`` the smallest, and ``lexicographic`` is an alias of
    ``negative-branch``.  ``smallest-distance`` takes the candidate nearest
    to ``x``, distance ties going to the smallest coordinates; distances
    within ``DISTANCE_TIE_TOL`` (relative) tie, so that rounding in two
    computed minimisers does not break a tie that is exact in the problem.
    """
    check_policy(policy, PROX_POLICIES)
    if len(candidates) == 1:
        return candidates[0]
    if policy == "smallest-distance":
        dists = [norm(np.asarray(z) - x) for z in candidates]
        near = min(dists) * (1.0 + DISTANCE_TIE_TOL)
        return min((z for z, d in zip(candidates, dists) if d <= near), key=tuple)
    if policy == "positive-branch":
        return max(candidates, key=tuple)
    return min(candidates, key=tuple)


def plain(obj):
    """JSON-ready copy of obj; non-finite floats become "nan", "inf", "-inf"."""
    if isinstance(obj, np.ndarray):
        return [plain(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in sorted(obj.items(), key=lambda p: str(p[0]))}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    return obj


def _reprs(col) -> List[str]:
    """``repr`` of every cell of a column."""
    return list(map(repr, col.tolist() if isinstance(col, np.ndarray) else col))


def _float_bits(col) -> Optional[np.ndarray]:
    """The bits of a non-empty float64 array column as int64, else None."""
    if isinstance(col, np.ndarray) and col.dtype == np.float64 and col.size:
        return col.view(np.int64)
    return None


class _Source:
    """A float column that later files reuse, with its text once formatted."""

    __slots__ = ("bits", "first", "reuses", "text")

    def __init__(self, bits: np.ndarray) -> None:
        self.bits = bits
        self.first = int(bits[0])
        self.reuses = 0  # files still to be written that reuse the column
        self.text: Optional[List[str]] = None


class SharedColumns:
    """The float columns that several CSV files of one run write, formatted once.

    Built from the tables of the run's files, in the order ``write_csv``
    will write them.  A float column that equals a column of an earlier
    table, or a leading slice of one, reuses that column's text: its first
    file formats it whole and holds the text, and the last file that reuses
    it drops the text.  Columns match bit for bit, so every reused cell is
    the ``repr`` of its own value (-0.0 does not match 0.0).  Only the text
    of reused columns is held, and an instance belongs to one run.
    """

    def __init__(self, tables: Iterable[Dict[str, Sequence]]) -> None:
        self._sources: List[_Source] = []
        for table in tables:
            for col in table.values():
                bits = _float_bits(col)
                if bits is None:
                    continue
                source = self._find(bits)
                if source is None:
                    self._sources.append(_Source(bits))
                else:
                    source.reuses += 1
        self._sources = [s for s in self._sources if s.reuses]

    def _find(self, bits: np.ndarray) -> Optional[_Source]:
        """The first source that ``bits`` equals or is a leading slice of."""
        n = bits.size
        first = int(bits[0])
        for source in self._sources:
            held = source.bits
            if (
                source.first == first and held.size >= n and held[n - 1] == bits[-1]
                and np.array_equal(held[:n], bits)
            ):
                return source
        return None

    def text(self, col) -> Optional[List[str]]:
        """The cells of ``col`` if it is a reused column, else None."""
        bits = _float_bits(col)
        source = None if bits is None else self._find(bits)
        if source is None:
            return None
        if source.text is None:  # the column's first file
            if source.bits.size != bits.size:
                return None
            source.text = _reprs(col)
            return source.text
        text = source.text
        source.reuses -= 1
        if not source.reuses:
            self._sources.remove(source)
        return text if len(text) == bits.size else text[:bits.size]


#: rows formatted at a time of a column that no other file reuses
CSV_BLOCK = 1024


def write_csv(
    path, columns: Dict[str, Sequence], shared: Optional[SharedColumns] = None
) -> None:
    """Write named columns as CSV, one LF-terminated line per row.

    Columns are numpy arrays, lists of Python numbers or ranges.  Every
    cell is written with ``repr``, so floats round-trip bit for bit and
    integers stay integers.  Cells are formatted column by column, in
    blocks of ``CSV_BLOCK`` rows, except that a column which ``shared``
    reuses across the files of a run is formatted once for all of them.
    Without ``shared`` the file shares repeated columns within itself.
    """
    if shared is None:
        shared = SharedColumns([columns])
    cols = list(columns.values())
    n = min(map(len, cols), default=0)
    texts = [shared.text(c) for c in cols]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for a in range(0, n, CSV_BLOCK):
            b = a + CSV_BLOCK
            block = [_reprs(c[a:b]) if t is None else t[a:b] for c, t in zip(cols, texts)]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def as_point(x) -> np.ndarray:
    """Validate coordinates and return them as a 1-D float array.

    NaN and infinite coordinates are rejected; scalars become length-1 arrays.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a point must be a non-empty 1-D coordinate array")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


def norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-d float array, bit for bit, as a float.

    That call is ``sqrt(dot(v, v))``; making the same dot and sqrt directly
    skips its argument handling, which costs more than the sum itself.
    """
    return math.sqrt(v.dot(v))


def scaled_norm(v: np.ndarray) -> float:
    """``norm(v)``, except where the squares underflow.

    Where v.v is below the smallest normal float and v is not 0, returns
    s * norm(v / s) with s = max |v_i|, whose squares do not underflow, so
    the magnitude is kept down to the subnormals.
    """
    sq = v.dot(v)
    if sq < sys.float_info.min and v.any():
        s = float(np.abs(v).max())
        return s * norm(v / s)
    return math.sqrt(sq)


def row_norms(diff: np.ndarray) -> np.ndarray:
    """``norm`` of each row, rounded as the 1-d call rounds it.

    That call is ``sqrt(dot(d, d))``.  A stacked ``matmul`` of each row
    with itself makes the same dot per row; in several dimensions a
    vectorised sum of squares rounds differently.
    """
    return np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])


def scaled_row_norms(diff: np.ndarray) -> np.ndarray:
    """``scaled_norm`` of each row: ``row_norms``, redone on the rows whose
    squares may have underflowed (a norm of at most sqrt(float min) = 2^-511)."""
    ds = row_norms(diff)
    for i in (ds <= 2.0**-511).nonzero()[0]:
        ds[i] = scaled_norm(diff[i])
    return ds


@dataclass(frozen=True)
class EuclideanBackend:
    """Reference metric backend: R^n with the Euclidean distance."""

    dimension: int

    def __post_init__(self) -> None:
        if int(self.dimension) < 1 or self.dimension != int(self.dimension):
            raise ValueError("dimension must be a positive integer")


@dataclass
class Functional:
    """Nonnegative extended-value objective over a metric backend.

    ``value`` may return ``math.inf`` outside the effective domain.
    ``smooth_gradient`` is an optional oracle that returns ``None`` at points
    where the objective is not differentiable; ``slope.descending_slope``
    derives the descending slope from it, at a 1-D kink from the gradients of
    the neighbouring floats.  ``analytic_slope`` is an optional exact slope
    that takes precedence; the corpus sets none.

    ``batch_value`` is an optional batched form of ``value``: it maps an
    (m, dim) array of points to their m values and must agree with ``value``
    bit for bit, because the dense scans that use it select candidates by
    exact comparisons.  ``batch_gradient`` is ``smooth_gradient`` batched
    under the same contract, (m, dim) to (m, dim), with a NaN row where
    ``smooth_gradient`` returns None; the condition scan reads slopes from it.

    ``convexity`` is an optional convexity modulus lambda: f(z) - lambda/2
    |z|^2 is convex.  Set it only where a closed form proves it.  When
    lambda + 1/tau > 0 the resolvent objective is strongly convex, so the
    n-d resolvent can certify a single local solve (``klflow.prox``).
    """

    label: str
    value: Callable[[np.ndarray], float]
    backend: EuclideanBackend
    analytic_slope: Optional[Callable[[np.ndarray], float]] = None
    smooth_gradient: Optional[Callable[[np.ndarray], Optional[np.ndarray]]] = None
    batch_value: Optional[Callable[[np.ndarray], np.ndarray]] = None
    convexity: Optional[float] = None
    batch_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x) -> float:
        return float(self.value(np.asarray(x, dtype=float)))

    def values(self, points) -> np.ndarray:
        """Values at the rows of an (m, dim) array, as an (m,) float array.

        Uses ``batch_value`` when present and a loop over ``value`` otherwise.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.backend.dimension:
            raise ValueError(
                f"values expects an (m, {self.backend.dimension}) array, "
                f"got shape {pts.shape}"
            )
        if self.batch_value is None:
            return np.array([self.value(p) for p in pts], dtype=float)
        return np.asarray(self.batch_value(pts), dtype=float)

    def gradient(self, x) -> Optional[np.ndarray]:
        if self.smooth_gradient is None:
            return None
        g = self.smooth_gradient(np.asarray(x, dtype=float))
        return None if g is None else np.asarray(g, dtype=float)


@dataclass
class DenseScan:
    """A batched objective sampled on an even 1-d grid."""

    grid: np.ndarray
    values: np.ndarray
    basins: np.ndarray  # indices of grid points not above either neighbour


def dense_scan(
    objective: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, n: int
) -> DenseScan:
    """Evaluate ``objective`` on ``np.linspace(lo, hi, n)`` in one batch.

    ``objective`` maps the (n,) grid to (n,) values.  Every basin of the
    sampled objective holds at least one of the returned ``basins`` indices,
    so refining around them finds every local minimiser the grid resolves.
    """
    grid = np.linspace(lo, hi, n)
    vals = np.asarray(objective(grid), dtype=float)
    low = np.ones(n, dtype=bool)
    low[1:] &= vals[1:] <= vals[:-1]
    low[:-1] &= vals[:-1] <= vals[1:]
    return DenseScan(grid, vals, np.flatnonzero(low))


def _ordered(z: float) -> int:
    """The position of ``z`` in float order: adjacent floats differ by 1, and
    -0.0 and 0.0 are both 0."""
    (k,) = struct.unpack("<q", struct.pack("<d", z))
    return k if k >= 0 else -(k + 2**63)


def _unordered(k: int) -> float:
    """The float at position ``k`` of float order (inverse of ``_ordered``)."""
    (z,) = struct.unpack("<d", struct.pack("<q", abs(k)))
    return z if k >= 0 else -z


def float_root(psi, lo: float, hi: float) -> Optional[float]:
    """A sign change of ``psi`` from - to + at two adjacent floats of
    [lo, hi], or None when the ends do not show psi(lo) < 0 < psi(hi).

    The bracket closes on two adjacent floats with psi < 0 at the left and
    >= 0 at the right; the end with the smaller |psi| is returned, which for
    an increasing psi places its root to 1 ulp.  Steps are Illinois secant
    steps; when a step leaves more than half the floats the bracket held two
    steps before, a bisection in float order follows (at 0 when 0 lies
    inside), so at most about 65 bisections are taken.  A probe where psi is
    None is a kink; it is the root when psi <= 0 one float below it and
    psi >= 0 one float above it (for psi = phi' the subdifferential of phi
    there spans that interval), and otherwise it takes the sign of psi one
    float below it.  None also when a kink has a kink for neighbour.
    """
    pa, pb = psi(lo), psi(hi)
    if pa is None or pb is None or not pa < 0.0 < pb:
        return None
    a, b, ka, kb = lo, hi, _ordered(lo), _ordered(hi)
    wa, wb = pa, pb  # secant weights; Illinois halves the one kept twice
    kept = 0  # -1 after a probe replaced a, 1 after one replaced b
    bisect = False
    before = kb - ka  # the bracket's float count before the last step
    while kb - ka > 1:
        width = kb - ka
        if bisect:
            # 0 (a kink of the cone's centre) is halfway in float order only
            # for ends of mirrored magnitude, so it is probed first
            kz = 0 if ka < 0 < kb else (ka + kb) // 2
            z = _unordered(kz)
        else:
            z = b - wb * (b - a) / (wb - wa)
            if not a < z < b:  # on an end (or NaN): step one float inside
                z = math.nextafter(a, INF) if z <= a else math.nextafter(b, -INF)
            kz = _ordered(z)
        pz = psi(z)
        if pz is None:
            pz, above = psi(math.nextafter(z, -INF)), psi(math.nextafter(z, INF))
            if pz is None or above is None:
                return None
            if pz <= 0.0 <= above:
                return z
        if pz < 0.0:
            a, pa, wa, ka = z, pz, pz, kz
            if kept < 0:
                wb *= 0.5
            kept = -1
        else:
            b, pb, wb, kb = z, pz, pz, kz
            if kept > 0:
                wa *= 0.5
            kept = 1
        bisect = 2 * (kb - ka) > before
        before = width
    return a if -pa < pb else b


def golden_section(fun, lo: float, hi: float, tol: float) -> Tuple[float, float, float]:
    """Golden-section search for a minimum of a unimodal ``fun`` on [lo, hi].

    Shrinks the bracket until it is at most ``tol`` wide, or until a step
    leaves it unchanged, which happens when ``tol`` is below the float
    spacing at max(|lo|, |hi|).  Returns the better of the two interior
    points and the final bracket.  A maximum is found by minimising
    ``-fun``: negation is exact, so the bracket sequence is that of a search
    on ``fun`` with both comparisons flipped.
    """
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - ratio * (b - a)
    c2 = a + ratio * (b - a)
    f1, f2 = fun(c1), fun(c2)
    while b - a > tol:
        before = (a, b)
        if f1 > f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + ratio * (b - a)
            f2 = fun(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - ratio * (b - a)
            f1 = fun(c1)
        if (a, b) == before:
            break
    return (c1 if f1 <= f2 else c2), a, b


def gauss_legendre(fun, lo: float, hi: float) -> float:
    """8-point Gauss-Legendre estimate of the integral of ``fun`` (of a float) over [lo, hi]."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    total = 0.0
    for t, w in zip(GL_NODES, GL_WEIGHTS):
        total += w * fun(mid + half * t)
    return total * half


def fd_gradient(f: Functional, x: np.ndarray) -> np.ndarray:
    """Central differences of ``f.value`` at x, one coordinate at a time."""
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = FD_PROBE
        g[i] = (f.value(x + e) - f.value(x - e)) / (2.0 * FD_PROBE)
    return g


def descend(fun, grad, z: np.ndarray, t: float) -> Tuple[np.ndarray, float]:
    """A local minimum of ``fun`` by gradient steps from z; returns it and its value.

    A step goes to z - t grad(z), with t the Barzilai-Borwein length s.s / s.y
    of the last step s and gradient change y (the given ``t`` first and where
    s.y <= 0), at most twice the last step's t, and halved until fun falls by
    ARMIJO t |grad|^2.  The descent stops where no step longer than
    EPS (1 + |z|) falls so (where rounding hides the decrease, or on a kink,
    which the cap on t's growth nears in a few halvings per step), or where
    the gradient is not finite.
    """
    z = np.array(z, dtype=float)
    t0, fz, g = t, fun(z), grad(z)
    while True:
        gg = float(g @ g)
        while EPS * (1.0 + norm(z)) < t * math.sqrt(gg) < INF:
            w = z - t * g
            fw = fun(w)
            if fz - fw >= ARMIJO * t * gg:
                break
            t *= 0.5
        else:
            return z, fz
        gw = grad(w)
        s, y = w - z, gw - g
        sy = float(s @ y)
        t = min(float(s @ s) / sy if sy > 0.0 else t0, 2.0 * t)
        z, fz, g = w, fw, gw
