"""Decision procedures for the usual stochastic order: DKW-banded empirical
comparison, an exact grid-convolution oracle for weighted sums of
independent nonnegative variables, and crossing-count analysis of CDF
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np
from scipy import fft, integrate, optimize

from .errors import NumericError, ParameterError
from .distributions import DensitySpec, Dist
from .majorization import VectorLike, as_weight_vector

DEFAULT_EXACT_TOL = 1e-6
REFINE_TOL = 1e-7
MAX_LEVELS = 8
INITIAL_GRID = 4096
TAIL_TOL = 1e-9


class Relation(Enum):
    A_DOMINATES = "a_dominates"      # F_A <= F_B: the A-sum is st-larger
    B_DOMINATES = "b_dominates"
    CROSSING = "crossing"
    INCONCLUSIVE = "inconclusive"


@dataclass
class OrderVerdict:
    relation: Relation
    max_pos_dev: float               # max of F_A - F_B
    max_neg_dev: float               # max of F_B - F_A
    band: float
    crossing_count: Optional[int] = None
    meta: dict = field(default_factory=dict)

    def swapped(self) -> "OrderVerdict":
        rel = {
            Relation.A_DOMINATES: Relation.B_DOMINATES,
            Relation.B_DOMINATES: Relation.A_DOMINATES,
        }.get(self.relation, self.relation)
        return OrderVerdict(
            rel, self.max_neg_dev, self.max_pos_dev, self.band,
            self.crossing_count, dict(self.meta),
        )


@dataclass(frozen=True)
class NumericCDF:
    """CDF tabulated on an increasing grid.

    ``kind`` is "step" (right-continuous, e.g. an ECDF) or "linear"
    (continuous distribution tabulated pointwise). ``tail_tol`` records how
    much upper-tail mass the construction may have truncated, and ``meta``
    how the table was built.
    """

    grid: np.ndarray
    values: np.ndarray
    kind: str = "linear"
    tail_tol: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or len(g) < 1:
            raise ParameterError("grid and values must be equal-length 1-D arrays")
        if np.any(np.diff(g) <= 0):
            raise ParameterError("grid must be strictly increasing")
        if np.any(np.diff(v) < -1e-12) or v[0] < -1e-12 or v[-1] > 1 + 1e-12:
            raise ParameterError("values must be a nondecreasing CDF table")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", np.clip(v, 0.0, 1.0))

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "step":
            idx = np.searchsorted(self.grid, x, side="right")
            padded = np.concatenate([[0.0], self.values])
            return padded[idx]
        return np.interp(x, self.grid, self.values, left=0.0, right=float(self.values[-1]))

    def to_csv(self, fp) -> None:
        """Two-column CSV (abscissa, value) for plotting."""
        own = isinstance(fp, str)
        f = open(fp, "w") if own else fp
        try:
            f.write("x,F\n")
            for x, v in zip(self.grid, self.values):
                f.write(f"{x!r},{v!r}\n")
        finally:
            if own:
                f.close()


def dkw_epsilon(n: int, delta: float) -> float:
    """Half-width of the distribution-free confidence band."""
    if not 0 < delta < 1:
        raise ParameterError("delta must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def ecdf(samples: Sequence[float]) -> NumericCDF:
    """Right-continuous empirical CDF on the sorted sample grid."""
    arr = np.sort(np.asarray(samples, dtype=float))
    if arr.size == 0:
        raise ParameterError("ecdf needs at least one sample")
    # sorting puts -inf first and +inf and NaN last
    if not (np.isfinite(arr[0]) and np.isfinite(arr[-1])):
        raise ParameterError("ecdf needs finite samples")
    # distinct values from the sorted array: each run's first entry is the
    # grid point, and the count up to its last entry is the CDF value
    new = arr[1:] != arr[:-1]
    grid = arr[np.concatenate(([True], new))]
    values = (np.flatnonzero(np.concatenate((new, [True]))) + 1) / arr.size
    return NumericCDF(grid, values, kind="step", meta={"n": int(arr.size)})


def st_compare_empirical(
    samples_a: Sequence[float], samples_b: Sequence[float], delta: float = 0.01
) -> OrderVerdict:
    """Compare two samples in the usual stochastic order with a DKW band.

    A_DOMINATES means the A-sample's variable is stochastically larger
    (F_A <= F_B up to the band, with a beyond-band gap the other way).
    """
    fa = ecdf(samples_a)
    fb = ecdf(samples_b)
    band = dkw_epsilon(len(np.atleast_1d(samples_a)), delta) + dkw_epsilon(
        len(np.atleast_1d(samples_b)), delta
    )
    grid = np.union1d(fa.grid, fb.grid)
    d = fa.evaluate(grid) - fb.evaluate(grid)
    max_pos = float(np.max(d))
    max_neg = float(np.max(-d))
    relation = _relation_from_devs(max_pos, max_neg, band)
    return OrderVerdict(
        relation,
        max_pos,
        max_neg,
        band,
        meta={
            "n_a": int(np.atleast_1d(samples_a).size),
            "n_b": int(np.atleast_1d(samples_b).size),
            "delta": delta,
        },
    )


def _relation_from_devs(max_pos: float, max_neg: float, band: float) -> Relation:
    pos_sig = max_pos > band
    neg_sig = max_neg > band
    if pos_sig and neg_sig:
        return Relation.CROSSING
    if neg_sig and max_pos <= band:
        return Relation.A_DOMINATES
    if pos_sig and max_neg <= band:
        return Relation.B_DOMINATES
    return Relation.INCONCLUSIVE


def _upper_quantile(d: Dist, q: float) -> float:
    ppf = getattr(d, "ppf", None)
    if callable(ppf):
        return float(ppf(q))
    if isinstance(d, DensitySpec):
        if d.cdf is not None:
            lo, hi = d.support
            if d.cdf(hi) <= q:
                return hi
            return float(optimize.brentq(lambda t: d.cdf(t) - q, lo, hi))
        return d.support[1]
    raise ParameterError(f"cannot locate quantiles of {d!r}")


def _edge_cdf_tables(cdf, w: float, top: float, m: int):
    """Yield ``cdf(edges / w)`` for ``edges = linspace(0, top, m + 1)``,
    then for 2m cells, 4m cells, and so on.

    A table ends at its first value that is exactly 1.0; every edge past it
    has the value 1.0 too. Each level evaluates only its odd edges up to
    that point: the even edges are the edges of the level before.
    """
    table = _saturated_prefix(np.asarray(cdf(np.linspace(0.0, top, m + 1) / w), float))
    while True:
        yield table
        m *= 2
        k = len(table)
        fine = np.empty(2 * k - 1)
        fine[::2] = table
        fine[1::2] = cdf(np.linspace(0.0, top, m + 1)[1 : 2 * k - 1 : 2] / w)
        table = _saturated_prefix(fine)


def _saturated_prefix(table: np.ndarray) -> np.ndarray:
    hit = np.flatnonzero(table == 1.0)
    return table[: hit[0] + 1].copy() if hit.size else table


def _midpoint_masses(d: Dist, w: float, edges: np.ndarray) -> np.ndarray:
    """Midpoint rule on the density, for components without a CDF."""
    x_edges = edges / w
    mids = 0.5 * (x_edges[:-1] + x_edges[1:])
    lo, hi = d.support
    f = np.array([float(d.pdf(x)) if lo < x < hi else 0.0 for x in mids])
    return f * np.diff(x_edges)


def _level_masses(d: Dist, w: float, top: float, m: int):
    """Yield the probabilities of w*X falling in each of m cells of
    [0, top], then of 2m cells, and so on, cut after the last nonzero cell."""
    cdf = getattr(d, "cdf", None)
    if callable(cdf):
        for table in _edge_cdf_tables(cdf, w, top, m):
            yield _nonzero_prefix(np.diff(table))
    else:
        while True:
            yield _nonzero_prefix(_midpoint_masses(d, w, np.linspace(0.0, top, m + 1)))
            m *= 2


def _nonzero_prefix(masses: np.ndarray) -> np.ndarray:
    np.clip(masses, 0.0, None, out=masses)
    nz = np.flatnonzero(masses)
    return masses[: nz[-1] + 1] if nz.size else masses[:1]


def convolve_weighted(
    dists: Sequence[Dist],
    weights: VectorLike,
    initial_grid: int = INITIAL_GRID,
    refine_tol: float = REFINE_TOL,
    max_levels: int = MAX_LEVELS,
    tail_tol: float = TAIL_TOL,
) -> NumericCDF:
    """CDF of ``sum_i w_i X_i`` by iterated grid convolution.

    Each component's cell masses are placed at cell midpoints; placing half
    of each atom's mass at its own abscissa makes the tabulated CDF a
    second-order approximation, and the grid step is halved until two
    successive levels agree to ``refine_tol`` in sup norm. The result's
    ``meta`` holds the number of ``levels``, the final cell count ``m`` and
    width ``h``, the last level-to-level ``gap``, the truncation point
    ``top`` and the ``mean`` of the tabulated sum.

    A component with a CDF is tabulated at the cell edges, and its table is
    carried from one level to the next. Two invariants keep every level
    equal to a from-scratch tabulation:

    - Even-edge reuse is exact. The even edges of
      ``linspace(0, top, 2m + 1)`` are bit for bit the edges of
      ``linspace(0, top, m + 1)``, because ``top / (2m)`` halves
      ``top / m`` exactly; only the odd edges are evaluated.
    - The saturation skip assumes a nondecreasing computed CDF: past the
      first edge where it is exactly 1.0, every edge is taken as 1.0
      without being evaluated.

    Each component's cell masses are cut after their last nonzero cell
    before the FFT, and the sum's masses are padded back with zeros, so the
    convolution is the same; only its roundoff differs. A component without
    a CDF (a ``DensitySpec`` with ``cdf=None``) is tabulated afresh at each
    level by the midpoint rule on its density.
    """
    w = as_weight_vector(weights).as_array()
    if len(w) != len(dists):
        raise ParameterError("weights and dists lengths differ")
    if np.any(w < 0) or not np.any(w > 0):
        raise ParameterError("weights must be nonnegative with at least one positive")
    active = [(d, float(wi)) for d, wi in zip(dists, w) if wi > 0]
    for d, _ in active:
        lo = d.support[0] if isinstance(d, DensitySpec) else 0.0
        if lo < -1e-12:
            raise ParameterError("convolution oracle assumes nonnegative support")

    top = sum(wi * _upper_quantile(d, 1.0 - tail_tol) for d, wi in active)
    if not np.isfinite(top) or top <= 0:
        raise NumericError(f"cannot truncate support (T={top})")

    components = [_level_masses(d, wi, top, initial_grid) for d, wi in active]
    prev: NumericCDF | None = None
    m = initial_grid
    gap = math.inf
    for levels in range(1, max_levels + 2):
        cur = _convolve_level([next(c) for c in components], top, m, tail_tol, levels)
        if prev is not None:
            gap = float(
                np.max(np.abs(cur.evaluate(prev.grid) - prev.values))
            )
            if gap < refine_tol:
                cur.meta["gap"] = gap
                return cur
        prev = cur
        m *= 2
    raise NumericError(
        f"convolution did not converge below {refine_tol} in {max_levels} "
        f"refinements (last gap {gap:.3g})"
    )


def _full_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two 1-D float arrays, computed as
    ``scipy.signal.fftconvolve`` does: a length-1 factor scales the other,
    otherwise real FFTs at the next fast length."""
    if len(a) == 1 or len(b) == 1:
        return a * b
    full = len(a) + len(b) - 1
    nfft = fft.next_fast_len(full, True)
    return fft.irfft(fft.rfft(a, nfft) * fft.rfft(b, nfft), nfft)[:full]


def _convolve_level(
    masses: list[np.ndarray], top: float, m: int, tail_tol: float, levels: int
) -> NumericCDF:
    n = len(masses)
    size = m + n if n > 1 else m
    h = top / m
    pmf = masses[0]
    for comp in masses[1:]:
        pmf = _full_convolution(pmf, comp)[:size]
        np.clip(pmf, 0.0, None, out=pmf)
    pmf = np.concatenate([pmf, np.zeros(size - len(pmf))])
    positions = (np.arange(size) + 0.5 * n) * h
    values = np.cumsum(pmf) - 0.5 * pmf
    values = np.minimum.accumulate(np.minimum(values[::-1], 1.0))[::-1]
    values = np.maximum.accumulate(np.clip(values, 0.0, 1.0))
    mean = float(np.sum(positions * pmf))
    return NumericCDF(
        positions,
        values,
        kind="linear",
        tail_tol=n * tail_tol,
        meta={
            "levels": levels, "m": m, "h": h, "gap": math.inf, "top": top, "mean": mean,
        },
    )


def _common_grid(cdf_a: NumericCDF, cdf_b: NumericCDF) -> np.ndarray:
    return np.union1d(cdf_a.grid, cdf_b.grid)


def st_compare_exact(
    cdf_a: NumericCDF, cdf_b: NumericCDF, tol: float = DEFAULT_EXACT_TOL
) -> OrderVerdict:
    """Verdict from the sign pattern of F_A - F_B on the common grid."""
    grid = _common_grid(cdf_a, cdf_b)
    d = cdf_a.evaluate(grid) - cdf_b.evaluate(grid)
    max_pos = float(np.max(d))
    max_neg = float(np.max(-d))
    relation = _relation_from_devs(max_pos, max_neg, tol)
    return OrderVerdict(
        relation,
        max_pos,
        max_neg,
        band=tol,
        crossing_count=_count_sign_changes(d, tol),
        meta={"exact": True, "grid_points": int(len(grid))},
    )


def crossing_count(cdf_a: NumericCDF, cdf_b: NumericCDF, tol: float = DEFAULT_EXACT_TOL) -> int:
    """Sign changes of F_A - F_B after suppressing sub-tol excursions."""
    grid = _common_grid(cdf_a, cdf_b)
    d = cdf_a.evaluate(grid) - cdf_b.evaluate(grid)
    return _count_sign_changes(d, tol)


def _count_sign_changes(d: np.ndarray, tol: float) -> int:
    signs = np.sign(d[np.abs(d) > tol])
    if signs.size == 0:
        return 0
    return int(np.count_nonzero(np.diff(signs) != 0))


def quadrature_cdf(d: Dist, points: np.ndarray) -> NumericCDF:
    """Independent CDF oracle by piecewise adaptive quadrature of the pdf."""
    pts = np.sort(np.asarray(points, dtype=float))
    lo = d.support[0] if isinstance(d, DensitySpec) else 0.0
    vals = np.empty_like(pts)
    acc = 0.0
    prev = lo
    for i, t in enumerate(pts):
        if t > prev:
            seg, _ = integrate.quad(lambda x: float(d.pdf(x)), prev, t, limit=200)
            acc += seg
            prev = t
        vals[i] = min(acc, 1.0)
    vals = np.maximum.accumulate(vals)
    return NumericCDF(pts, vals, kind="linear", meta={"points": int(pts.size)})
