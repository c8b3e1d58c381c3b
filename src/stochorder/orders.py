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
from scipy import fft

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
    # F_A - F_B on the union of the two grids, taken at each grid apart: a
    # step ECDF evaluated at its own grid returns its own values
    da = fa.values - fb.evaluate(fa.grid)
    db = fa.evaluate(fb.grid) - fb.values
    max_pos = float(max(np.max(da), np.max(db)))
    max_neg = float(max(np.max(-da), np.max(-db)))
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
        # the odd edges are bit for bit linspace(0, top, m + 1)[1 : 2k - 1 : 2],
        # which is arange(m + 1) * (top / m) with its last entry set to top
        fine[1::2] = cdf(np.arange(1, 2 * k - 1, 2) * (top / m) / w)
        table = _saturated_prefix(fine)
        del fine  # a suspended generator keeps its locals alive


def _saturated_prefix(table: np.ndarray) -> np.ndarray:
    hit = np.flatnonzero(table == 1.0)
    return table[: hit[0] + 1].copy() if hit.size else table


def _level_masses(d: Dist, w: float, top: float, m: int):
    """Yield the probabilities of w*X falling in each of m cells of
    [0, top], then of 2m cells, and so on, cut after the last nonzero cell."""
    for table in _edge_cdf_tables(d.cdf, w, top, m):
        yield _nonzero_prefix(np.diff(table))


def _nonzero_prefix(masses: np.ndarray) -> np.ndarray:
    np.clip(masses, 0.0, None, out=masses)
    if masses[-1] > 0:  # the common case, without a scan
        return masses
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

    Each component's CDF is tabulated at the cell edges, and its table is
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
    convolution is the same; only its roundoff differs. Every component
    needs a callable ``cdf`` and ``ppf``: the ppf at ``1 - tail_tol`` sets
    the truncation point. A density-only component (a ``DensitySpec``
    without them) is rejected.
    """
    w = as_weight_vector(weights).as_array()
    if len(w) != len(dists):
        raise ParameterError("weights and dists lengths differ")
    for d in dists:
        if not (callable(getattr(d, "cdf", None)) and callable(getattr(d, "ppf", None))):
            label = getattr(d, "label", d)
            raise ParameterError(f"convolution oracle needs a cdf and a ppf: {label}")
    if np.any(w < 0) or not np.any(w > 0):
        raise ParameterError("weights must be nonnegative with at least one positive")
    active = [(d, float(wi)) for d, wi in zip(dists, w) if wi > 0]
    for d, _ in active:
        lo = d.support[0] if isinstance(d, DensitySpec) else 0.0
        if lo < -1e-12:
            raise ParameterError("convolution oracle assumes nonnegative support")

    top = sum(wi * float(d.ppf(1.0 - tail_tol)) for d, wi in active)
    if not np.isfinite(top) or top <= 0:
        raise NumericError(f"cannot truncate support (T={top})")

    components = [_level_masses(d, wi, top, initial_grid) for d, wi in active]
    prev: NumericCDF | None = None
    m = initial_grid
    gap = math.inf
    for levels in range(1, max_levels + 2):
        cur = _convolve_level([next(c) for c in components], top, m, tail_tol, levels)
        if prev is not None:
            dev = cur.evaluate(prev.grid)
            dev -= prev.values
            gap = float(np.max(np.abs(dev, out=dev)))
            if gap < refine_tol:
                cur.meta["gap"] = gap
                return cur
        prev = cur
        m *= 2
    raise NumericError(
        f"convolution did not converge below {refine_tol} in {max_levels} "
        f"refinements (last gap {gap:.3g})"
    )


def _product_pmf(masses: list[np.ndarray], size: int) -> np.ndarray:
    """First ``size`` masses of the convolution of ``masses`` as one
    spectral product: one real FFT per component at a common length no
    shorter than the full linear convolution, one inverse FFT. Length-1
    masses are scale factors and take no transform.

    ``masses`` is emptied, and each array is dropped once it is transformed,
    so that the level's masses are not all alive beside the two spectra
    (the B-sum oracle runs beside the A-sum, so every level's peak counts
    twice). The transforms are numpy's: ``scipy.fft`` keeps a plan for every
    length it has seen (about 8 bytes per point, up to 16 lengths), which
    would hold on to tens of MB after the largest levels; numpy's keep none
    and give the same bits."""
    arrays = [c for c in masses if len(c) > 1]
    scale = math.prod(float(c[0]) for c in masses if len(c) == 1)
    masses.clear()
    if len(arrays) < 2:
        return (arrays[0] if arrays else np.ones(1)) * scale
    full = sum(len(c) - 1 for c in arrays) + 1
    nfft = fft.next_fast_len(full, True)
    arrays.reverse()  # popped in the given order
    spectrum = np.fft.rfft(arrays.pop(), nfft)
    while arrays:
        spectrum *= np.fft.rfft(arrays.pop(), nfft)
    if scale != 1.0:
        spectrum *= scale
    pmf = np.fft.irfft(spectrum, nfft)
    del spectrum
    # the copy made by clip frees the nfft-long inverse transform
    return np.clip(pmf[: min(size, full)], 0.0, None)


def _convolve_level(
    masses: list[np.ndarray], top: float, m: int, tail_tol: float, levels: int
) -> NumericCDF:
    n = len(masses)
    size = m + n if n > 1 else m
    h = top / m
    pmf = _product_pmf(masses, size)
    if len(pmf) < size:
        pmf = np.concatenate([pmf, np.zeros(size - len(pmf))])
    positions = np.arange(size, dtype=float)
    positions += 0.5 * n
    positions *= h
    scratch = positions * pmf
    mean = float(np.sum(scratch))
    values = np.cumsum(pmf)
    values -= np.multiply(pmf, 0.5, out=scratch)
    del pmf, scratch
    if np.all(values[1:] >= values[:-1]):
        # the fix-ups below leave a nondecreasing table as its clip
        np.clip(values, 0.0, 1.0, out=values)
    else:
        reverse = values[::-1]
        np.minimum(reverse, 1.0, out=reverse)
        np.minimum.accumulate(reverse, out=reverse)
        np.clip(values, 0.0, 1.0, out=values)
        np.maximum.accumulate(values, out=values)
    return NumericCDF(
        positions,
        values,
        kind="linear",
        tail_tol=n * tail_tol,
        meta={
            "levels": levels, "m": m, "h": h, "gap": math.inf, "top": top, "mean": mean,
        },
    )


def cdf_difference(cdf_a: NumericCDF, cdf_b: NumericCDF) -> np.ndarray:
    """F_A - F_B at every knot of either table in increasing order, each
    knot once: the values of the union-grid formula, without ``union1d``.

    A table evaluated at its own knots returns its own values. The two
    sorted grids are merged by a stable sort of their concatenation, which
    is one linear merge of two sorted runs (two ``searchsorted`` calls took
    eight times as long). A knot in both grids comes out twice in a row,
    with the same difference from either table, and one copy is dropped.
    """
    grid = np.concatenate([cdf_a.grid, cdf_b.grid])
    order = np.argsort(grid, kind="stable")
    d = np.concatenate([
        cdf_a.values - cdf_b.evaluate(cdf_a.grid),
        cdf_a.evaluate(cdf_b.grid) - cdf_b.values,
    ])[order]
    grid = grid[order]
    shared = np.flatnonzero(grid[1:] == grid[:-1])
    return np.delete(d, shared + 1) if shared.size else d


def st_compare_exact(
    cdf_a: NumericCDF, cdf_b: NumericCDF, tol: float = DEFAULT_EXACT_TOL
) -> OrderVerdict:
    """Verdict from the sign pattern of F_A - F_B on the union of the two
    grids."""
    d = cdf_difference(cdf_a, cdf_b)
    max_pos = float(np.max(d))
    max_neg = float(np.max(-d))
    relation = _relation_from_devs(max_pos, max_neg, tol)
    return OrderVerdict(
        relation,
        max_pos,
        max_neg,
        band=tol,
        crossing_count=_count_sign_changes(d, tol),
        meta={"exact": True, "grid_points": int(len(d))},
    )


def crossing_count(cdf_a: NumericCDF, cdf_b: NumericCDF, tol: float = DEFAULT_EXACT_TOL) -> int:
    """Sign changes of F_A - F_B after suppressing sub-tol excursions."""
    return _count_sign_changes(cdf_difference(cdf_a, cdf_b), tol)


def _count_sign_changes(d: np.ndarray, tol: float) -> int:
    signs = np.sign(d[np.abs(d) > tol])
    if signs.size == 0:
        return 0
    return int(np.count_nonzero(np.diff(signs) != 0))


def quadrature_cdf(d: Dist, points: np.ndarray) -> NumericCDF:
    """Independent CDF oracle by piecewise adaptive quadrature of the pdf."""
    from scipy import integrate  # kept off the import path, as in DensitySpec

    pts = np.sort(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ParameterError("quadrature_cdf points must be finite")
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
