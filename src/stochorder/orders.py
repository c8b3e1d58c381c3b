"""Decision procedures for the usual stochastic order: DKW-banded empirical
comparison, a grid-convolution oracle for weighted sums of
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
# knots of either table per chunk when two tables are compared
_CHUNK_KNOTS = 1 << 15


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
            # [()] gives a scalar for a scalar x, as np.interp does
            return np.where(idx > 0, self.values[idx - 1], 0.0)[()]
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


def _sorted_sample(samples: Sequence[float]) -> np.ndarray:
    """The sample as a sorted array, which must be 1-D, nonempty and finite."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1:
        raise ParameterError(f"a sample must be 1-D, not {arr.ndim}-D")
    if arr.size == 0:
        raise ParameterError("a sample needs at least one value")
    arr = np.sort(arr)
    # sorting puts -inf first and +inf and NaN last
    if not (np.isfinite(arr[0]) and np.isfinite(arr[-1])):
        raise ParameterError("samples must be finite")
    return arr


def ecdf(samples: Sequence[float]) -> NumericCDF:
    """Right-continuous empirical CDF on the sorted sample grid."""
    arr = _sorted_sample(samples)
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
    a = _sorted_sample(samples_a)
    b = _sorted_sample(samples_b)
    n_a, n_b = a.size, b.size
    band = dkw_epsilon(n_a, delta) + dkw_epsilon(n_b, delta)
    d = _ecdf_difference(a, b)
    max_pos = float(np.max(d))
    max_neg = float(np.max(-d))
    relation = _relation_from_devs(max_pos, max_neg, band)
    return OrderVerdict(
        relation,
        max_pos,
        max_neg,
        band,
        meta={"n_a": n_a, "n_b": n_b, "delta": delta},
    )


def _ecdf_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """F_A - F_B of two sorted samples at every distinct value of either,
    from one stable merge of the two: at the last copy of a value, the A
    and B entries up to it are the counts that the ECDFs divide by n.

    The counts are whole floats, exact below 2**53, so each k / n is the
    ECDF's own value. Each array is dropped once used and the arithmetic
    runs in place, so at most three arrays as long as both samples together
    are alive at once."""
    merged = np.concatenate([a, b])
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    last = np.flatnonzero(np.concatenate((merged[1:] != merged[:-1], [True])))
    del merged
    count_a = np.cumsum(order < a.size, dtype=float)[last]
    del order
    count_b = np.add(last, 1.0)
    del last
    count_b -= count_a
    count_a /= a.size
    count_b /= b.size
    count_a -= count_b
    return count_a


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


def _edge_cdf_tables(cdf, w: float, stop: float, top: float, m: int):
    """Yield ``cdf(edges / w)`` for the edges of ``linspace(0, top, m + 1)``
    up to the first at or past ``stop`` (``ceil(stop / h)`` cells of width
    ``h = top / m``, at least one and at most m), then for 2m cells, and so
    on.

    Each table holds every even edge of the next one, so only the odd edges
    are evaluated: ``top / (2m)`` halves ``top / m`` exactly, which makes the
    even edges bit for bit the coarser edges and doubles ``stop / h``
    exactly, and ``ceil(2x) <= 2 ceil(x)``.
    """
    x = stop / (top / m)
    table = np.asarray(cdf(np.linspace(0.0, top, m + 1)[: _cells(x, m) + 1] / w), float)
    while True:
        yield table
        m *= 2
        x *= 2
        k = _cells(x, m)
        fine = np.empty(k + 1)
        fine[::2] = table[: k // 2 + 1]
        # the odd edges are bit for bit linspace(0, top, m + 1)[1 : k + 1 : 2],
        # which is arange(m + 1) * (top / m) with its last entry set to top
        fine[1::2] = cdf(np.arange(1, k + 1, 2) * (top / m) / w)
        table = fine


def _cells(x: float, m: int) -> int:
    return min(max(math.ceil(x), 1), m)


def _level_masses(d: Dist, w: float, stop: float, top: float, m: int):
    """Yield the probabilities of w*X falling in each of the cells of
    [0, top] that ``_edge_cdf_tables`` keeps for m cells, then for 2m
    cells, and so on, cut after the last nonzero cell."""
    for table in _edge_cdf_tables(d.cdf, w, stop, top, m):
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

    Component i is tabulated at the cell edges up to its own stop
    ``s_i = w_i * ppf_i(1 - tail_tol)``, rounded up to a whole cell, and so
    leaves out at most ``tail_tol`` of its mass; the result's ``tail_tol``
    is ``n * tail_tol``. The stops sum to ``top``, so the linear
    convolution is at most m + 1 long and is kept whole, padded with zeros
    to the level's m + n points. A component's table is carried from one
    level to the next (see ``_edge_cdf_tables``). Every component needs a
    callable ``cdf`` and ``ppf``; a density-only component (a
    ``DensitySpec`` without them) is rejected.
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

    stops = [wi * float(d.ppf(1.0 - tail_tol)) for d, wi in active]
    top = sum(stops)
    if not np.isfinite(top) or top <= 0:
        raise NumericError(f"cannot truncate support (T={top})")

    components = [
        _level_masses(d, wi, si, top, initial_grid) for (d, wi), si in zip(active, stops)
    ]
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


def _product_pmf(masses: list[np.ndarray]) -> np.ndarray:
    """The linear convolution of ``masses`` as one spectral product: one
    real FFT per component at a common length no shorter than the
    convolution, one inverse FFT. Length-1 masses are scale factors and
    take no transform.

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
    return np.clip(pmf[:full], 0.0, None)


def _convolve_level(
    masses: list[np.ndarray], top: float, m: int, tail_tol: float, levels: int
) -> NumericCDF:
    n = len(masses)
    size = m + n if n > 1 else m
    h = top / m
    pmf = _product_pmf(masses)
    if len(pmf) < size:
        pmf = np.concatenate([pmf, np.zeros(size - len(pmf))])
    positions = np.arange(size, dtype=float)
    positions += 0.5 * n
    positions *= h
    scratch = positions * pmf
    mean = float(np.sum(scratch))
    np.multiply(pmf, 0.5, out=scratch)
    # the running sum takes pmf's own buffer, so no third array is made
    values = np.cumsum(pmf, out=pmf)
    values -= scratch
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


def _difference_chunks(cdf_a: NumericCDF, cdf_b: NumericCDF):
    """Yield F_A - F_B at every knot of either table in increasing order,
    each knot once, in chunks of at most ``_CHUNK_KNOTS`` knots of A and at
    most as many of B.

    Both grids are cut at the same x: the lower of the two knots that
    follow each table's next ``_CHUNK_KNOTS`` knots. A knot in both grids
    thus falls in one chunk, and the chunks are the union-grid values in
    order, so that the comparison holds a few chunk-sized arrays at a time,
    not several as long as both tables together.
    """
    ga, gb = cdf_a.grid, cdf_b.grid
    ia = ib = 0
    while ia < len(ga) or ib < len(gb):
        ja = min(ia + _CHUNK_KNOTS, len(ga))
        jb = min(ib + _CHUNK_KNOTS, len(gb))
        if ja < len(ga) and (jb == len(gb) or ga[ja] <= gb[jb]):
            jb = int(gb.searchsorted(ga[ja]))
        elif jb < len(gb):
            ja = int(ga.searchsorted(gb[jb]))
        yield _merged_difference(cdf_a, cdf_b, slice(ia, ja), slice(ib, jb))
        ia, ib = ja, jb


def _merged_difference(cdf_a: NumericCDF, cdf_b: NumericCDF, sa: slice, sb: slice):
    """F_A - F_B at the knots ``cdf_a.grid[sa]`` and ``cdf_b.grid[sb]`` in
    increasing order, each knot once.

    A table evaluated at its own knots returns its own values. The two
    sorted grids are merged by a stable sort of their concatenation, which
    is one linear merge of two sorted runs (two ``searchsorted`` calls took
    eight times as long). A knot in both grids comes out twice in a row,
    with the same difference from either table, and B's copy is dropped.
    """
    ga, gb = cdf_a.grid[sa], cdf_b.grid[sb]
    grid = np.concatenate([ga, gb])
    order = np.argsort(grid, kind="stable")
    d = np.concatenate([
        cdf_a.values[sa] - cdf_b.evaluate(ga),
        cdf_a.evaluate(gb) - cdf_b.values[sb],
    ])[order]
    grid = grid[order]
    shared = np.flatnonzero(grid[1:] == grid[:-1])
    return np.delete(d, shared + 1) if shared.size else d


def cdf_difference(cdf_a: NumericCDF, cdf_b: NumericCDF) -> np.ndarray:
    """F_A - F_B at every knot of either table in increasing order, each
    knot once: the values of the union-grid formula, without ``union1d``.
    It is the concatenation of the chunks that ``st_compare_exact`` folds
    one at a time."""
    return np.concatenate(list(_difference_chunks(cdf_a, cdf_b)))


def _fold_difference(cdf_a: NumericCDF, cdf_b: NumericCDF, tol: float):
    """``(max_pos, max_neg, crossings, points)`` of F_A - F_B over the
    chunks of ``_difference_chunks``: the maxima of d and -d, the sign
    changes of d after dropping |d| <= tol, and the number of knots. A sign
    change across a chunk edge is counted against the last sign kept
    before it, so the result is that of the whole difference at once. (A
    zero maximum could differ in its sign only if d held both signs of
    zero, which needs a table that holds -0.0.)"""
    max_pos, max_neg = [], []
    crossings = points = 0
    last = 0.0
    for d in _difference_chunks(cdf_a, cdf_b):
        max_pos.append(np.max(d))
        max_neg.append(np.max(-d))
        points += len(d)
        signs = np.sign(d[np.abs(d) > tol])
        if signs.size:
            crossings += int(np.count_nonzero(np.diff(signs) != 0))
            if last and signs[0] != last:
                crossings += 1
            last = signs[-1]
    return float(np.max(max_pos)), float(np.max(max_neg)), crossings, points


def st_compare_exact(
    cdf_a: NumericCDF, cdf_b: NumericCDF, tol: float = DEFAULT_EXACT_TOL
) -> OrderVerdict:
    """Verdict from the sign pattern of F_A - F_B on the union of the two
    grids, taken one chunk of knots at a time (``_difference_chunks``), so
    that on two 1M-knot oracle tables it holds about 3 MB beside them."""
    max_pos, max_neg, crossings, points = _fold_difference(cdf_a, cdf_b, tol)
    relation = _relation_from_devs(max_pos, max_neg, tol)
    return OrderVerdict(
        relation,
        max_pos,
        max_neg,
        band=tol,
        crossing_count=crossings,
        meta={"exact": True, "grid_points": points},
    )


def crossing_count(cdf_a: NumericCDF, cdf_b: NumericCDF, tol: float = DEFAULT_EXACT_TOL) -> int:
    """Sign changes of F_A - F_B after suppressing sub-tol excursions."""
    return _fold_difference(cdf_a, cdf_b, tol)[2]


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
