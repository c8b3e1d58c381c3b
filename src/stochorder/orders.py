"""Decision procedures for the usual stochastic order: DKW-banded empirical
comparison, a grid-convolution oracle for weighted sums of independent
nonnegative variables, whose CDF tables are linear on a lattice, and the
exact comparison of two such tables with the crossing count of their
difference.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import NumericError, ParameterError
from .distributions import Dist
from .majorization import VectorLike, as_weight_vector

DEFAULT_EXACT_TOL = 1e-6
REFINE_TOL = 1e-7
MAX_LEVELS = 10
INITIAL_GRID = 4096
TAIL_TOL = 1e-9
# knots of either table per chunk of the exact comparison, which builds
# each table's chunk and a knot either side once: merging two 1M-knot
# tables at once would take many table-lengths of temporaries
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


class Lattice(NamedTuple):
    """The knots ``(j + offset) * step``, j = 0, 1, ...: the grid of an
    oracle table, kept as two numbers. A ``NumericCDF`` takes only an offset
    for which j + offset is exact up to its last knot (whole, half or other
    dyadic numbers far below 2**52, as the oracle's n/2), so a float
    ``arange`` of them is exact, and each knot is one rounded product: a
    slice built alone holds the same bits as the whole grid."""

    offset: float
    step: float

    def knots(self, r: range) -> np.ndarray:
        k = np.arange(r.start + self.offset, r.stop + self.offset, r.step)
        k *= self.step
        return k


class NumericCDF:
    """CDF tabulated on a ``Lattice``, linear between knots: every oracle
    table. It keeps the lattice, not its knots: ``grid`` builds them all, as
    ``evaluate`` does, and ``knots`` a slice of them, which is all that the
    exact comparison reads, one chunk at a time. ``tail_tol`` records how
    much upper-tail mass the construction may have truncated, and ``meta``
    how it was built."""

    __slots__ = ("lattice", "values", "tail_tol", "meta")

    def __init__(self, lattice: Lattice, values, tail_tol: float = 0.0,
                 meta: Optional[dict] = None):
        if not (isinstance(lattice, Lattice) and np.all(np.isfinite(lattice)) and lattice.step > 0):
            raise ParameterError(f"grid must be a finite Lattice with step > 0, not {lattice!r}")
        v = np.asarray(values, dtype=float)
        if v.ndim != 1 or len(v) < 1:
            raise ParameterError("values must be a nonempty 1-D array")
        # j + offset exact at the last knot, so that a window's knots are the
        # bits of the whole grid's
        last = len(v) - 1
        end = last + lattice.offset
        if end - last != lattice.offset or end - lattice.offset != last:
            raise ParameterError(
                f"Lattice offset {lattice.offset!r}: j + offset is not exact up to j = {last}"
            )
        self.lattice, self.values = lattice, v
        # each check holds only where every comparison is true, so NaN fails it
        g = self.knots()
        if not np.all(g[1:] > g[:-1]):
            raise ParameterError("grid must be strictly increasing, without NaN")
        del g
        if not (v[0] >= -1e-12 and v[-1] <= 1 + 1e-12 and np.all(np.diff(v) >= -1e-12)):
            raise ParameterError("values must be a nondecreasing CDF table, without NaN")
        # a new array, so that no later write to the caller's changes the table
        self.values = np.clip(v, 0.0, 1.0)
        self.tail_tol = tail_tol
        self.meta = {} if meta is None else meta

    @property
    def grid(self) -> np.ndarray:
        return self.knots()

    def knots(self, s: slice = slice(None)) -> np.ndarray:
        """``grid[s]``, built knot by knot from the lattice."""
        return self.lattice.knots(range(len(self.values))[s])

    def evaluate(self, x) -> np.ndarray:
        """F at x, ``np.interp`` of the table: 0 below the grid and the last
        value above it. NaN is rejected."""
        x = np.asarray(x, dtype=float)
        if np.isnan(x).any():
            raise ParameterError("a CDF cannot be evaluated at NaN")
        return np.interp(x, self.grid, self.values, left=0.0, right=float(self.values[-1]))

    def to_csv(self, path: str) -> None:
        """Two-column CSV (abscissa, value) for plotting; each number is the
        ``repr`` of a Python float, which reads back bit for bit."""
        with open(path, "w") as f:
            f.write("x,F\n")
            f.writelines(f"{float(x)!r},{float(v)!r}\n" for x, v in zip(self.grid, self.values))


# the default delta of the DKW test: each sample's band fails with
# probability at most delta
DEFAULT_DELTA = 0.01


def dkw_epsilon(n: int, delta: float) -> float:
    """Half-width of the distribution-free confidence band for n >= 1
    samples."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"n must be an integer >= 1, got {n!r}")
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


def st_compare_empirical(
    samples_a: Sequence[float], samples_b: Sequence[float], delta: float = DEFAULT_DELTA
) -> OrderVerdict:
    """Compare two samples in the usual stochastic order with a DKW band.

    A_DOMINATES means the A-sample's variable is stochastically larger
    (F_A <= F_B up to the band, with a beyond-band gap the other way).
    """
    a = _sorted_sample(samples_a)
    b = _sorted_sample(samples_b)
    n_a, n_b = a.size, b.size
    band = dkw_epsilon(n_a, delta) + dkw_epsilon(n_b, delta)
    max_pos, max_neg = _ecdf_extremes(a, b)
    relation = _relation_from_devs(max_pos, max_neg, band)
    return OrderVerdict(
        relation,
        max_pos,
        max_neg,
        band,
        meta={"n_a": n_a, "n_b": n_b, "delta": delta},
    )


def _ecdf_extremes(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """The maxima of F_A - F_B and of F_B - F_A over every distinct value of
    two sorted samples, from one stable merge of the two: at the last copy
    of a value, the A and B entries up to it are the counts that the ECDFs
    divide by n.

    The counts are whole floats, exact below 2**53, so each k / n is the
    ECDF's own value. The difference is taken at every merged entry, and
    the extremes only over the last copies (``where=``), so that no index
    list or gathered copy of them is made; the merge's value buffer is
    reused for the A counts. At most three arrays as long as both samples
    together are alive at once, beside a byte mask. (``np.interp`` of one
    sample's ranks at the other's values, in place of the merge, took
    longer: its search mispredicts a branch at nearly every value.)"""
    n = a.size + b.size
    merged = np.concatenate([a, b])
    order = np.argsort(merged, kind="stable")
    last = np.empty(n, dtype=bool)
    values = merged[order]
    np.not_equal(values[1:], values[:-1], out=last[:-1])
    last[-1] = True
    del values
    count_a = merged
    np.less(order, a.size, out=count_a)
    del order
    np.cumsum(count_a, out=count_a)
    count_b = np.arange(1.0, n + 1.0)
    count_b -= count_a
    count_a /= a.size
    count_b /= b.size
    count_a -= count_b
    max_pos = np.max(count_a, where=last, initial=-np.inf)
    # F_B - F_A is -(F_A - F_B) exactly, so its maximum is minus this minimum
    max_neg = -np.min(count_a, where=last, initial=np.inf)
    return float(max_pos), float(max_neg)


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
    # linspace(0, top, m + 1) is arange(m + 1) * (top / m) with its last
    # entry set to top, bit for bit; the edges are built in one array
    k = _cells(x, m)
    edges = np.arange(k + 1.0)
    edges *= top / m
    if k == m:
        edges[-1] = top
    edges /= w
    table = np.asarray(cdf(edges), float)
    del edges
    while True:
        yield table
        m *= 2
        x *= 2
        k = _cells(x, m)
        fine = np.empty(k + 1)
        fine[::2] = table[: k // 2 + 1]
        del table
        # the odd edges are bit for bit linspace(0, top, m + 1)[1 : k + 1 : 2]
        # (m is even, so none of them is the last edge)
        odd = np.arange(1.0, k + 1.0, 2.0)
        odd *= top / m
        odd /= w
        fine[1::2] = cdf(odd)
        del odd
        table = fine


def _cells(x: float, m: int) -> int:
    return min(max(math.ceil(x), 1), m)


def _cell_masses(table: np.ndarray) -> np.ndarray:
    """The probabilities of the cells of an edge table, negative rounding
    clipped to 0."""
    masses = np.subtract(table[1:], table[:-1])
    np.maximum(masses, 0.0, out=masses)  # np.clip(masses, 0, None), without its wrapper
    return masses


def convolve_weighted(dists: Sequence[Dist], weights: VectorLike) -> NumericCDF:
    """CDF of ``sum_i w_i X_i`` by iterated grid convolution.

    Each component's cell masses are placed at cell midpoints; placing half
    of each atom's mass at its own abscissa makes the tabulated CDF a
    second-order approximation, and the grid step is halved until two
    successive levels agree to ``REFINE_TOL`` at the coarser one's knots,
    ``max |cur.evaluate(prev.grid) - prev.values|``, starting from
    ``INITIAL_GRID`` cells and halving at most ``MAX_LEVELS`` times. The
    result's ``meta`` holds the number of ``levels``, the final cell count
    ``m`` and width ``h``, the last level-to-level ``gap``, the truncation
    point ``top`` and the ``mean`` of the tabulated sum.

    Component i is tabulated at the cell edges up to its own stop
    ``s_i = w_i * ppf_i(1 - TAIL_TOL)``, rounded up to a whole cell, and so
    leaves out at most ``TAIL_TOL`` of its mass; the result's ``tail_tol``
    is ``n * TAIL_TOL``. The stops sum to ``top``, so the linear
    convolution is at most m + 1 long and is kept whole, padded with zeros
    to the level's m + n points. A component's table is carried from one
    level to the next (see ``_edge_cdf_tables``), and its k cells are its
    k masses. Each step of a level is one whole-array pass, and none holds
    much more than the level's spectral product (``_product_pmf``); the
    gap holds both levels' grids beside the deviation. The
    result keeps its knots as a ``Lattice``: knot j is ``(j + n/2) * h``.
    Every component is a ``GammaPower`` (a ``GeneralizedGamma`` is one),
    which lives on (0, inf); any other is rejected.
    """
    w = as_weight_vector(weights).as_array()
    if len(w) != len(dists):
        raise ParameterError("weights and dists lengths differ")
    for d in dists:
        if not isinstance(d, Dist):
            raise ParameterError(f"convolution oracle takes gamma-family components, not {d!r}")
    if np.any(w < 0) or not np.any(w > 0):
        raise ParameterError("weights must be nonnegative with at least one positive")
    active = [(d, float(wi)) for d, wi in zip(dists, w) if wi > 0]

    stops = [wi * float(d.ppf(1.0 - TAIL_TOL)) for d, wi in active]
    top = sum(stops)
    if not np.isfinite(top) or top <= 0:
        raise NumericError(f"cannot truncate support (T={top})")
    # np.interp, and so the level gap, divides a cell's rise by its width h:
    # where h < 1 / DBL_MAX that overflows on a steep enough table, always on one
    # that rises by about 1 within 1 / DBL_MAX (whose knots may also collide)
    if top * sys.float_info.max < 1.0:
        raise _narrow_cells(top / INITIAL_GRID)

    components = [
        _edge_cdf_tables(d.cdf, wi, si, top, INITIAL_GRID) for (d, wi), si in zip(active, stops)
    ]
    prev: NumericCDF | None = None
    m = INITIAL_GRID
    gap = math.inf
    for levels in range(1, MAX_LEVELS + 2):
        tables = [next(c) for c in components]
        # a table of k cells gives k masses, made one component at a time,
        # as the product takes them
        lengths = [len(t) - 1 for t in tables]
        cur = _convolve_level(lengths, map(_cell_masses, tables), top, m, levels)
        if cur.meta["h"] * sys.float_info.max < 1.0:
            with np.errstate(over="ignore"):
                if np.max(np.diff(cur.values) / np.diff(cur.grid)) == math.inf:
                    raise _narrow_cells(cur.meta["h"])
        if prev is not None:
            # np.max, not max: a NaN gap stays NaN, and never converges
            gap = float(np.max(np.abs(cur.evaluate(prev.grid) - prev.values)))
            if gap < REFINE_TOL:
                cur.meta["gap"] = gap
                return cur
        prev = cur
        m *= 2
    raise NumericError(
        f"convolution did not converge below {REFINE_TOL} in {MAX_LEVELS} "
        f"refinements (last gap {gap:.3g})"
    )


def _narrow_cells(h: float) -> NumericError:
    return NumericError(f"cell width {h:.3g} is too small: the CDF's slope overflows")


def _product_pmf(
    lengths: Sequence[int], masses: Iterable[np.ndarray], size: int = 0
) -> np.ndarray:
    """The linear convolution of ``masses``, arrays of the given
    ``lengths``, as one spectral product: one real FFT per component at a
    common length, the smallest 2**i * 3**j * 5**k at or above the
    convolution's (``scipy.fft.next_fast_len``), and one inverse FFT.
    Length-1 masses are scale factors and take no transform. The result is
    padded with zeros to ``size`` where the convolution is shorter.

    The lengths fix the transform length before any array is made, so that
    ``masses`` (an iterator, in the oracle) makes each array only as it is
    transformed, and drops it then: the level's masses are never all alive
    beside the two spectra (the B-sum oracle runs beside the A-sum's table,
    so every level's peak counts). Every transform after the first goes
    into one reused buffer, and the inverse transform goes straight into
    the padded result, which is clipped in place. Only the length comes
    from ``scipy.fft``; the transforms are numpy's: ``scipy.fft`` keeps a
    plan for every length it has seen (about 8 bytes per point, up to 16
    lengths), which would hold on to tens of MB after the largest levels;
    numpy's keep none and give the same bits."""
    from scipy.fft import next_fast_len

    full = sum(lengths) - len(lengths) + 1
    nfft = next_fast_len(full, True) if sum(k > 1 for k in lengths) > 1 else 0
    scale = 1.0
    only = spectrum = term = None
    for c in masses:
        if len(c) == 1:
            scale *= float(c[0])
        elif not nfft:
            only = c
        elif spectrum is None:
            spectrum = np.fft.rfft(c, nfft)
            term = np.empty_like(spectrum)
        else:
            spectrum *= np.fft.rfft(c, nfft, out=term)
        del c
    if not nfft:
        pmf = np.zeros(max(full, size))
        np.multiply(1.0 if only is None else only, scale, out=pmf[:full])
        return pmf
    del term
    if scale != 1.0:
        spectrum *= scale
    pmf = np.empty(max(nfft, size))
    np.fft.irfft(spectrum, nfft, out=pmf[:nfft])
    del spectrum
    np.maximum(pmf[:full], 0.0, out=pmf[:full])  # np.clip(pmf, 0, None)
    pmf[full:] = 0.0
    return pmf[: max(full, size)]


def _convolve_level(
    lengths: Sequence[int], masses: Iterable[np.ndarray], top: float, m: int, levels: int
) -> NumericCDF:
    """The level's table on the lattice ``(j + n/2) * h``, from the n
    components' masses (see ``_product_pmf``). The running sum is numpy's
    sequential cumsum, taken with the half-cell correction and the
    monotonicity test over the whole padded pmf."""
    n = len(lengths)
    size = m + n if n > 1 else m
    h = top / m
    pmf = _product_pmf(lengths, masses, size)
    lattice = Lattice(0.5 * n, h)
    # np.sum's pairwise order depends on the length, so the mean takes one
    # whole product, made in the knots' own array
    moments = lattice.knots(range(size))
    moments *= pmf
    mean = float(np.sum(moments))
    del moments
    # values = cumsum(pmf) - pmf / 2 in pmf's own buffer
    half = pmf * 0.5
    values = np.cumsum(pmf, out=pmf)
    values -= half
    del half
    # a nondecreasing table from 0 (pmf >= 0) to at most 1 is its own clip,
    # which NumericCDF takes; the fix-ups leave any other nondecreasing
    # table as its clip
    if not (values[-1] <= 1.0 and np.all(values[1:] >= values[:-1])):
        reverse = values[::-1]
        np.minimum(reverse, 1.0, out=reverse)
        np.minimum.accumulate(reverse, out=reverse)
        np.clip(values, 0.0, 1.0, out=values)
        np.maximum.accumulate(values, out=values)
    return NumericCDF(
        lattice,
        values,
        tail_tol=n * TAIL_TOL,
        meta={
            "levels": levels, "m": m, "h": h, "gap": math.inf, "top": top, "mean": mean,
        },
    )


def st_compare_exact(cdf_a: NumericCDF, cdf_b: NumericCDF) -> OrderVerdict:
    """Verdict from the sign pattern of F_A - F_B on the union of the two
    grids: its maxima, the sign changes that are left after dropping the
    knots where |F_A - F_B| <= ``DEFAULT_EXACT_TOL`` (the verdict's
    ``crossing_count``), and the number of distinct knots
    (``meta["grid_points"]``).

    The union is walked one chunk of x at a time, so that on two 1M-knot
    oracle tables the comparison holds about 3 MB beside them. Each chunk
    builds each table's knots once: its next ``_CHUNK_KNOTS`` knots, the
    knot before them and the knot after them. Both grids are cut at the
    same x, the lower of the two knots after, found in the other table's
    knots by ``np.searchsorted``, so a knot in both grids falls in one
    chunk. The chunk's knots of both tables are put in order by a stable
    sort, which is one linear merge of two sorted runs (two
    ``searchsorted`` calls took eight times as long), and d is
    ``np.interp`` of A's window minus that of B's, each window holding the
    cell of every merged knot (a table read at its own knot returns its
    own value). A knot in both grids comes out twice in a row, with the
    same d, and is counted once. A sign change across a cut is counted
    against the last sign kept before it, so the result is that of the
    whole union at once. (A zero maximum could differ in its sign only if
    d held both signs of zero, which needs a table that holds -0.0.)"""
    highs, lows = [], []
    crossings = points = 0
    last = 0.0
    na, nb = len(cdf_a.values), len(cdf_b.values)
    ia = ib = 0
    while ia < na or ib < nb:
        wa = slice(max(ia - 1, 0), min(ia + _CHUNK_KNOTS + 1, na))
        wb = slice(max(ib - 1, 0), min(ib + _CHUNK_KNOTS + 1, nb))
        ka, kb = cdf_a.knots(wa), cdf_b.knots(wb)
        ja, jb = min(ia + _CHUNK_KNOTS, na), min(ib + _CHUNK_KNOTS, nb)
        # ka[-1] is knot ja where ja < na, and kb[-1] knot jb where jb < nb;
        # the knot before each chunk lies below both
        if ja < na and (jb == nb or ka[-1] <= kb[-1]):
            jb = wb.start + int(np.searchsorted(kb, ka[-1]))
        elif jb < nb:
            ja = wa.start + int(np.searchsorted(ka, kb[-1]))
        grid = np.concatenate([ka[ia - wa.start : ja - wa.start], kb[ib - wb.start : jb - wb.start]])
        grid.sort(kind="stable")
        points += len(grid) - int(np.count_nonzero(grid[1:] == grid[:-1]))
        d = np.interp(grid, ka, cdf_a.values[wa], left=0.0, right=float(cdf_a.values[-1]))
        d -= np.interp(grid, kb, cdf_b.values[wb], left=0.0, right=float(cdf_b.values[-1]))
        highs.append(np.max(d))
        lows.append(np.min(d))
        signs = np.sign(d[np.abs(d) > DEFAULT_EXACT_TOL])
        if signs.size:
            crossings += int(np.count_nonzero(signs[1:] != signs[:-1]))
            if last and signs[0] != last:
                crossings += 1
            last = signs[-1]
        ia, ib = ja, jb
    # max of -d is -(min of d) exactly; np.max and np.min keep a NaN
    max_pos, max_neg = float(np.max(highs)), -float(np.min(lows))
    return OrderVerdict(
        _relation_from_devs(max_pos, max_neg, DEFAULT_EXACT_TOL),
        max_pos,
        max_neg,
        band=DEFAULT_EXACT_TOL,
        crossing_count=crossings,
        meta={"exact": True, "grid_points": points},
    )
