"""Decision procedures for the usual stochastic order: DKW-banded empirical
comparison, a grid-convolution oracle for weighted sums of
independent nonnegative variables, and the exact comparison of two CDF
tables with the crossing count of their difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import NumericError, ParameterError
from .distributions import Dist
from .majorization import VectorLike, as_weight_vector

DEFAULT_EXACT_TOL = 1e-6
REFINE_TOL = 1e-7
MAX_LEVELS = 8
INITIAL_GRID = 4096
TAIL_TOL = 1e-9
# knots of either table per chunk when two tables are compared, and the
# chunk length of the other passes that run a chunk at a time
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
    oracle table, kept as two numbers. The knot numbers j + offset are whole
    or half numbers far below 2**52, so a float ``arange`` of them is exact,
    and each knot is one rounded product: the same bits however many of
    them are built at once."""

    offset: float
    step: float

    def knots(self, r: range) -> np.ndarray:
        k = np.arange(r.start + self.offset, r.stop + self.offset, r.step)
        k *= self.step
        return k


class NumericCDF:
    """CDF tabulated on an increasing grid.

    ``grid`` is an array of knots, or a ``Lattice``: the oracle's tables
    keep only the lattice's offset and step beside their values, and build
    the knots they read a chunk at a time (``knots``). Reading ``grid``
    builds the whole array, for a lattice table on every read. ``kind`` is
    "step" (right-continuous, e.g. an ECDF) or "linear" (continuous
    distribution tabulated pointwise). ``tail_tol`` records how much
    upper-tail mass the construction may have truncated, and ``meta`` how
    the table was built.
    """

    __slots__ = ("lattice", "_grid", "values", "kind", "tail_tol", "meta")

    def __init__(self, grid, values, kind: str = "linear", tail_tol: float = 0.0,
                 meta: Optional[dict] = None):
        v = np.asarray(values, dtype=float)
        if isinstance(grid, Lattice):
            self.lattice, self._grid = grid, None
        else:
            # a new array, so that no later write to the caller's changes the grid
            self.lattice, self._grid = None, np.array(grid, dtype=float)
        if v.ndim != 1 or len(v) < 1 or (self._grid is not None and self._grid.shape != v.shape):
            raise ParameterError("grid and values must be equal-length 1-D arrays")
        self.values = v
        # each check holds only where every comparison is true, so NaN fails it
        if not _every_step(self.knots, len(v), lambda lo, hi: hi > lo):
            raise ParameterError("grid must be strictly increasing, without NaN")
        if not (
            v[0] >= -1e-12
            and v[-1] <= 1 + 1e-12
            and _every_step(v.__getitem__, len(v), lambda lo, hi: hi - lo >= -1e-12)
        ):
            raise ParameterError("values must be a nondecreasing CDF table, without NaN")
        # a new array, so that no later write to the caller's changes the table
        self.values = np.clip(v, 0.0, 1.0)
        self.kind = kind
        self.tail_tol = tail_tol
        self.meta = {} if meta is None else meta

    @property
    def grid(self) -> np.ndarray:
        return self.knots()

    def knots(self, s: slice = slice(None)) -> np.ndarray:
        """``grid[s]``: a view of an explicit grid, which callers must not
        write to; a lattice table builds just those knots."""
        if self.lattice is None:
            return self._grid[s]
        return self.lattice.knots(range(len(self.values))[s])

    def _knot(self, k: int) -> float:
        """Knot k >= 0, the bits of ``grid[k]``."""
        if self.lattice is None:
            return self._grid[k]
        return (k + self.lattice.offset) * self.lattice.step

    def _count_below(self, x: float) -> int:
        """The number of knots below x, ``grid.searchsorted(x)``. On a
        lattice, x / step - offset is within a knot of the count, and the
        knots around it are compared with x."""
        if self.lattice is None:
            return int(self._grid.searchsorted(x))
        size = len(self.values)
        # Python floats, whose division gives inf without a warning
        k = int(min(max(float(x) / self.lattice.step - self.lattice.offset, 0.0), size))
        while k > 0 and self._knot(k - 1) >= x:
            k -= 1
        while k < size and self._knot(k) < x:
            k += 1
        return k

    def _window(self, x: np.ndarray) -> slice:
        """The knots ``evaluate`` reads for x, which must be free of NaN:
        all of an explicit grid; of a lattice, from the last knot below
        min(x) to the first at or above max(x). Every x then lies in the
        same cell of the window as of the whole grid, or beyond the end it
        shares with it."""
        size = len(self.values)
        if x.size == 0:
            return slice(0, 1)
        lo = np.min(x)
        if np.isnan(lo):  # np.min keeps a NaN
            raise ParameterError("a CDF cannot be evaluated at NaN")
        if self.lattice is None:
            return slice(0, size)
        below = self._count_below
        return slice(max(below(lo) - 1, 0), min(below(np.max(x)) + 1, size))

    def evaluate(self, x) -> np.ndarray:
        """F at x: ``np.interp`` of a linear table, or the value of the last
        knot at or below x of a step table; 0 below the grid. A lattice
        table builds only the knots around x (see ``_window``), and gives
        the bits it would give on its whole grid. NaN is rejected."""
        x = np.asarray(x, dtype=float)
        window = self._window(x)
        return self._read(x, window, self.knots(window))

    def _read(self, x: np.ndarray, window: slice, knots: np.ndarray) -> np.ndarray:
        """F at x from ``knots``, the knots of ``window``, which holds the
        cell of every x, or the end of the grid that x lies beyond."""
        values = self.values[window]
        if self.kind == "step":
            idx = np.searchsorted(knots, x, side="right")
            # [()] gives a scalar for a scalar x, as np.interp does
            return np.where(idx > 0, values[idx - 1], 0.0)[()]
        return np.interp(x, knots, values, left=0.0, right=float(self.values[-1]))

    def to_csv(self, fp) -> None:
        """Two-column CSV (abscissa, value) for plotting; each number is the
        ``repr`` of a Python float, which reads back bit for bit."""
        own = isinstance(fp, str)
        f = open(fp, "w") if own else fp
        try:
            f.write("x,F\n")
            for x, v in zip(self.grid, self.values):
                f.write(f"{float(x)!r},{float(v)!r}\n")
        finally:
            if own:
                f.close()


def _every_step(read, size: int, ok) -> bool:
    """Whether ``ok(x[i], x[i + 1])`` holds for every i of an x of the given
    size, which ``read(s)`` gives slices ``x[s]`` of; taken ``_CHUNK_KNOTS``
    pairs at a time, so that no temporary is as long as x."""
    for i in range(0, size - 1, _CHUNK_KNOTS):
        x = read(slice(i, min(i + _CHUNK_KNOTS, size - 1) + 1))
        if not np.all(ok(x[:-1], x[1:])):
            return False
    return True


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


def _kept_cells(table: np.ndarray) -> int:
    """The number of cells of an edge table up to its last increment that
    is not <= 0 (a NaN one counts), and at least one: the length of the
    table's masses (``_cell_masses``) cut after the last nonzero cell. The
    increments are taken a chunk at a time from the end."""
    k = len(table) - 1
    if table[k] - table[k - 1] > 0:  # the common case, without a scan
        return k
    for i in range(k, 0, -_CHUNK_KNOTS):
        j = max(i - _CHUNK_KNOTS, 0)
        kept = np.flatnonzero(~(table[j + 1 : i + 1] - table[j:i] <= 0))
        if kept.size:
            return j + int(kept[-1]) + 1
    return 1


def _cell_masses(table: np.ndarray, cells: int) -> np.ndarray:
    """The probabilities of the first ``cells`` cells of an edge table,
    negative rounding clipped to 0."""
    masses = np.subtract(table[1 : cells + 1], table[:cells])
    np.maximum(masses, 0.0, out=masses)  # np.clip(masses, 0, None), without its wrapper
    return masses


def convolve_weighted(dists: Sequence[Dist], weights: VectorLike) -> NumericCDF:
    """CDF of ``sum_i w_i X_i`` by iterated grid convolution.

    Each component's cell masses are placed at cell midpoints; placing half
    of each atom's mass at its own abscissa makes the tabulated CDF a
    second-order approximation, and the grid step is halved until two
    successive levels agree to ``REFINE_TOL`` in sup norm, starting from
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
    level to the next (see ``_edge_cdf_tables``). The result keeps its
    knots as a ``Lattice``: knot j is ``(j + n/2) * h``. Every component
    is a ``GeneralizedGamma`` or a ``GammaPower``, which live on (0, inf);
    any other is rejected.
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

    components = [
        _edge_cdf_tables(d.cdf, wi, si, top, INITIAL_GRID) for (d, wi), si in zip(active, stops)
    ]
    prev: NumericCDF | None = None
    m = INITIAL_GRID
    gap = math.inf
    for levels in range(1, MAX_LEVELS + 2):
        tables = [next(c) for c in components]
        cells = [_kept_cells(t) for t in tables]
        # the masses are made one component at a time, as the product
        # takes them
        cur = _convolve_level(cells, map(_cell_masses, tables, cells), top, m, levels)
        if prev is not None:
            gap = _level_gap(prev, cur, len(components))
            if gap < REFINE_TOL:
                cur.meta["gap"] = gap
                return cur
        prev = cur
        m *= 2
    raise NumericError(
        f"convolution did not converge below {REFINE_TOL} in {MAX_LEVELS} "
        f"refinements (last gap {gap:.3g})"
    )


def _level_gap(prev: NumericCDF, cur: NumericCDF, n: int) -> float:
    """``max |cur.evaluate(prev.grid) - prev.values|`` for two successive
    levels of an n-component oracle, read off the lattice in place of a
    search.

    Knot j of a level is ``(j + n/2) * h``, and ``prev``'s h is ``cur``'s
    times 2 exactly, so ``prev`` knot j is ``(2j + n) * h`` of ``cur``: for
    even n that is ``cur`` knot ``2j + n/2`` bit for bit, and for odd n it
    lies strictly inside ``cur``'s cell ``k = 2j + (n-1)/2``, where
    ``np.interp`` gives ``slope * (x - xp[k]) + fp[k]`` with the slope of
    that cell. Knots past ``cur``'s last take its last value, as
    ``evaluate`` does. The work runs in chunks of ``_CHUNK_KNOTS`` knots,
    and builds only the knots of each chunk, so no temporary is as long as
    a table."""
    pv, cv = prev.values, cur.values
    off, odd = n // 2, n % 2
    # the prev knots whose cur cell (or knot) ends at or before cur's last knot
    inner = min(len(pv), max(0, (len(cv) - 1 - odd - off) // 2 + 1))
    gaps = [0.0]
    for i in range(0, inner, _CHUNK_KNOTS):
        j = min(i + _CHUNK_KNOTS, inner)
        lo = slice(off + 2 * i, off + 2 * j, 2)
        if odd:
            hi = slice(off + 2 * i + 1, off + 2 * j + 1, 2)
            at = cur.knots(lo)
            dev = cv[hi] - cv[lo]
            dev /= cur.knots(hi) - at
            dev *= prev.knots(slice(i, j)) - at
            dev += cv[lo]
            dev -= pv[i:j]
        else:
            dev = cv[lo] - pv[i:j]
        gaps.append(np.max(np.abs(dev, out=dev)))
    if inner < len(pv):
        gaps.append(np.max(np.abs(cv[-1] - pv[inner:])))
    # np.max, not max: a NaN gap must stay NaN, so that it never converges
    return float(np.max(gaps))


def _next_fast_len(n: int) -> int:
    """The smallest 5-smooth integer (2**i * 3**j * 5**k) at or above n >= 1,
    the lengths that pocketfft's real transforms favour."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power-of-two multiple of p35 at or above n
            fit = p35 << (-(-n // p35) - 1).bit_length()
            if fit < best:
                best = fit
            p35 *= 3
        p5 *= 5
    return best


def _product_pmf(
    lengths: Sequence[int], masses: Iterable[np.ndarray], size: int = 0
) -> np.ndarray:
    """The linear convolution of ``masses``, arrays of the given
    ``lengths``, as one spectral product: one real FFT per component at a
    common length no shorter than the convolution, one inverse FFT.
    Length-1 masses are scale factors and take no transform. The result is
    padded with zeros to ``size`` where the convolution is shorter.

    The lengths fix the transform length before any array is made, so that
    ``masses`` (an iterator, in the oracle) makes each array only as it is
    transformed, and drops it then: the level's masses are never all alive
    beside the two spectra (the B-sum oracle runs beside the A-sum's table,
    so every level's peak counts). Every transform after the first goes
    into one reused buffer, and the inverse transform goes straight into
    the padded result, which is clipped in place. The transforms are
    numpy's: ``scipy.fft`` keeps a plan for every length it has seen (about
    8 bytes per point, up to 16 lengths), which would hold on to tens of MB
    after the largest levels; numpy's keep none and give the same bits."""
    full = sum(lengths) - len(lengths) + 1
    nfft = _next_fast_len(full) if sum(k > 1 for k in lengths) > 1 else 0
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
    components' masses (see ``_product_pmf``)."""
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
    # values = cumsum(pmf) - pmf / 2 in pmf's own buffer, one cache-sized
    # chunk at a time: each chunk's first entry takes the running sum, so
    # the sums are the sequential cumsum's bit for bit
    values = pmf
    rising = True
    total = last = 0.0
    for i in range(0, size, _CHUNK_KNOTS):
        chunk = values[i : i + _CHUNK_KNOTS]
        half = chunk * 0.5
        if i:
            chunk[0] += total
        np.cumsum(chunk, out=chunk)
        total = chunk[-1]
        chunk -= half
        rising = rising and (not i or chunk[0] >= last) and bool(np.all(chunk[1:] >= chunk[:-1]))
        last = chunk[-1]
    # a nondecreasing table from 0 (pmf >= 0) to at most 1 is its own clip,
    # which NumericCDF takes; the fix-ups leave any other nondecreasing
    # table as its clip
    if not (rising and values[-1] <= 1.0):
        reverse = values[::-1]
        np.minimum(reverse, 1.0, out=reverse)
        np.minimum.accumulate(reverse, out=reverse)
        np.clip(values, 0.0, 1.0, out=values)
        np.maximum.accumulate(values, out=values)
    return NumericCDF(
        lattice,
        values,
        kind="linear",
        tail_tol=n * TAIL_TOL,
        meta={
            "levels": levels, "m": m, "h": h, "gap": math.inf, "top": top, "mean": mean,
        },
    )


def _chunk_slices(fa: NumericCDF, fb: NumericCDF):
    """Yield ``(sa, sb)``, slices of two tables' knots that hold at most
    ``_CHUNK_KNOTS`` knots of A and at most as many of B, in increasing
    order.

    Both grids are cut at the same x: the lower of the two knots that
    follow each table's next ``_CHUNK_KNOTS`` knots. A knot in both grids
    thus falls in one chunk, so that the comparison holds a few chunk-sized
    arrays at a time, not several as long as both tables together. Only
    the knots at the cuts are read.
    """
    na, nb = len(fa.values), len(fb.values)
    ia = ib = 0
    while ia < na or ib < nb:
        ja = min(ia + _CHUNK_KNOTS, na)
        jb = min(ib + _CHUNK_KNOTS, nb)
        if ja < na and (jb == nb or fa._knot(ja) <= fb._knot(jb)):
            jb = fb._count_below(fa._knot(ja))
        elif jb < nb:
            ja = fa._count_below(fb._knot(jb))
        yield slice(ia, ja), slice(ib, jb)
        ia, ib = ja, jb


def st_compare_exact(cdf_a: NumericCDF, cdf_b: NumericCDF) -> OrderVerdict:
    """Verdict from the sign pattern of F_A - F_B on the union of the two
    grids: its maxima, the sign changes that are left after dropping the
    knots where |F_A - F_B| <= ``DEFAULT_EXACT_TOL`` (the verdict's
    ``crossing_count``), and the number of distinct knots
    (``meta["grid_points"]``). The union is taken one chunk of
    ``_chunk_slices`` at a time, so that on two 1M-knot oracle tables it
    holds about 3 MB beside them; the knots of a lattice table are built a
    chunk at a time too.

    In each chunk, d = F_A - F_B is taken at each grid's own knots (a table
    evaluated at its own knots returns its own values, and each table is
    read only on its chunk and a knot either side), and the two are put
    in merged order by a stable sort of the grids' concatenation, which is
    one linear merge of two sorted runs (two ``searchsorted`` calls took
    eight times as long). A knot in both grids comes out twice in a row,
    A's copy first, with the same d from either table: the maxima come from
    each table's own differences, and the second copy can change no sign.
    A sign change across a chunk edge is counted against the last sign kept
    before it, so the result is that of the whole difference at once. (A
    zero maximum could differ in its sign only if d held both signs of
    zero, which needs a table that holds -0.0.)"""
    highs, lows = [], []
    crossings = points = 0
    last = 0.0
    na, nb = len(cdf_a.values), len(cdf_b.values)
    for sa, sb in _chunk_slices(cdf_a, cdf_b):
        # each table's chunk and a knot either side of it hold the cell of
        # every knot of the other table's chunk, as the two are cut at the
        # same x: the knots are built once for both uses
        wa = slice(max(sa.start - 1, 0), min(sa.stop + 1, na))
        wb = slice(max(sb.start - 1, 0), min(sb.stop + 1, nb))
        ka, kb = cdf_a.knots(wa), cdf_b.knots(wb)
        ga = ka[sa.start - wa.start : sa.stop - wa.start]
        gb = kb[sb.start - wb.start : sb.stop - wb.start]
        da = cdf_b._read(ga, wb, kb)
        np.subtract(cdf_a.values[sa], da, out=da)
        db = cdf_a._read(gb, wa, ka)
        db -= cdf_b.values[sb]
        for d in (da, db):
            if d.size:
                highs.append(np.max(d))
                lows.append(np.min(d))
        grid = np.concatenate([ga, gb])
        order = np.argsort(grid, kind="stable")
        merged = grid[order]
        points += len(order) - int(np.count_nonzero(merged[1:] == merged[:-1]))
        d = np.concatenate([da, db])[order]
        signs = np.sign(d[np.abs(d) > DEFAULT_EXACT_TOL])
        if signs.size:
            crossings += int(np.count_nonzero(signs[1:] != signs[:-1]))
            if last and signs[0] != last:
                crossings += 1
            last = signs[-1]
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


def quadrature_cdf(d: Dist, points: np.ndarray) -> NumericCDF:
    """Independent CDF oracle by piecewise adaptive quadrature of the pdf."""
    from scipy import integrate  # kept off the import path, as in DensitySpec

    pts = np.sort(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ParameterError("quadrature_cdf points must be finite")
    vals = np.empty_like(pts)
    acc = 0.0
    prev = 0.0
    for i, t in enumerate(pts):
        if t > prev:
            seg, _ = integrate.quad(lambda x: float(d.pdf(x)), prev, t, limit=200)
            acc += seg
            prev = t
        vals[i] = min(acc, 1.0)
    vals = np.maximum.accumulate(vals)
    return NumericCDF(pts, vals, kind="linear", meta={"points": int(pts.size)})
