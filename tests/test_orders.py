import csv
import json
import math
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from stochorder import (
    DensitySpec,
    GammaPower,
    GeneralizedGamma,
    LRVerdict,
    NumericCDF,
    NumericError,
    ParameterError,
    Relation,
    convolve_weighted,
    dkw_epsilon,
    lr_compare,
    st_compare_empirical,
    st_compare_exact,
)
from stochorder import orders
from stochorder.harness import dist_from_spec
from stochorder.orders import (
    DEFAULT_EXACT_TOL,
    INITIAL_GRID,
    TAIL_TOL,
    Lattice,
    _convolve_level,
    _edge_cdf_tables,
    _product_pmf,
)

from reference import quadrature_cdf

GOLDEN_ORACLE = Path(__file__).with_name("golden_oracle.json")

EXP1 = GeneralizedGamma(1, 1, 1)


class TestNumericCDF:
    def test_validation(self):
        # knots (j + 1/2) * h with h one subnormal ulp round together
        with pytest.raises(ParameterError, match="strictly increasing"):
            NumericCDF(Lattice(0.5, 5e-324), np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ParameterError):
            NumericCDF(Lattice(1.0, 1.0), np.array([0.5, 0.1]))

    @pytest.mark.parametrize("grid", [
        Lattice(0.5, math.nan), Lattice(0.5, math.inf), Lattice(0.5, -math.inf),
        Lattice(0.5, 0.0), Lattice(0.5, -1.0), Lattice(math.nan, 1.0),
        [0.0, 1.0, 2.0], np.array([0.0, 1.0, 2.0]),
    ], ids=["nan-step", "inf-step", "-inf-step", "zero-step", "negative-step",
            "nan-offset", "list", "array"])
    @pytest.mark.parametrize("size", [1, 3])
    def test_bad_lattice_rejected(self, grid, size):
        with pytest.raises(ParameterError, match="[Ll]attice"):
            NumericCDF(grid, [0.1, 0.5, 1.0][:size])

    @pytest.mark.parametrize("offset", [0.1, 1 / 3, 1e20])
    def test_inexact_offset_rejected(self, offset):
        # 2 + offset rounds, so knots built for a window would not be the
        # grid's bits
        with pytest.raises(ParameterError, match="offset"):
            NumericCDF(Lattice(offset, 1.0), [0.1, 0.5, 1.0])

    @pytest.mark.parametrize("offset", [0.0, 2.0, 0.5, 1.5, 0.09375, 0.25])
    def test_exact_offset_knots_match_the_grid(self, offset):
        f = NumericCDF(Lattice(offset, 0.1), np.linspace(0.0, 1.0, 50))
        for s in (slice(3, 9), slice(17, 50, 2), slice(-1, None)):
            assert f.knots(s).tobytes() == f.grid[s].tobytes()

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_nan_value_rejected(self, at):
        values = [0.1, 0.5, 1.0]
        values[at] = math.nan
        with pytest.raises(ParameterError, match="values"):
            NumericCDF(Lattice(0.0, 1.0), values)

    def test_nan_table_never_reaches_comparison(self):
        good = NumericCDF(Lattice(0.0, 1.0), [0.1, 0.5, 1.0])
        with pytest.raises(ParameterError):
            st_compare_exact(NumericCDF(Lattice(math.nan, 1.0), [0.1, 0.5, 1.0]), good)

    def test_values_clipped_without_touching_the_input(self):
        values = np.array([-1e-13, 0.5, 1.0 + 1e-13])
        f = NumericCDF(Lattice(0.0, 1.0), values)
        assert f.values.tolist() == [0.0, 0.5, 1.0]
        assert values.tolist() == [-1e-13, 0.5, 1.0 + 1e-13]

    def test_values_not_shared_with_the_input(self):
        values = np.array([0.1, 0.5, 1.0])
        f = NumericCDF(Lattice(0.0, 1.0), values)
        values[:] = 0.0
        assert f.values.tolist() == [0.1, 0.5, 1.0]

    def test_linear_evaluation(self):
        f = NumericCDF(Lattice(0.0, 1.0), np.array([0.0, 1.0]))
        assert f.evaluate(0.25) == pytest.approx(0.25)

    @pytest.mark.parametrize("x", [math.nan, [0.5, math.nan, 1.5], [[math.nan]]])
    def test_nan_evaluation_rejected(self, x):
        f = NumericCDF(Lattice(1.0, 0.5), [0.1, 0.5, 1.0])
        with pytest.raises(ParameterError, match="NaN"):
            f.evaluate(x)
        assert f.evaluate([]).shape == (0,)

    def test_csv_export(self, tmp_path):
        f = NumericCDF(Lattice(0.0, 1.0), np.array([0.0, 1.0]))
        path = tmp_path / "cdf.csv"
        f.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,F"
        assert len(lines) == 3

    def test_csv_rows_read_back_bit_for_bit(self, tmp_path):
        # numpy 2 scalars used to be written as "np.float64(...)"
        table = convolve_weighted([GeneralizedGamma(1, 1, 1)], [1.0])
        path = tmp_path / "cdf.csv"
        table.to_csv(str(path))
        with open(path) as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["x", "F"]
        xs = np.array([float(x) for x, _ in rows[1:]])
        fs = np.array([float(v) for _, v in rows[1:]])
        assert xs.tobytes() == table.grid.tobytes()
        assert fs.tobytes() == table.values.tobytes()


class TestCompareEmpirical:
    def test_identical_samples_inconclusive(self):
        x = EXP1.sample(5000, seed=1)
        v = st_compare_empirical(x, x)
        assert v.relation is Relation.INCONCLUSIVE
        assert v.max_pos_dev == 0.0 and v.max_neg_dev == 0.0

    def test_shifted_samples_dominate(self):
        x = EXP1.sample(100_000, seed=3)
        v = st_compare_empirical(x + 1.0, x)
        assert v.relation is Relation.A_DOMINATES

    def test_nan_sample_rejected(self):
        x = EXP1.sample(1000, seed=1)
        y = x.copy()
        y[10] = math.nan
        with pytest.raises(ParameterError):
            st_compare_empirical(x, y)

    @pytest.mark.parametrize("which", ["a", "b"])
    def test_sample_not_1d_rejected(self, which):
        x = EXP1.sample(12, seed=1)
        for bad in (np.arange(12.0).reshape(3, 4), 5.0):
            samples = {"a": x, "b": x, which: bad}
            with pytest.raises(ParameterError, match="1-D"):
                st_compare_empirical(samples["a"], samples["b"])

    @pytest.mark.parametrize("which", ["a", "b"])
    def test_empty_sample_rejected(self, which):
        samples = {"a": [1.0, 2.0], "b": [1.5], which: []}
        with pytest.raises(ParameterError, match="at least one value"):
            st_compare_empirical(samples["a"], samples["b"])

    @pytest.mark.parametrize("which", ["a", "b"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_infinite_samples_rejected(self, which, bad):
        samples = {"a": [1.0, 2.0], "b": [1.5], which: [1.0, bad, 3.0]}
        with pytest.raises(ParameterError, match="finite"):
            st_compare_empirical(samples["a"], samples["b"])

    def test_band_formula(self):
        assert dkw_epsilon(100_000, 0.01) == pytest.approx(
            math.sqrt(math.log(200.0) / 200_000.0)
        )
        with pytest.raises(ParameterError):
            dkw_epsilon(100, 2.0)

    @pytest.mark.parametrize("n", [0, -5, 2.5, math.nan, True, "10", None])
    def test_band_needs_an_integer_count_of_at_least_one(self, n):
        # n = 0 used to divide by zero, and n = -5 to take the root of a
        # negative number
        with pytest.raises(ParameterError, match="n must be an integer >= 1"):
            dkw_epsilon(n, 0.01)
        assert dkw_epsilon(np.int64(100), 0.01) == dkw_epsilon(100, 0.01)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_swap_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.exponential(1.0, size=400)
        y = rng.exponential(rng.uniform(0.5, 2.0), size=400)
        v = st_compare_empirical(x, y)
        w = st_compare_empirical(y, x)
        swapped = {
            Relation.A_DOMINATES: Relation.B_DOMINATES,
            Relation.B_DOMINATES: Relation.A_DOMINATES,
        }
        assert w.relation is swapped.get(v.relation, v.relation)
        assert w.max_pos_dev == pytest.approx(v.max_neg_dev)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 300), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_devs_equal_union_grid_formula(self, seed, n_a, n_b):
        # few distinct values, so most grid points are shared by both samples
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 12, size=n_a) * 0.25
        y = rng.integers(0, 12, size=n_b) * 0.25 + rng.integers(0, 2) * 0.5
        grid = np.union1d(x, y)
        d = _ecdf(x, grid) - _ecdf(y, grid)
        v = st_compare_empirical(x, y)
        # repr tells the signs of zero apart
        assert repr(v.max_pos_dev) == repr(float(np.max(d)))
        assert repr(v.max_neg_dev) == repr(float(np.max(-d)))


def _ecdf(sample, xs):
    """The right-continuous ECDF of ``sample`` at xs, counted by a search
    over the sorted sample."""
    return np.searchsorted(np.sort(sample), xs, side="right") / len(sample)


def _plain_ecdf_extremes(x, y):
    """max of F_A - F_B and of F_B - F_A on the sorted union of the two
    samples."""
    grid = np.union1d(x, y)
    d = _ecdf(x, grid) - _ecdf(y, grid)
    return float(np.max(d)), float(np.max(-d))


class TestEmpiricalExtremes:
    """The one-merge DKW fold against a plain union-grid ECDF reference,
    bit for bit."""

    @pytest.mark.parametrize("x,y", [
        ([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]),            # ties across samples
        ([1.0, 1.0, 1.0, 2.0], [0.5, 2.0, 2.5]),        # ties within one sample
        ([2.0, 2.0], [2.0, 2.0, 2.0]),                  # one value in both
        ([-0.0, 0.0, 1.0], [0.0, 2.0]),                 # both signs of zero
        ([0.0, 0.0], [-0.0, 3.0, -0.0]),
        ([5.0], [1.0, 2.0, 3.0, 4.0, 6.0]),            # size 1, unequal sizes
        ([1.0], [1.0]),
        ([1.0], [2.0]),
        ([3.0, -1.0, 2.0, -1.0, 7.0], [0.0]),          # unsorted, negative
    ])
    def test_cases(self, x, y):
        v = st_compare_empirical(x, y)
        want = _plain_ecdf_extremes(np.array(x), np.array(y))
        # repr tells the signs of zero apart
        assert (repr(v.max_pos_dev), repr(v.max_neg_dev)) == tuple(map(repr, want))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 400), st.integers(1, 400),
           st.sampled_from(["continuous", "lattice", "zeros"]))
    @settings(max_examples=120, deadline=None)
    def test_random(self, seed, n_a, n_b, kind):
        rng = np.random.default_rng(seed)
        if kind == "continuous":
            x, y = rng.gamma(2.0, 1.0, n_a), rng.gamma(2.0, 1.1, n_b)
        elif kind == "lattice":
            x, y = rng.integers(0, 9, n_a) * 0.5, rng.integers(0, 9, n_b) * 0.5
        else:
            x, y = rng.choice([-0.0, 0.0, 1.0], n_a), rng.choice([-0.0, 0.0, 0.5], n_b)
        v = st_compare_empirical(x, y)
        want = _plain_ecdf_extremes(x, y)
        assert (repr(v.max_pos_dev), repr(v.max_neg_dev)) == tuple(map(repr, want))

    def test_inputs_untouched(self):
        x = np.array([3.0, 1.0, 2.0])
        y = np.array([2.5, 0.5])
        st_compare_empirical(x, y)
        assert x.tolist() == [3.0, 1.0, 2.0] and y.tolist() == [2.5, 0.5]


class TestConvolveWeighted:
    def test_single_component_identity(self):
        f = convolve_weighted([EXP1], [1.0])
        xs = np.linspace(0.1, 8.0, 40)
        np.testing.assert_allclose(f.evaluate(xs), 1 - np.exp(-xs), atol=2e-7)

    def test_two_exponentials_gamma(self):
        f = convolve_weighted([EXP1, EXP1], [1.0, 1.0])
        xs = np.linspace(0.2, 12.0, 50)
        gamma2 = 1 - np.exp(-xs) * (1 + xs)
        np.testing.assert_allclose(f.evaluate(xs), gamma2, atol=1e-6)

    def test_hypoexponential_closed_form(self):
        # weights (4, 1) on iid exponential(1): rates 1/4 and 1
        f = convolve_weighted([EXP1, EXP1], [4.0, 1.0])
        xs = np.linspace(0.5, 30.0, 60)
        closed = 1 - (4 / 3) * np.exp(-xs / 4) + (1 / 3) * np.exp(-xs)
        np.testing.assert_allclose(f.evaluate(xs), closed, atol=1e-6)

    def test_zero_weights_dropped(self):
        f = convolve_weighted([EXP1, EXP1], [1.0, 0.0])
        assert f.evaluate(1.0) == pytest.approx(1 - math.exp(-1), abs=1e-6)

    def test_weight_validation(self):
        with pytest.raises(ParameterError):
            convolve_weighted([EXP1], [-1.0])
        with pytest.raises(ParameterError):
            convolve_weighted([EXP1, EXP1], [0.0, 0.0])
        with pytest.raises(ParameterError):
            convolve_weighted([EXP1], [1.0, 2.0])

    def test_mean_sanity(self):
        d = GeneralizedGamma(2, 1.5, 0.7)
        w = np.array([1.5, 0.5])
        f = convolve_weighted([d, d], w)
        # E[sum] from the tabulated CDF by integrating the survival function
        mean = np.trapezoid(1.0 - f.values, f.grid)
        assert mean == pytest.approx(w.sum() * d.mean(), rel=1e-3)

    def test_nonconvergence_raises(self):
        # shape 0.05 puts almost all the mass in the first cell at every
        # level, so the level gap stays large (0.161 at the last level)
        with pytest.raises(NumericError, match=r"in 10 refinements \(last gap 0.161\)"):
            convolve_weighted([GeneralizedGamma(1, 0.05, 1)] * 2, [1.0, 1.0])

    @pytest.mark.parametrize("w", [1e-309, 1e-320, 5e-324])
    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_weights_end_in_one_clean_error(self, n, w):
        # a cell's slope, its rise over its width, overflows; at 1e-309 the
        # level gap's division used to warn (n = 1) or the table to read inf
        # (n = 2), at 1e-320 the knots collided and at 5e-324 h was 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"cell width .* is too small"):
                convolve_weighted([EXP1] * n, [w] * n)

    @pytest.mark.parametrize("w", [1e-300, 1e-304, 1e-308])
    def test_tiny_weights_that_fit_still_converge(self, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = convolve_weighted([EXP1], [w])
        assert f.meta["levels"] == 4
        assert np.max(np.abs(f.values - (1 - np.exp(-f.grid / w)))) < 1e-7

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nan_cdf_rejected(self, n):
        # a component CDF that gives NaN makes a level table with NaN values,
        # which NumericCDF rejects like any other table
        class NanCDF(GammaPower):
            def cdf(self, x):
                return np.full(np.shape(x), np.nan)

        with pytest.raises(ParameterError, match="without NaN"):
            convolve_weighted([NanCDF(1, 1, 1)] * n, [1.0] * n)

    def test_densityspec_without_cdf(self):
        # the oracle tabulates CDFs and truncates at a quantile of the two
        # gamma families, so a component given by its density is rejected
        # on entry
        spec = DensitySpec(pdf=lambda x: math.exp(-x), support=(0.0, 40.0), label="exponential")
        with pytest.raises(ParameterError, match="gamma-family components"):
            convolve_weighted([EXP1, spec], [1.0, 1.0])

    def test_tail_tol_passed_through(self):
        f = convolve_weighted([EXP1, EXP1], [1.0, 1.0])
        assert f.tail_tol == 2 * TAIL_TOL
        assert f.meta["top"] == pytest.approx(2 * EXP1.ppf(1 - TAIL_TOL))

    def test_meta_diagnostics(self):
        f = convolve_weighted([EXP1, EXP1], [4.0, 1.0])
        meta = f.meta
        assert list(meta) == ["levels", "m", "h", "gap", "top", "mean"]
        assert meta["levels"] >= 2
        assert meta["m"] == INITIAL_GRID * 2 ** (meta["levels"] - 1)
        assert meta["h"] == meta["top"] / meta["m"]
        assert 0 <= meta["gap"] < 1e-7
        assert meta["mean"] == pytest.approx(5.0, rel=1e-6)

    def test_grid_length(self):
        one = convolve_weighted([EXP1], [1.0])
        assert len(one.grid) == one.meta["m"]
        two = convolve_weighted([EXP1, EXP1], [4.0, 1.0])
        assert len(two.grid) == two.meta["m"] + 2


def _oracle_top(d, weights):
    return sum(w * d.ppf(1.0 - TAIL_TOL) for w in weights)


def _level_masses(d, w, stop, top, m):
    """Yield a component's cell masses level by level, as the oracle makes
    them: one for each of its edge table's k cells."""
    for table in _edge_cdf_tables(d.cdf, w, stop, top, m):
        yield orders._cell_masses(table)


def _product(masses, size=0):
    return _product_pmf([len(c) for c in masses], iter(masses), size)


def _level(masses, top, m, level):
    return _convolve_level([len(c) for c in masses], iter(masses), top, m, level)


def _fresh_table(d, w, top, m, k):
    """A component's CDF at the first k + 1 edges of m cells of [0, top],
    evaluated from scratch."""
    return d.cdf(np.linspace(0.0, top, m + 1)[: k + 1] / w)


class TestOracleLevels:
    """The per-level tables and convolutions against a from-scratch build."""

    @pytest.mark.parametrize(
        "d",
        [GeneralizedGamma(0.8, 1.1, 1), GammaPower(-0.3, 4, 1), EXP1],
        ids=["gengamma-singular", "gammapower-negative", "exponential"],
    )
    def test_edge_tables_equal_fresh_cdf(self, d):
        weights = (100.0, 1.0)
        q = d.ppf(1.0 - TAIL_TOL)
        top = _oracle_top(d, weights)
        for w in weights:
            stop = w * q
            tables = _edge_cdf_tables(d.cdf, w, stop, top, INITIAL_GRID)
            m = INITIAL_GRID
            for _ in range(6):
                table = next(tables)
                k = len(table) - 1
                # each component's table ends at the first edge at or past
                # its own stop, well short of top
                assert k == math.ceil(stop / (top / m)) < m, (w, m)
                assert np.linspace(0.0, top, m + 1)[k - 1] < stop
                assert np.array_equal(table, _fresh_table(d, w, top, m, k)), (w, m)
                m *= 2

    def test_single_component_ends_at_top_on_any_grid(self):
        # with m = 4095, top / (top / m) rounds to just above m, and the
        # cell count is capped at m
        top = EXP1.ppf(1.0 - TAIL_TOL)
        assert top / (top / 4095) > 4095
        tables = _edge_cdf_tables(EXP1.cdf, 1.0, top, top, 4095)
        for m in (4095, 8190, 16380):
            table = next(tables)
            assert len(table) == m + 1
            assert np.array_equal(table, _fresh_table(EXP1, 1.0, top, m, m)), m

    def test_zero_stop_keeps_one_cell(self):
        d = GeneralizedGamma(0.01, 1, 1e308)
        assert d.ppf(1.0 - TAIL_TOL) == 0.0  # the stop underflows
        tables = _edge_cdf_tables(d.cdf, 1.0, 0.0, 20.0, INITIAL_GRID)
        m = INITIAL_GRID
        for _ in range(3):
            assert np.array_equal(next(tables), _fresh_table(d, 1.0, 20.0, m, 1))
            m *= 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trimmed_fft_matches_full_length(self, n):
        d = GeneralizedGamma(0.8, 1.1, 1)
        weights = [100.0, 1.0, 7.0][:n]
        q = d.ppf(1.0 - TAIL_TOL)
        top = _oracle_top(d, weights)
        m = INITIAL_GRID
        masses = [next(_level_masses(d, w, w * q, top, m)) for w in weights]
        for w, c in zip(weights, masses):
            k = min(math.ceil(w * q / (top / m)), m)
            assert len(c) == k
            fresh = np.diff(_fresh_table(d, w, top, m, k))
            assert np.array_equal(c, np.clip(fresh, 0.0, None))
        if n > 1:
            assert all(len(c) < m for c in masses)
        # the k cells of each table fit the level: the convolution is at
        # most m + 1 long
        assert sum(len(c) - 1 for c in masses) + 1 <= m + 1
        size = m + n if n > 1 else m
        full = [np.concatenate([c, np.zeros(m - len(c))]) for c in masses]
        want = _pairwise_pmf(full)[:size]
        got = _product([c.copy() for c in masses])
        got = np.concatenate([got, np.zeros(size - len(got))])
        assert np.max(np.abs(got - want)) <= 1e-14
        level = _level(masses, top, m, 1)
        assert len(level.grid) == size
        assert np.max(np.abs(np.cumsum(want) - 0.5 * want - level.values)) <= 1e-14

    @pytest.mark.parametrize("m", [4096, 8192, 2**20])
    @pytest.mark.parametrize("top", [1.0, 13.37, 135.2087, 1e-3])
    def test_odd_edges_equal_linspace_slice(self, m, top):
        for k in (2, m // 4 + 1, m // 2 + 1):
            odd = np.arange(1, 2 * k - 1, 2) * (top / m)
            assert np.array_equal(odd, np.linspace(0.0, top, m + 1)[1 : 2 * k - 1 : 2])


TAIL_PANEL = {
    "light": GeneralizedGamma(1, 1, 2.0),
    "stretched": GeneralizedGamma(0.5, 6, 1),
    "heavy": GammaPower(-0.3, 4, 1),
}


class TestTailBudget:
    """Each component is cut at its own stop w_i * ppf(1 - TAIL_TOL), so it
    leaves out at most TAIL_TOL of its mass and the sum at most the
    declared ``tail_tol``."""

    @pytest.mark.parametrize(
        "weights", [(1.0,), (100.0, 1.0), (1.0, 10.0, 100.0), (100.0, 30.0, 3.0, 1.0)],
        ids=["n1", "n2", "n3", "n4"],
    )
    @pytest.mark.parametrize("family", sorted(TAIL_PANEL))
    def test_declared_tail_bounds_left_out_mass(self, family, weights):
        d = TAIL_PANEL[family]
        n = len(weights)
        f = convolve_weighted([d] * n, weights)
        assert f.tail_tol == n * TAIL_TOL
        if n > 1:
            # the last knot lies past top, so its value is all the mass kept
            assert 1.0 - f.values[-1] <= f.tail_tol
        else:
            # the last knot is the midpoint of the last cell, which holds
            # half of that cell's mass; the tail decreases, so that half is
            # below the last step of the table
            assert 1.0 - f.values[-1] <= f.tail_tol + (f.values[-1] - f.values[-2])
        q = d.ppf(1.0 - TAIL_TOL)
        for w in weights:
            tables = _edge_cdf_tables(d.cdf, w, w * q, f.meta["top"], INITIAL_GRID)
            for _ in range(f.meta["levels"]):
                assert next(tables)[-1] >= 1.0 - TAIL_TOL, w


def _gamma_sum_cases():
    return [
        pytest.param(alpha, n, w, id=f"alpha{alpha}-n{n}-w{w:g}")
        for alpha in (0.8, 1.0, 2.5) for n in (2, 3, 4) for w in (1.0, 3.0)
    ]


class TestClosedFormGammaSums:
    """n iid Gamma(alpha, 1) variables with equal weights w sum to
    Gamma(n alpha, 1/w), whose CDF is ``gammainc(n alpha, x / w)``. The
    oracle's sup error at its stopping level measured 0.9e-8 to 3.2e-8 over
    this panel, against its 1e-6 decision tolerance."""

    @pytest.mark.parametrize("alpha, n, w", _gamma_sum_cases())
    def test_sup_error_below_5e8(self, alpha, n, w):
        f = convolve_weighted([GeneralizedGamma(1, alpha, 1)] * n, [w] * n)
        exact = special.gammainc(n * alpha, f.grid / w)
        assert np.max(np.abs(f.values - exact)) < 5e-8


def _random_masses(lengths, seed):
    rng = np.random.default_rng(seed)
    masses = []
    for n in lengths:
        c = rng.random(n) / n
        c[rng.random(n) < 0.2] = 0.0
        c[-1] = 1.0 / n  # a nonzero last cell, as the cell of an oracle table's stop
        masses.append(c)
    return masses


def _pairwise_pmf(masses):
    """The convolution of ``masses`` by direct sums, one pair at a time."""
    pmf = masses[0]
    for comp in masses[1:]:
        pmf = np.convolve(pmf, comp)
    return pmf


class TestLevelProduct:
    """A level's cell masses as one spectral product against the pairwise
    chain, and the level's bookkeeping against its array formulas."""

    @pytest.mark.parametrize(
        "lengths",
        [(5,), (1,), (700, 1), (1, 1), (1, 300), (300, 40), (1, 9, 1), (1, 1, 1),
         (1024, 1024, 3), (600, 1, 1024), (64, 1, 500, 17), (1, 1, 1, 1),
         (1024, 900, 1, 1024), (1024, 1024, 1024, 1024), (2, 3, 5, 7)],
    )
    def test_product_matches_pairwise(self, lengths):
        masses = _random_masses(lengths, seed=sum(lengths))
        product = _product([c.copy() for c in masses])
        pairwise = _pairwise_pmf([c.copy() for c in masses])
        assert len(product) == len(pairwise) == sum(lengths) - len(lengths) + 1
        assert np.all(product >= 0.0)
        assert np.max(np.abs(product - pairwise)) <= 1e-14

    def test_masses_made_one_at_a_time(self):
        # each array is dropped before the next one is asked for
        masses = _random_masses((300, 1, 40, 500, 1), seed=3)
        want = _product([c.copy() for c in masses], 900)
        alive = []

        def made(c):
            a = c.copy()
            alive.append(weakref.ref(a))
            return a

        def stream():
            for c in masses:
                assert all(r() is None for r in alive)
                yield made(c)

        got = _product_pmf([len(c) for c in masses], stream(), 900)
        assert got.tobytes() == want.tobytes()
        assert len(alive) == len(masses)

    def test_subnormal_step_still_checked(self):
        # with h one subnormal ulp, knots (j + 1/2) * h round together, and
        # the level's table fails NumericCDF's check
        pmf = np.full(8, 0.125)
        with pytest.raises(ParameterError, match="strictly increasing"):
            _level([pmf.copy()], 4096 * 5e-324, 4096, 1)
        level = _level([pmf.copy()], 4096 * 2e-310, 4096, 1)
        assert np.all(np.diff(level.grid) > 0)

    @pytest.mark.parametrize("dip", [False, True], ids=["nondecreasing", "dip"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_level_bookkeeping_equals_array_formulas(self, n, dip):
        m = 1024
        top = 37.5
        rng = np.random.default_rng(n)
        # cumulative sums above 1, and with a negative mass a dip, so that
        # every monotone fix-up acts
        pmf = rng.random(m) * (2.2 / m)
        pmf[100:110] = 0.0
        if dip:
            pmf[500] = -0.01
        masses = [pmf.copy()] + [np.ones(1)] * (n - 1)
        got = _level(masses, top, m, 3)
        size = m + n if n > 1 else m
        want = np.concatenate([pmf, np.zeros(size - m)])
        h = top / m
        positions = (np.arange(size) + 0.5 * n) * h
        values = np.cumsum(want) - 0.5 * want
        values = np.minimum.accumulate(np.minimum(values[::-1], 1.0))[::-1]
        values = np.maximum.accumulate(np.clip(values, 0.0, 1.0))
        assert np.array_equal(got.grid, positions)
        assert np.array_equal(got.values, values)
        assert got.meta["mean"] == float(np.sum(positions * want))
        assert got.meta["h"] == h


def _old_product_pmf(masses, size):
    """The level's padded pmf as built before the padded buffer: the
    spectral product, its first ``full`` points clipped, then zeros
    concatenated up to ``size``."""
    from scipy import fft

    arrays = [c for c in masses if len(c) > 1]
    scale = math.prod(float(c[0]) for c in masses if len(c) == 1)
    if len(arrays) < 2:
        pmf = (arrays[0] if arrays else np.ones(1)) * scale
    else:
        full = sum(len(c) - 1 for c in arrays) + 1
        nfft = fft.next_fast_len(full, True)
        spectrum = np.fft.rfft(arrays[0], nfft)
        for c in arrays[1:]:
            spectrum *= np.fft.rfft(c, nfft)
        if scale != 1.0:
            spectrum *= scale
        pmf = np.clip(np.fft.irfft(spectrum, nfft)[:full], 0.0, None)
    if len(pmf) < size:
        pmf = np.concatenate([pmf, np.zeros(size - len(pmf))])
    return pmf


class TestPaddedProduct:
    @pytest.mark.parametrize(
        "lengths",
        [(5,), (1,), (700, 1), (1, 1), (300, 40), (1, 9, 1), (1024, 1024, 3),
         (600, 1, 1024), (64, 1, 500, 17), (1024, 900, 1, 1024), (2, 3, 5, 7)],
    )
    @pytest.mark.parametrize("pad", [0, 1, 3, 100])
    def test_equals_concatenate_path(self, lengths, pad):
        masses = _random_masses(lengths, seed=len(lengths) + pad)
        if len(lengths) == 2 and 1 in lengths:
            masses[lengths.index(1)] = np.array([0.75])  # a scale factor != 1
        size = sum(lengths) - len(lengths) + 1 + pad
        want = _old_product_pmf([c.copy() for c in masses], size)
        got = _product([c.copy() for c in masses], size)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_oracle_level_masses(self, n):
        d = GeneralizedGamma(0.8, 1.1, 1)
        weights = [100.0, 1.0, 7.0, 2.5][:n]
        q = d.ppf(1.0 - TAIL_TOL)
        top = _oracle_top(d, weights)
        tables = [_level_masses(d, w, w * q, top, INITIAL_GRID) for w in weights]
        m = INITIAL_GRID
        for _ in range(3):
            masses = [next(t) for t in tables]
            size = m + n if n > 1 else m
            want = _old_product_pmf([c.copy() for c in masses], size)
            assert _product(masses, size).tobytes() == want.tobytes()
            m *= 2


def _lattice_level(n, m, top, values):
    """A level table on the oracle's lattice: knot j is (j + n/2) * (top/m)."""
    return NumericCDF(Lattice(0.5 * n, top / m), values(m + n if n > 1 else m))


class TestLevelGap:
    """The lattice read of the level gap against ``np.interp`` on the two
    grids, bit for bit."""

    @staticmethod
    def _interp_gap(prev, cur):
        return float(np.max(np.abs(_interp(cur, prev.grid) - prev.values)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_oracle_levels(self, n):
        d = GeneralizedGamma(0.8, 1.1, 1)
        weights = [100.0, 1.0, 7.0, 2.5, 30.0, 0.5, 12.0, 3.3][:n]
        q = d.ppf(1.0 - TAIL_TOL)
        top = _oracle_top(d, weights)
        tables = [_level_masses(d, w, w * q, top, INITIAL_GRID) for w in weights]
        m = INITIAL_GRID
        prev = None
        for level in range(1, 5):
            cur = _level([next(t) for t in tables], top, m, level)
            if prev is not None:
                if n > 1:  # the last knots of prev lie past cur's last
                    assert prev.grid[-1] > cur.grid[-1]
                assert repr(orders._level_gap(prev, cur, n)) == repr(self._interp_gap(prev, cur))
            prev = cur
            m *= 2

    @given(st.integers(1, 8), st.integers(1, 70), st.floats(1e-3, 1e4), st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_random_tables(self, n, m, top, seed):
        rng = np.random.default_rng(seed)

        def values(size):
            return np.sort(rng.random(size))

        prev = _lattice_level(n, m, top, values)
        cur = _lattice_level(n, 2 * m, top, values)
        assert repr(orders._level_gap(prev, cur, n)) == repr(self._interp_gap(prev, cur))


def _golden_oracle_cases():
    pins = json.loads(GOLDEN_ORACLE.read_text())
    return [pytest.param(pins[preset], id=preset) for preset in sorted(pins)]


class TestOracleGolden:
    """One seed-42 suite oracle call per preset against pinned diagnostics
    and values (``golden_oracle.json``)."""

    @pytest.mark.parametrize("want", _golden_oracle_cases())
    def test_matches_pinned(self, want):
        f = convolve_weighted([dist_from_spec(s) for s in want["dists"]], want["weights"])
        assert (f.meta["levels"], f.meta["m"]) == (want["levels"], want["m"])
        assert f.meta["top"] == want["top"]
        assert len(f.grid) == want["grid_points"]
        assert abs(f.meta["gap"] - want["gap"]) <= 1e-14
        got = f.values[want["index"]]
        assert np.max(np.abs(got - np.array(want["values"]))) <= 1e-14


class TestLrOrderImpliesStOrder:
    """X >=_lr Y implies X >=_st Y, and both orders survive a common scale
    w > 0. Same-power gamma pairs with a larger shape or a smaller rate are
    lr-ordered by ``lr_compare``'s analytic rule; the oracle must then find
    F_X <= F_Y within its 1e-6 tolerance. Integer shapes keep the densities
    free of the cusps at 0 that slow the oracle's convergence."""

    @given(
        st.sampled_from([0.5, 1.0]),
        st.integers(1, 3),
        st.integers(0, 1),
        st.floats(0.5, 2.0),
        st.floats(1.0, 3.0),
        st.floats(0.5, 4.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_oracle_agrees(self, r, alpha, extra_shape, lam, rate_factor, w):
        larger = GammaPower(r, alpha + extra_shape, lam)
        smaller = GammaPower(r, alpha, lam * rate_factor)
        lr = lr_compare(larger, smaller)
        assert lr.verdict is LRVerdict.D1_LR_GREATER
        assert lr.detail in ("analytic gamma-power rule", "equal distributions")
        v = st_compare_exact(
            convolve_weighted([larger], [w]), convolve_weighted([smaller], [w])
        )
        assert v.max_pos_dev <= 1e-6


class TestCompareExact:
    def test_identical_inconclusive(self):
        f = convolve_weighted([EXP1], [1.0])
        v = st_compare_exact(f, f)
        assert v.relation is Relation.INCONCLUSIVE
        assert v.crossing_count == 0

    def test_rate_ordering(self):
        fa = convolve_weighted([GeneralizedGamma(1, 1, 1)], [1.0])  # mean 1
        fb = convolve_weighted([GeneralizedGamma(1, 1, 2)], [1.0])  # mean 1/2
        v = st_compare_exact(fa, fb)
        assert v.relation is Relation.A_DOMINATES
        assert v.crossing_count == 0

    def test_unique_crossing_instance(self):
        d = GeneralizedGamma(1, 1, 1)
        fa = convolve_weighted([d] * 3, [2.0, 1.0, 1.0])
        fb = convolve_weighted([d] * 3, [1.5, 1.5, 1.0])
        v = st_compare_exact(fa, fb)
        assert v.relation is Relation.CROSSING
        assert v.crossing_count == 1

    def test_shifted_pair_has_no_crossing(self):
        f = NumericCDF(Lattice(0.0, 1.0), np.array([0.0, 0.5, 1.0]))
        g = NumericCDF(Lattice(1.0, 1.0), np.array([0.0, 0.5, 1.0]))
        assert st_compare_exact(g, f).crossing_count == 0

    def test_oracle_vs_empirical_margin(self):
        """An exact verdict with a wide margin is never contradicted by the
        sample test."""
        fa = convolve_weighted([EXP1, EXP1], [4.0, 1.0])
        fb = convolve_weighted([EXP1, EXP1], [2.0, 2.0])
        exact = st_compare_exact(fa, fb)
        assert exact.relation is Relation.A_DOMINATES
        n = 50_000
        sa = 4 * EXP1.sample(n, 1) + EXP1.sample(n, 2)
        sb = 2 * EXP1.sample(n, 3) + 2 * EXP1.sample(n, 4)
        emp = st_compare_empirical(sa, sb)
        assert emp.relation in (Relation.A_DOMINATES, Relation.INCONCLUSIVE)


def _interp(f, x):
    """F at x by ``np.interp`` on the whole ``grid`` array: the reference
    for every read of a table."""
    return np.interp(x, f.grid, f.values, left=0.0, right=float(f.values[-1]))


def _union_grid_comparison(fa, fb):
    """The comparison on the sorted union of the two grids: the reference
    for ``st_compare_exact``."""
    grid = np.union1d(fa.grid, fb.grid)
    d = _interp(fa, grid) - _interp(fb, grid)
    signs = np.sign(d[np.abs(d) > DEFAULT_EXACT_TOL])
    crossings = int(np.count_nonzero(np.diff(signs) != 0)) if signs.size else 0
    return float(np.max(d)), float(np.max(-d)), crossings, len(grid)


def _near(fa, lattice, size, rng, scales):
    """A table on ``lattice`` whose values are A's at its knots plus noise
    of one of ``scales``, so that many differences sit close to the
    tolerance."""
    grid = lattice.knots(range(size))
    noise = rng.choice(scales) * rng.standard_normal(size)
    return NumericCDF(lattice, np.maximum.accumulate(np.clip(fa.evaluate(grid) + noise, 0.0, 1.0)))


def _random_pair(seed):
    """Two CDF tables on lattices (j + offset) * h with offset a whole or
    half number, as the oracle's n/2: equal or unequal steps, often with
    shared knots, and B near A."""
    rng = np.random.default_rng(seed)
    h_a = rng.uniform(0.05, 2.0)
    h_b = h_a * rng.choice([1.0, 2.0, 0.5, 1.5, rng.uniform(0.3, 3.0)])
    off_a, off_b = rng.integers(0, 9, size=2) / 2
    size_a = int(rng.integers(1, 80))
    values_a = np.sort(rng.random(size_a))
    values_a[rng.random(size_a) < 0.2] = 1.0
    fa = NumericCDF(Lattice(off_a, h_a), np.maximum.accumulate(values_a))
    if rng.random() < 0.2:
        # a run of A's own knots, so that every knot of B is shared
        start = int(rng.integers(0, size_a))
        lattice_b, size_b = Lattice(off_a + start, h_a), min(int(rng.integers(1, 80)), size_a - start)
    else:
        lattice_b, size_b = Lattice(off_b, h_b), int(rng.integers(1, 80))
    return fa, _near(fa, lattice_b, size_b, rng, [0.0, 1e-7, 1e-5, 0.1])


class TestCompareExactWithoutUnionGrid:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equals_union_grid_formula(self, seed):
        fa, fb = _random_pair(seed)
        max_pos, max_neg, crossings, points = _union_grid_comparison(fa, fb)
        v = st_compare_exact(fa, fb)
        # repr tells the signs of zero apart
        assert repr(v.max_pos_dev) == repr(max_pos)
        assert repr(v.max_neg_dev) == repr(max_neg)
        assert v.crossing_count == crossings
        assert v.meta["grid_points"] == points

    def test_shared_knots_counted_once(self):
        fa = NumericCDF(Lattice(1.0, 1.0), np.arange(1.0, 9.0) / 8)
        fb = NumericCDF(Lattice(3.0, 1.0), np.array([0.1, 0.9, 0.95, 1.0]))
        assert st_compare_exact(fa, fb).meta["grid_points"] == 8
        assert st_compare_exact(fb, fa).meta["grid_points"] == 8

    def test_oracle_tables(self):
        fa = convolve_weighted([EXP1] * 3, [2.0, 1.0, 1.0])
        fb = convolve_weighted([EXP1] * 3, [1.5, 1.5, 1.0])
        max_pos, max_neg, crossings, points = _union_grid_comparison(fa, fb)
        v = st_compare_exact(fa, fb)
        assert (v.max_pos_dev, v.max_neg_dev, v.crossing_count) == (max_pos, max_neg, crossings)
        assert v.meta["grid_points"] == points

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_swap_symmetry(self, seed):
        fa, fb = _random_pair(seed)
        v = st_compare_exact(fa, fb)
        w = st_compare_exact(fb, fa)
        swapped = {
            Relation.A_DOMINATES: Relation.B_DOMINATES,
            Relation.B_DOMINATES: Relation.A_DOMINATES,
        }
        assert w.relation is swapped.get(v.relation, v.relation)
        assert w.max_pos_dev == v.max_neg_dev
        assert w.max_neg_dev == v.max_pos_dev
        assert w.crossing_count == v.crossing_count

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_self_comparison_never_strict(self, seed):
        fa, _ = _random_pair(seed)
        copy = NumericCDF(fa.lattice, fa.values.copy())
        for other in (fa, copy):
            v = st_compare_exact(fa, other)
            assert v.relation not in (Relation.A_DOMINATES, Relation.B_DOMINATES)
            assert v.max_pos_dev == 0.0 and v.max_neg_dev == 0.0
            assert v.crossing_count == 0


def _exact_fields(fa, fb):
    v = st_compare_exact(fa, fb)
    # repr tells the signs of zero apart
    return (repr(v.max_pos_dev), repr(v.max_neg_dev), v.crossing_count,
            v.meta["grid_points"])


def _assert_chunks_agree(fa, fb, k):
    """With chunks of k knots, ``st_compare_exact`` gives bit for bit what
    it gives in one chunk, which is the union-grid formula. Returns the
    distinct knots of each chunk of ``_chunk_slices``."""
    assert max(len(fa.grid), len(fb.grid)) <= orders._CHUNK_KNOTS
    one_shot = _exact_fields(fa, fb)
    max_pos, max_neg, crossings, points = _union_grid_comparison(fa, fb)
    assert one_shot == (repr(max_pos), repr(max_neg), crossings, points)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orders, "_CHUNK_KNOTS", k)
        slices = list(orders._chunk_slices(fa, fb))
        assert _exact_fields(fa, fb) == one_shot
    # each chunk holds at most k knots of each grid, and the chunks tile
    # both grids
    assert all(len(fa.grid[sa]) <= k and len(fb.grid[sb]) <= k for sa, sb in slices)
    for grid, parts in ((fa.grid, [sa for sa, _ in slices]), (fb.grid, [sb for _, sb in slices])):
        assert np.concatenate([grid[p] for p in parts]).tobytes() == grid.tobytes()
    # both grids are cut at the same x, so the chunks' knots, each shared
    # knot once, are the union grid in increasing order
    chunks = [np.union1d(fa.grid[sa], fb.grid[sb]) for sa, sb in slices]
    assert all(1 <= len(c) <= 2 * k for c in chunks)
    assert np.concatenate(chunks).tobytes() == np.union1d(fa.grid, fb.grid).tobytes()
    return chunks


def _chunk_case(seed):
    """Two tables for the chunked comparison: one lattice 1-16 times as
    dense as the other (every knot of the sparser one is also a knot of the
    denser one: a power-of-two ratio keeps the knots' bits), partly shared,
    or on disjoint supports; with values of B near A's, so that F_A - F_B
    changes sign often."""
    rng = np.random.default_rng(seed)
    ratio = int(rng.choice([1, 2, 4, 8, 16]))
    h, offset = rng.uniform(0.05, 2.0), float(rng.choice([0.0, 0.5, 1.5]))
    size = int(rng.integers(1, 200))
    lattice_a, size_a = Lattice(offset / ratio, h * ratio), -(-size // ratio)
    layout = rng.choice(["nested", "offset", "disjoint"])
    if layout == "nested":
        lattice_b, size_b = Lattice(offset, h), size
    elif layout == "offset":
        start, every = int(rng.integers(0, size)), int(rng.choice([1, 2]))
        lattice_b, size_b = Lattice((offset + start) / every, h * every), -(-(size - start) // every)
    else:
        h_b = rng.uniform(0.05, 2.0)
        past = (size - 1 + offset) * h + rng.uniform(0.0, 3.0)
        lattice_b, size_b = Lattice(math.floor(past / h_b) + 1.0, h_b), int(rng.integers(1, 200))
    if rng.random() < 0.5:
        (lattice_a, size_a), (lattice_b, size_b) = (lattice_b, size_b), (lattice_a, size_a)
    fa = NumericCDF(lattice_a, np.maximum.accumulate(rng.random(size_a)))
    return fa, _near(fa, lattice_b, size_b, rng, [0.0, 1e-7, 1e-3, 0.1])


class TestChunkedComparison:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 9), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_chunks_agree_with_one_shot(self, seed, k, layouts):
        fa, fb = _chunk_case(seed) if layouts else _random_pair(seed)
        _assert_chunks_agree(fa, fb, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_shared_knots_on_cuts(self, k):
        # every cut is a knot of A, and every other knot of A is one of B
        fa = NumericCDF(Lattice(0.0, 1.0), np.arange(12.0) / 12)
        fb = NumericCDF(Lattice(0.0, 2.0), np.linspace(0.05, 0.95, 6))
        chunks = _assert_chunks_agree(fa, fb, k)
        assert sum(map(len, chunks)) == 12
        assert len(chunks) == -(-12 // k)

    @pytest.mark.parametrize("ratio", [4, 8, 16])
    def test_one_grid_denser(self, ratio):
        fa = NumericCDF(Lattice(0.0, 1.0), np.linspace(0.0, 1.0, 40))
        fb = NumericCDF(Lattice(0.0, 1.0 / ratio), np.linspace(0.0, 1.0, 40 * ratio) ** 1.5)
        for k in (1, 3, 5):
            _assert_chunks_agree(fa, fb, k)
            _assert_chunks_agree(fb, fa, k)

    def test_disjoint_supports(self):
        fa = NumericCDF(Lattice(0.0, 1.0), np.linspace(0.1, 1.0, 10))
        fb = NumericCDF(Lattice(20.0, 1.0), np.linspace(0.1, 1.0, 7))
        for k in (1, 2, 4):
            _assert_chunks_agree(fa, fb, k)
            _assert_chunks_agree(fb, fa, k)
        assert st_compare_exact(fa, fb).relation is Relation.B_DOMINATES

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_sign_changes_across_chunk_edges(self, k):
        # signs + - + + - with sub-tol runs between them: three crossings,
        # whichever chunks the significant knots and the runs fall in
        pattern = np.array([1, 0, 0, 0, -1, 0, 0, 0, 1, 1, 0, -1]) * 0.01
        base = np.linspace(0.1, 0.9, 12)
        fa = NumericCDF(Lattice(0.0, 1.0), base + pattern / 2)
        fb = NumericCDF(Lattice(0.0, 1.0), base - pattern / 2)
        _assert_chunks_agree(fa, fb, k)
        assert st_compare_exact(fa, fb).crossing_count == 3

    def test_oracle_sized_tables_stay_small(self):
        # two 2**20-knot tables: the one-shot union took 64 MB beside them
        n = 1 << 20
        fa = NumericCDF(Lattice(1.0, 1e-3), np.linspace(0.0, 1.0, n))
        fb = NumericCDF(Lattice(1.5, 1e-3), np.linspace(0.0, 1.0, n) ** 1.01)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            v = st_compare_exact(fa, fb)
            extra = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert v.meta["grid_points"] == 2 * n
        assert extra < 6 * 2**20


def _lattice_table(n, size, h, seed):
    """A table on the oracle's lattice, knot j at (j + n/2) * h, with
    random nondecreasing values, some of them in flat runs."""
    rng = np.random.default_rng(seed)
    values = np.sort(rng.random(size))
    values[rng.random(size) < 0.2] = 0.0
    return NumericCDF(Lattice(0.5 * n, h), np.maximum.accumulate(values))


def _probe_points(f, rng):
    """Every knot, the knots' neighbouring floats, the cell midpoints, both
    ends and beyond both ends, and random points across the table."""
    g = f.grid
    return np.concatenate([
        g, np.nextafter(g, -math.inf), np.nextafter(g, math.inf), (g[:-1] + g[1:]) / 2,
        [-math.inf, -1.0, 0.0, g[0] / 2, g[-1] * 2, 1e308, math.inf],
        rng.uniform(-g[0], 2 * g[-1], 40),
    ])


class TestLatticeTables:
    """The oracle's tables keep their knots as a ``Lattice`` and build them
    where they are read; every read equals numpy's on the whole ``grid``
    array, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_grid_equals_formula(self, n):
        d = GeneralizedGamma(1, 1.5, 1)
        f = convolve_weighted([d] * n, [4.0, 1.0, 2.5, 0.5][:n])
        size, h = len(f.values), f.meta["h"]
        assert f.lattice == Lattice(0.5 * n, h)
        assert size == f.meta["m"] + (n if n > 1 else 0)
        want = np.arange(0.5 * n, size + 0.5 * n) * h
        assert f.grid.tobytes() == want.tobytes()
        for s in (slice(3, 90, 7), slice(-5, None), slice(None, None, -3), slice(size, None)):
            assert f.knots(s).tobytes() == want[s].tobytes(), s
        assert [f._knot(k) for k in (0, 1, size - 1)] == [want[0], want[1], want[-1]]

    @pytest.mark.parametrize("h", [0.37, 1e-3, 2e-310, 1e305])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_evaluate_equals_interp_on_grid(self, n, h):
        rng = np.random.default_rng(n)
        f = _lattice_table(n, 60, h, seed=n)
        x = _probe_points(f, rng)
        rng.shuffle(x)
        want = _interp(f, x)
        assert f.evaluate(x).tobytes() == want.tobytes()
        # one point at a time, and runs of neighbouring points
        for i, xi in enumerate(x):
            got = f.evaluate(xi)
            assert np.ndim(got) == 0 and repr(float(got)) == repr(float(want[i])), xi
        order = np.argsort(x)
        for i in range(0, len(x), 7):
            pick = order[i : i + 7]
            assert f.evaluate(x[pick]).tobytes() == want[pick].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_count_below_equals_searchsorted(self, n):
        rng = np.random.default_rng(n)
        for h in (0.37, 2e-310):
            f = _lattice_table(n, 50, h, seed=n)
            for x in _probe_points(f, rng):
                assert f._count_below(x) == np.searchsorted(f.grid, x), x

    @given(st.integers(0, 2**31 - 1), st.integers(1, 9))
    @settings(max_examples=150, deadline=None)
    def test_compare_exact_equals_union_grid(self, seed, k):
        # independent random values, unlike _random_pair's B near A
        rng = np.random.default_rng(seed)
        h_a = rng.uniform(0.05, 2.0)
        h_b = h_a * rng.choice([1.0, 2.0, 0.5, 1.5, rng.uniform(0.3, 3.0)])
        n_a, n_b = (int(i) for i in rng.integers(1, 5, size=2))
        fa = _lattice_table(n_a, int(rng.integers(1, 80)), h_a, seed)
        fb = _lattice_table(n_b, int(rng.integers(1, 80)), h_b, seed + 1)
        _assert_chunks_agree(fa, fb, k)
        max_pos, max_neg, _, _ = _union_grid_comparison(fa, fb)
        relation = orders._relation_from_devs(max_pos, max_neg, DEFAULT_EXACT_TOL)
        assert st_compare_exact(fa, fb).relation is relation

    @pytest.mark.parametrize("n", [1, 2])
    def test_level_holds_one_array(self, n):
        # a 2**20-cell level keeps its values and no grid: one array as long
        # as the table
        m = 1 << 20
        pmf = np.full(m, 1.0 / m)
        masses = [pmf] + [np.ones(1)] * (n - 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            f = _level(masses, 20.0, m, 9)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        size = len(f.values)
        assert size == m + (n if n > 1 else 0)
        assert f.lattice == Lattice(0.5 * n, 20.0 / m)
        assert 8 * size <= held < 8 * size + 64 * 1024


class TestQuadratureCDF:
    def test_matches_closed_form(self):
        pts = np.linspace(0.1, 6.0, 30)
        np.testing.assert_allclose(quadrature_cdf(EXP1, pts), 1 - np.exp(-pts), atol=1e-8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad):
        # sorted last, a NaN point used to take the previous point's value
        with pytest.raises(ParameterError, match="must be finite"):
            quadrature_cdf(GammaPower(1, 1, 1), [0.5, bad])
