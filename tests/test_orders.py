import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    crossing_count,
    dkw_epsilon,
    ecdf,
    lr_compare,
    quadrature_cdf,
    st_compare_empirical,
    st_compare_exact,
)
from stochorder.harness import dist_from_spec
from stochorder.orders import (
    INITIAL_GRID,
    TAIL_TOL,
    _convolve_level,
    _edge_cdf_tables,
    _level_masses,
    _product_pmf,
)

GOLDEN_ORACLE = Path(__file__).with_name("golden_oracle.json")

EXP1 = GeneralizedGamma(1, 1, 1)


class TestNumericCDF:
    def test_validation(self):
        with pytest.raises(ParameterError):
            NumericCDF(np.array([1.0, 1.0]), np.array([0.1, 0.2]))
        with pytest.raises(ParameterError):
            NumericCDF(np.array([1.0, 2.0]), np.array([0.5, 0.1]))

    def test_step_evaluation(self):
        f = ecdf([1.0, 2.0, 3.0])
        assert f.evaluate(2.0) == pytest.approx(2 / 3)
        assert f.evaluate(0.5) == 0.0
        assert f.evaluate(10.0) == 1.0

    def test_linear_evaluation(self):
        f = NumericCDF(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert f.evaluate(0.25) == pytest.approx(0.25)

    def test_csv_export(self):
        f = NumericCDF(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        buf = io.StringIO()
        f.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "x,F"
        assert len(lines) == 3


class TestEcdf:
    def test_single_sample(self):
        f = ecdf([5.0])
        assert f.evaluate(4.999) == 0.0
        assert f.evaluate(5.0) == 1.0

    def test_ties_collapse_to_one_step(self):
        f = ecdf([3.0, 1.0, 3.0, 2.0, 1.0, 3.0])
        assert f.grid.tolist() == [1.0, 2.0, 3.0]
        assert f.values.tolist() == [2 / 6, 3 / 6, 6 / 6]

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            ecdf([])

    def test_infinite_samples_rejected(self):
        with pytest.raises(ParameterError):
            ecdf([1.0, math.inf, -math.inf])

    def test_exponential_cdf_value(self):
        n = 100_000
        f = ecdf(EXP1.sample(n, seed=2))
        band = dkw_epsilon(n, 0.001)
        assert abs(f.evaluate(1.0) - (1 - math.exp(-1))) <= band


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

    def test_band_formula(self):
        assert dkw_epsilon(100_000, 0.01) == pytest.approx(
            math.sqrt(math.log(200.0) / 200_000.0)
        )
        with pytest.raises(ParameterError):
            dkw_epsilon(100, 2.0)

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
        fa, fb = ecdf(x), ecdf(y)
        grid = np.union1d(fa.grid, fb.grid)
        d = fa.evaluate(grid) - fb.evaluate(grid)
        v = st_compare_empirical(x, y)
        # repr tells the signs of zero apart
        assert repr(v.max_pos_dev) == repr(float(np.max(d)))
        assert repr(v.max_neg_dev) == repr(float(np.max(-d)))


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
        with pytest.raises(NumericError):
            convolve_weighted([EXP1, EXP1], [1.0, 1.0], initial_grid=8,
                              max_levels=1, refine_tol=1e-12)

    def test_densityspec_without_cdf(self):
        # the oracle tabulates CDFs and truncates at a quantile, so a
        # component given only by its density is rejected on entry
        density_only = DensitySpec(
            pdf=lambda x: math.exp(-x), support=(0.0, 40.0), label="exponential"
        )
        no_ppf = DensitySpec(
            pdf=lambda x: math.exp(-x), support=(0.0, 40.0), label="exponential",
            cdf=lambda x: -np.expm1(-np.asarray(x)),
        )
        for spec in (density_only, no_ppf):
            with pytest.raises(ParameterError, match="cdf and a ppf"):
                convolve_weighted([EXP1, spec], [1.0, 1.0])

    def test_tail_tol_passed_through(self):
        f = convolve_weighted([EXP1, EXP1], [1.0, 1.0], tail_tol=1e-6)
        assert f.tail_tol == 2e-6
        assert f.meta["top"] == pytest.approx(2 * EXP1.ppf(1 - 1e-6))

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

    def test_from_dist_matches_dist(self):
        d = GeneralizedGamma(2, 1.5, 0.7)
        spec = DensitySpec.from_dist(d)
        f = convolve_weighted([d, d], [1.5, 0.5])
        g = convolve_weighted([spec, spec], [1.5, 0.5])
        assert np.array_equal(f.grid, g.grid)
        assert np.array_equal(f.values, g.values)


def _oracle_top(d, weights):
    return sum(w * d.ppf(1.0 - TAIL_TOL) for w in weights)


class TestOracleLevels:
    """The per-level tables and convolutions against a from-scratch build."""

    @pytest.mark.parametrize(
        "d",
        [GeneralizedGamma(0.8, 1.1, 1), GammaPower(-0.3, 4, 1), EXP1],
        ids=["gengamma-singular", "gammapower-negative", "exponential"],
    )
    def test_edge_tables_equal_fresh_cdf(self, d):
        weights = (100.0, 1.0)
        top = _oracle_top(d, weights)
        saturated = False
        for w in weights:
            tables = _edge_cdf_tables(d.cdf, w, top, INITIAL_GRID)
            m = INITIAL_GRID
            for _ in range(6):
                table = next(tables)
                fresh = d.cdf(np.linspace(0.0, top, m + 1) / w)
                carried = np.concatenate([table, np.ones(m + 1 - len(table))])
                assert np.array_equal(carried, fresh), (w, m)
                saturated = saturated or len(table) < m + 1
                m *= 2
        assert saturated

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_trimmed_fft_matches_full_length(self, n):
        d = GeneralizedGamma(0.8, 1.1, 1)
        weights = [100.0, 1.0, 7.0][:n]
        top = _oracle_top(d, weights)
        m = INITIAL_GRID
        masses = [next(_level_masses(d, w, top, m)) for w in weights]
        if n > 1:
            assert any(len(c) < m for c in masses)
        full = [np.concatenate([c, np.zeros(m - len(c))]) for c in masses]
        trimmed = _convolve_level(masses, top, m, TAIL_TOL, 1)
        untrimmed = _convolve_level(full, top, m, TAIL_TOL, 1)
        assert len(trimmed.grid) == (m if n == 1 else m + n)
        assert np.array_equal(trimmed.grid, untrimmed.grid)
        assert np.max(np.abs(trimmed.values - untrimmed.values)) <= 1e-14

    @pytest.mark.parametrize("m", [4096, 8192, 2**20])
    @pytest.mark.parametrize("top", [1.0, 13.37, 135.2087, 1e-3])
    def test_odd_edges_equal_linspace_slice(self, m, top):
        for k in (2, m // 4 + 1, m // 2 + 1):
            odd = np.arange(1, 2 * k - 1, 2) * (top / m)
            assert np.array_equal(odd, np.linspace(0.0, top, m + 1)[1 : 2 * k - 1 : 2])


def _random_masses(lengths, seed):
    rng = np.random.default_rng(seed)
    masses = []
    for n in lengths:
        c = rng.random(n) / n
        c[rng.random(n) < 0.2] = 0.0
        c[-1] = 1.0 / n  # cut after the last nonzero cell, as the oracle does
        masses.append(c)
    return masses


def _pairwise_pmf(masses, size):
    """The convolution of ``masses`` by direct sums, one pair at a time,
    each partial result cut to ``size``."""
    pmf = masses[0]
    for comp in masses[1:]:
        pmf = np.convolve(pmf, comp)[:size]
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
        m = 1024
        size = m + len(lengths) if len(lengths) > 1 else m
        masses = _random_masses(lengths, seed=sum(lengths))
        product = _product_pmf([c.copy() for c in masses], size)
        pairwise = _pairwise_pmf([c.copy() for c in masses], size)
        assert len(product) == len(pairwise) <= size
        assert np.all(product >= 0.0)
        assert np.max(np.abs(product - pairwise)) <= 1e-14

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
        got = _convolve_level(masses, top, m, TAIL_TOL, 3)
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
        assert crossing_count(fa, fb) == 1

    def test_shifted_pair_has_no_crossing(self):
        f = NumericCDF(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.5, 1.0]))
        g = NumericCDF(np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.5, 1.0]))
        assert crossing_count(g, f) == 0

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


def _union_grid_comparison(fa, fb, tol):
    """The comparison on the sorted union of the two grids: the reference
    for ``st_compare_exact`` and ``crossing_count``."""
    grid = np.union1d(fa.grid, fb.grid)
    d = fa.evaluate(grid) - fb.evaluate(grid)
    signs = np.sign(d[np.abs(d) > tol])
    crossings = int(np.count_nonzero(np.diff(signs) != 0)) if signs.size else 0
    return float(np.max(d)), float(np.max(-d)), crossings, len(grid)


def _random_pair(seed):
    """Two CDF tables on oracle-like grids (k + n/2) * h: linear or step,
    equal or unequal spacings, even or odd n, often with shared knots, and
    B near A so that many differences sit close to the tolerance."""
    rng = np.random.default_rng(seed)
    h_a = rng.uniform(0.05, 2.0)
    h_b = h_a * rng.choice([1.0, 2.0, 0.5, 1.5, rng.uniform(0.3, 3.0)])
    n_a, n_b = rng.integers(1, 5, size=2)
    grid_a = (np.arange(rng.integers(1, 80)) + 0.5 * n_a) * h_a
    if rng.random() < 0.2:
        # a run of A's own knots, so that every knot of B is shared
        start = rng.integers(0, len(grid_a))
        grid_b = grid_a[start : start + rng.integers(1, 80)].copy()
    else:
        grid_b = (np.arange(rng.integers(1, 80)) + 0.5 * n_b) * h_b
    kind_a, kind_b = rng.choice(["linear", "step"], size=2)
    values_a = np.sort(rng.random(len(grid_a)))
    values_a[rng.random(len(grid_a)) < 0.2] = 1.0
    values_a = np.maximum.accumulate(values_a)
    fa = NumericCDF(grid_a, values_a, kind=kind_a)
    noise = rng.choice([0.0, 1e-7, 1e-5, 0.1]) * rng.standard_normal(len(grid_b))
    values_b = np.maximum.accumulate(np.clip(fa.evaluate(grid_b) + noise, 0.0, 1.0))
    return fa, NumericCDF(grid_b, values_b, kind=kind_b)


class TestCompareExactWithoutUnionGrid:
    @given(st.integers(0, 2**31 - 1), st.sampled_from([1e-6, 1e-3, 0.05]))
    @settings(max_examples=300, deadline=None)
    def test_equals_union_grid_formula(self, seed, tol):
        fa, fb = _random_pair(seed)
        max_pos, max_neg, crossings, points = _union_grid_comparison(fa, fb, tol)
        v = st_compare_exact(fa, fb, tol)
        # repr tells the signs of zero apart
        assert repr(v.max_pos_dev) == repr(max_pos)
        assert repr(v.max_neg_dev) == repr(max_neg)
        assert v.crossing_count == crossings
        assert crossing_count(fa, fb, tol) == crossings
        assert v.meta["grid_points"] == points

    def test_shared_knots_counted_once(self):
        grid = np.arange(1.0, 9.0)
        fa = NumericCDF(grid, grid / 8)
        fb = NumericCDF(grid[2:6], np.array([0.1, 0.9, 0.95, 1.0]))
        assert st_compare_exact(fa, fb).meta["grid_points"] == 8
        assert st_compare_exact(fb, fa).meta["grid_points"] == 8

    def test_oracle_tables(self):
        fa = convolve_weighted([EXP1] * 3, [2.0, 1.0, 1.0])
        fb = convolve_weighted([EXP1] * 3, [1.5, 1.5, 1.0])
        max_pos, max_neg, crossings, points = _union_grid_comparison(fa, fb, 1e-6)
        v = st_compare_exact(fa, fb)
        assert (v.max_pos_dev, v.max_neg_dev, v.crossing_count) == (max_pos, max_neg, crossings)
        assert v.meta["grid_points"] == points

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_swap_symmetry(self, seed):
        fa, fb = _random_pair(seed)
        v = st_compare_exact(fa, fb)
        w = st_compare_exact(fb, fa)
        swapped = v.swapped()
        assert w.relation is swapped.relation
        assert w.max_pos_dev == swapped.max_pos_dev
        assert w.max_neg_dev == swapped.max_neg_dev
        assert w.crossing_count == v.crossing_count

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_self_comparison_never_strict(self, seed):
        fa, _ = _random_pair(seed)
        copy = NumericCDF(fa.grid.copy(), fa.values.copy(), kind=fa.kind)
        for other in (fa, copy):
            v = st_compare_exact(fa, other)
            assert v.relation not in (Relation.A_DOMINATES, Relation.B_DOMINATES)
            assert v.max_pos_dev == 0.0 and v.max_neg_dev == 0.0
            assert v.crossing_count == 0


class TestQuadratureCDF:
    def test_matches_closed_form(self):
        pts = np.linspace(0.1, 6.0, 30)
        f = quadrature_cdf(EXP1, pts)
        np.testing.assert_allclose(f.values, 1 - np.exp(-pts), atol=1e-8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, bad):
        # sorted last, a NaN point used to take the previous point's value
        with pytest.raises(ParameterError, match="must be finite"):
            quadrature_cdf(GammaPower(1, 1, 1), [0.5, bad])
