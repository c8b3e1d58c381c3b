import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import (
    DensitySpec,
    GammaPower,
    GeneralizedGamma,
    NumericCDF,
    NumericError,
    ParameterError,
    Relation,
    convolve_weighted,
    crossing_count,
    dkw_epsilon,
    ecdf,
    quadrature_cdf,
    st_compare_empirical,
    st_compare_exact,
)
from stochorder.orders import (
    INITIAL_GRID,
    TAIL_TOL,
    _convolve_level,
    _edge_cdf_tables,
    _level_masses,
)

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
        spec = DensitySpec(
            pdf=lambda x: math.exp(-x),
            support=(0.0, 40.0),
            label="exponential",
        )
        f = convolve_weighted([spec], [1.0])
        assert f.evaluate(1.0) == pytest.approx(1 - math.exp(-1), abs=1e-5)

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


class TestQuadratureCDF:
    def test_matches_closed_form(self):
        pts = np.linspace(0.1, 6.0, 30)
        f = quadrature_cdf(EXP1, pts)
        np.testing.assert_allclose(f.values, 1 - np.exp(-pts), atol=1e-8)
