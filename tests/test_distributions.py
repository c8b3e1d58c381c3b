import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from stochorder import (
    DensitySpec,
    GammaPower,
    GeneralizedGamma,
    LogConcavity,
    LRVerdict,
    ParameterError,
    dkw_epsilon,
    ecdf,
    gamma_power_logconcave,
    log_concavity_classify,
    lr_compare,
    make_exp,
    make_power,
    transformed_density,
)

positive = st.floats(0.3, 4.0)
signed_power = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(0.1, 10.0)).map(
    lambda sm: sm[0] * sm[1]
)


def _second_difference(logpdf, y: float, rel: float) -> float:
    """Central second difference of ``logpdf`` at y, with step rel * y."""
    h = rel * y
    return float(logpdf(y + h) - 2 * logpdf(y) + logpdf(y - h)) / h**2


class TestDensity:
    def test_exponential_value(self):
        d = GeneralizedGamma(1, 1, 1)
        assert d.pdf(0.5) == pytest.approx(math.exp(-0.5))

    def test_weibull_value(self):
        d = GeneralizedGamma(2, 1, 1)
        assert d.pdf(1.0) == pytest.approx(2 * math.exp(-1))

    def test_normalization_by_quadrature(self):
        d = GeneralizedGamma(2, 3.7, 0.4)
        total, _ = integrate.quad(d.pdf, 1e-12, 50, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    @given(positive, positive, positive)
    @settings(max_examples=30, deadline=None)
    def test_pdf_matches_cdf_derivative(self, p, alpha, lam):
        d = GeneralizedGamma(p, alpha, lam)
        x = float(d.ppf(0.6))
        h = 1e-5 * x
        fd = (d.cdf(x + h) - d.cdf(x - h)) / (2 * h)
        assert d.pdf(x) == pytest.approx(fd, rel=1e-4)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            GeneralizedGamma(0, 1, 1)
        with pytest.raises(ParameterError):
            GammaPower(0, 1, 1)
        with pytest.raises(ParameterError):
            GammaPower(1, -1, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_non_finite_parameters_rejected(self, bad, field):
        """NaN passes a ``<= 0`` check, so finiteness is checked on its own."""
        params = [1.0, 1.0, 1.0]
        params[field] = bad
        for family, names in ((GammaPower, "r alpha lam"),
                              (GeneralizedGamma, "p alpha lam")):
            with pytest.raises(ParameterError, match=names.split()[field]):
                family(*params)

    @pytest.mark.parametrize("t, alpha", [(math.nan, 1.0), (0.5, math.nan),
                                          (math.inf, 1.0), (0.5, math.inf)])
    def test_non_finite_logconcave_rule_arguments_rejected(self, t, alpha):
        """NaN fails every comparison, so it would read as "not log-concave"."""
        with pytest.raises(ParameterError, match="must be finite"):
            gamma_power_logconcave(t, alpha)


class TestGammaPower:
    def test_negative_power_cdf_ppf_roundtrip(self):
        d = GammaPower(-0.5, 3.0, 1.2)
        for u in (0.1, 0.5, 0.9):
            assert d.cdf(d.ppf(u)) == pytest.approx(u, abs=1e-10)

    def test_mean_formula(self):
        # E[G^r] = Gamma(alpha + r) / Gamma(alpha) / lam^r
        d = GammaPower(0.5, 2.0, 1.0)
        assert d.mean() == pytest.approx(math.gamma(2.5) / math.gamma(2.0))

    def test_mean_infinite_when_moment_diverges(self):
        assert GammaPower(-2.0, 1.5, 1.0).mean() == math.inf

    def test_sample_mean_matches(self):
        d = GammaPower(-0.5, 4.0, 1.0)
        draws = d.sample(200_000, seed=1)
        assert np.mean(draws) == pytest.approx(d.mean(), rel=0.01)

    def test_gengamma_reduction(self):
        g = GeneralizedGamma(2.0, 1.5, 0.7)
        gp = g.as_gamma_power()
        assert gp.r == pytest.approx(0.5)
        x = 1.3
        assert g.pdf(x) == pytest.approx(gp.pdf(x))


class TestSampling:
    def test_gamma_mean(self):
        draws = GeneralizedGamma(1, 2, 1).sample(1_000_000, seed=3)
        assert np.mean(draws) == pytest.approx(2.0, abs=0.01)

    def test_determinism(self):
        d = GeneralizedGamma(2, 1.5, 0.7)
        np.testing.assert_array_equal(d.sample(100, seed=9), d.sample(100, seed=9))

    def test_ecdf_within_dkw_band_of_cdf(self):
        d = GeneralizedGamma(2, 1.5, 0.7)
        n, delta = 100_000, 1e-3
        draws = d.sample(n, seed=11)
        f = ecdf(draws)
        xs = np.linspace(float(d.ppf(0.001)), float(d.ppf(0.999)), 200)
        gap = np.max(np.abs(f.evaluate(xs) - d.cdf(xs)))
        assert gap <= dkw_epsilon(n, delta)

    def test_invalid_n(self):
        with pytest.raises(ParameterError):
            GeneralizedGamma(1, 1, 1).sample(0, seed=0)


class TestDensitySpec:
    def test_normalization_enforced(self):
        from stochorder import NumericError

        with pytest.raises(NumericError):
            DensitySpec(pdf=lambda x: 2 * math.exp(-x), support=(0.0, 40.0))

    def test_from_dist_carries_analytics(self):
        d = GeneralizedGamma(1, 2, 1)
        spec = DensitySpec.from_dist(d)
        assert spec.cdf is not None and spec.ppf is not None
        assert spec.mean_value == pytest.approx(2.0)


class TestLogConcavity:
    def test_power_p_with_large_shape(self):
        d = GeneralizedGamma(2.3, 2.0, 1.0)
        res = log_concavity_classify(d, ("power", 2.3))
        assert res.verdict is LogConcavity.LOG_CONCAVE

    def test_power_alpha_p_with_small_shape(self):
        d = GeneralizedGamma(2.0, 0.5, 1.0)
        res = log_concavity_classify(d, ("power", 0.5 * 2.0))
        assert res.verdict is LogConcavity.LOG_CONCAVE

    def test_gamma_small_shape_identity_refuted(self):
        d = GeneralizedGamma(1.0, 0.5, 1.0)
        res = log_concavity_classify(d, "identity")
        assert res.verdict is LogConcavity.NOT_LOG_CONCAVE
        assert res.witness is not None and res.witness > 0

    def test_log_always_log_concave(self):
        res = log_concavity_classify(GeneralizedGamma(3.0, 0.2, 2.0), "log")
        assert res.verdict is LogConcavity.LOG_CONCAVE

    def test_zero_power_rejected(self):
        with pytest.raises(ParameterError):
            log_concavity_classify(GeneralizedGamma(1, 1, 1), ("power", 0.0))

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_power_rejected(self, s):
        # only an overflowing product r * s may make t infinite
        with pytest.raises(ParameterError, match="finite"):
            log_concavity_classify(GeneralizedGamma(1, 1, 1), ("power", s))

    def test_analytic_rule(self):
        assert gamma_power_logconcave(1.0, 1.0)
        assert not gamma_power_logconcave(1.0, 0.99)
        assert gamma_power_logconcave(0.5, 0.5)
        assert not gamma_power_logconcave(1.2, 3.0)
        assert not gamma_power_logconcave(-0.5, 3.0)

    @given(
        st.booleans(),
        signed_power,
        st.floats(0.05, 50.0),
        st.floats(0.01, 100.0),
        st.one_of(
            st.sampled_from(["identity", "log"]),
            st.tuples(st.just("power"), signed_power.map(lambda s: s / 2)),
        ),
    )
    @settings(max_examples=200, deadline=None)
    # t = 10 * 0.05000000000000001 is one ulp above alpha = 0.5: not
    # log-concave for the float t, with a curvature no double resolves
    @example(True, -0.1, 0.5, 1.0, ("power", 0.05000000000000001))
    def test_closed_form_no_has_curvature_witness(self, gengamma, r, alpha, lam, variant):
        """Wherever the closed-form rule says no, the verdict is
        NOT_LOG_CONCAVE, and the log density curves upward at the witness."""
        d = GeneralizedGamma(abs(r), alpha, lam) if gengamma else GammaPower(r, alpha, lam)
        res = log_concavity_classify(d, variant)
        if variant == "log":
            assert res.verdict is LogConcavity.LOG_CONCAVE
            return
        t = d.as_gamma_power().r if gengamma else r
        if variant != "identity":
            t *= variant[1]
        if gamma_power_logconcave(t, alpha):
            assert res.verdict is LogConcavity.LOG_CONCAVE
            return
        assert res.verdict is LogConcavity.NOT_LOG_CONCAVE
        # near t = 1 the curvature at the witness is below the roundoff of a
        # second difference of logpdf, whose term lam*y**(1/t) is nearly linear
        if res.witness is not None and abs(1.0 / t - 1.0) > 1e-3:
            rel = 1e-4 * min(1.0, abs(t))
            assert _second_difference(GammaPower(t, alpha, lam).logpdf, res.witness, rel) > 0

    @pytest.mark.parametrize("d,variant,t", [
        # a 512-point scan found no witness here and answered UNKNOWN
        (GammaPower(-3.0, 0.9, 50.0), "identity", -3.0),
        # the scan's ppf range underflowed to 0 and geomspace raised
        (GammaPower(20.0, 1.5, 50.0), ("power", 10.0), 200.0),
    ])
    def test_former_scan_failures_refuted(self, d, variant, t):
        res = log_concavity_classify(d, variant)
        assert res.verdict is LogConcavity.NOT_LOG_CONCAVE
        assert _second_difference(GammaPower(t, d.alpha, d.lam).logpdf, res.witness, 1e-4) > 0

    @pytest.mark.parametrize("alpha", [0.5, 0.7, 0.9])
    def test_no_witness_at_roundoff_curvature(self, alpha):
        # t a few ulps above alpha: the verdict is exact for the float t, but
        # the curvature -a - c*u at any candidate is roundoff of a = alpha/t - 1
        for ulps in (1, 2, 3):
            t = alpha
            for _ in range(ulps):
                t = math.nextafter(t, math.inf)
            res = log_concavity_classify(GammaPower(t, alpha, 1.0))
            assert res.verdict is LogConcavity.NOT_LOG_CONCAVE
            assert res.witness is None
        # well away from alpha the witness stays, and its curvature shows
        res = log_concavity_classify(GammaPower(alpha * 1.01, alpha, 1.0))
        assert res.witness is not None

    def test_power_past_float_range_refuted(self):
        # t = 1e300 * 1e300 overflows; G**t is still not log-concave, and at
        # y = 1 its curvature -a - c = 1 - alpha/t + lam*b*(1 - b) is positive
        res = log_concavity_classify(GammaPower(1e300, 1.0, 1.0), ("power", 1e300))
        assert res.verdict is LogConcavity.NOT_LOG_CONCAVE
        assert res.witness == 1.0

    @given(st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.floats(0.5, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_analytic_yes_never_refuted_numerically(self, t, alpha, lam):
        """Second differences of the log density agree with the closed-form
        classification whenever it says log-concave."""
        if not gamma_power_logconcave(t, alpha):
            return
        d = GammaPower(t, alpha, lam)
        xs = np.geomspace(float(d.ppf(5e-4)), float(d.ppf(1 - 5e-4)), 256)
        h = d.logpdf(xs)
        dd = np.diff(h, 2)
        assert np.max(dd) <= 1e-7


class TestLRCompare:
    def test_rate_pair(self):
        d1 = GeneralizedGamma(2, 1.5, 1.0)
        d2 = GeneralizedGamma(2, 1.5, 2.0)
        assert lr_compare(d1, d2).verdict is LRVerdict.D1_LR_GREATER
        assert lr_compare(d2, d1).verdict is LRVerdict.D2_LR_GREATER

    def test_shape_pair(self):
        d1 = GeneralizedGamma(2, 3.0, 1.0)
        d2 = GeneralizedGamma(2, 2.0, 1.0)
        assert lr_compare(d1, d2).verdict is LRVerdict.D1_LR_GREATER

    def test_tie_break_on_equal_distributions(self):
        d = GeneralizedGamma(1, 2, 1)
        assert lr_compare(d, d).verdict is LRVerdict.D1_LR_GREATER

    def test_opposing_parameters_not_ordered(self):
        d1 = GeneralizedGamma(1, 3.0, 2.0)   # larger shape but larger rate
        d2 = GeneralizedGamma(1, 2.0, 1.0)
        res = lr_compare(d1, d2)
        assert res.verdict is LRVerdict.NOT_ORDERED
        assert res.witness is not None

    def test_negative_power_flips_direction(self):
        d1 = GammaPower(-0.5, 2.0, 1.0)
        d2 = GammaPower(-0.5, 3.0, 1.0)
        # larger shape makes G bigger, so G^(-1/2) smaller
        assert lr_compare(d1, d2).verdict is LRVerdict.D1_LR_GREATER

    def test_cross_power_grid_fallback(self):
        d1 = GeneralizedGamma(1.0, 1.0, 1.0)
        d2 = GeneralizedGamma(2.0, 1.0, 1.0)
        res = lr_compare(d1, d2)
        # exponential vs Rayleigh-type: the log ratio x - x^2 rises then falls
        assert res.verdict in (LRVerdict.NOT_ORDERED, LRVerdict.UNKNOWN)

    def test_lr_implies_st_empirically(self):
        d1 = GeneralizedGamma(1.5, 3.0, 1.0)
        d2 = GeneralizedGamma(1.5, 2.0, 1.0)
        assert lr_compare(d1, d2).verdict is LRVerdict.D1_LR_GREATER
        n = 50_000
        band = 2 * dkw_epsilon(n, 0.01)
        xs = np.linspace(0.1, 4.0, 100)
        fa = ecdf(d1.sample(n, seed=5))
        fb = ecdf(d2.sample(n, seed=6))
        # F_{d1} must not exceed F_{d2} beyond the joint band anywhere
        assert np.max(fa.evaluate(xs) - fb.evaluate(xs)) <= band


class TestTransformedDensity:
    def test_log_of_exponential(self):
        d = GeneralizedGamma(1, 1, 1)
        spec = transformed_density(d, make_exp())
        # density of log X is exp(x - e^x)
        assert spec.pdf(0.0) == pytest.approx(math.exp(-1.0))
        assert spec.pdf(-1.0) == pytest.approx(math.exp(-1 - math.exp(-1)))

    def test_identity_power(self):
        d = GeneralizedGamma(2, 1.5, 0.7)
        spec = transformed_density(d, make_power(1.0))
        assert spec.pdf(1.1) == pytest.approx(float(d.pdf(1.1)), rel=1e-9)

    def test_weibull_square_is_exponential(self):
        d = GeneralizedGamma(2, 1, 1)
        spec = transformed_density(d, make_power(0.5))
        for x in (0.3, 1.0, 2.5):
            assert spec.pdf(x) == pytest.approx(math.exp(-x), rel=1e-9)
