import math
from collections import Counter

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
    LRResult,
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

    def test_cdf_rejects_nan_scalar(self):
        # a NaN x is no point below the support
        with pytest.raises(ParameterError, match="NaN"):
            GammaPower(1.0, 1.0, 1.0).cdf(math.nan)

    def test_cdf_rejects_nan_in_array(self):
        d = GammaPower(-0.5, 3.0, 1.2)
        with pytest.raises(ParameterError, match="NaN"):
            d.cdf(np.array([-1.0, 0.0, 0.5, math.nan, 2.0]))
        np.testing.assert_array_equal(
            d.cdf(np.array([-1.0, 0.0])), [0.0, 0.0]
        )

    @pytest.mark.parametrize("method", ["pdf", "logpdf", "ppf"])
    @pytest.mark.parametrize(
        "d", [GammaPower(1.0, 1.0, 1.0), GammaPower(-0.5, 3.0, 1.2), GeneralizedGamma(2.0, 1.5, 0.7)]
    )
    def test_nan_rejected(self, d, method):
        # no silent 0.0, -inf or NaN, as cdf; GeneralizedGamma delegates
        f = getattr(d, method)
        with pytest.raises(ParameterError, match="NaN"):
            f(math.nan)
        with pytest.raises(ParameterError, match="NaN"):
            f(np.array([0.25, math.nan, 0.5]))
        assert np.all(np.isfinite(f(np.array([0.25, 0.5]))))

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
        assert res.verdict is LRVerdict.NOT_ORDERED

    def test_cross_power_pairs_are_decided(self):
        # x (log f1/f2)' = 1 - x + 2 x**2 has its minimum 7/8 at x = 1/4
        d1, d2 = GeneralizedGamma(1, 3, 1), GeneralizedGamma(2, 1, 1)
        assert lr_compare(d1, d2) == LRResult(
            LRVerdict.D1_LR_GREATER, detail="analytic gamma-power rule", basis="analytic"
        )
        assert lr_compare(d2, d1).verdict is LRVerdict.D2_LR_GREATER
        # -1 - 100 x + 0.02 x**2 is least at x = 2500; the central masses
        # of these two do not overlap
        res = lr_compare(GeneralizedGamma(1, 1, 100), GeneralizedGamma(2, 1, 0.01))
        assert res.verdict is LRVerdict.NOT_ORDERED
        assert res.witness == pytest.approx((2500.0, 2500.0), rel=1e-12)

    def test_witness_outside_the_floats_is_none(self):
        # powers 1 and 1 + 1e-9 put log x* near -7e8
        res = lr_compare(GammaPower(1.0, 1.0, 2.0), GammaPower(1.0 + 1e-9, 1.0, 1.0))
        assert res.verdict is LRVerdict.NOT_ORDERED
        assert res.witness is None

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


_EPS = float(np.finfo(float).eps)


def _cross_power_panel(n: int, seed: int) -> list[tuple[GammaPower, GammaPower]]:
    """Pairs of different powers: |r| log-uniform on [1/4, 4] with either
    sign, alpha log-uniform on [1/4, 4] and lam on [1/10, 10]."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < n:
        r = rng.choice([-1.0, 1.0], 2) * np.exp(rng.uniform(-math.log(4), math.log(4), 2))
        alpha = np.exp(rng.uniform(-math.log(4), math.log(4), 2))
        lam = np.exp(rng.uniform(-math.log(10), math.log(10), 2))
        if r[0] != r[1]:
            pairs.append(tuple(GammaPower(*map(float, p)) for p in zip(r, alpha, lam)))
    return pairs


def _log_xstar(d1: GammaPower, d2: GammaPower) -> float:
    """log x*, where x*^(b2-b1) = l1 b1**2 / (l2 b2**2) with b = 1/r."""
    b1, b2 = 1.0 / d1.r, 1.0 / d2.r
    return (math.log(d1.lam * b1**2) - math.log(d2.lam * b2**2)) / (b2 - b1)


def _slope(d1: GammaPower, d2: GammaPower, x: float) -> tuple[float, float]:
    """x (log f1/f2)'(x) = A - l1 b1 x**b1 + l2 b2 x**b2, summed directly,
    and a bound on its rounding."""
    b1, b2 = 1.0 / d1.r, 1.0 / d2.r
    terms = (d1.alpha * b1 - d2.alpha * b2, -d1.lam * b1 * x**b1, d2.lam * b2 * x**b2)
    return sum(terms), 16 * _EPS * sum(map(abs, terms))


def _logpdf_with_error(d: GammaPower, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``d.logpdf(x)`` and a bound on its rounding: some ulps of its terms."""
    with np.errstate(over="ignore"):
        size = (
            abs(d.alpha * math.log(d.lam)) + abs(math.lgamma(d.alpha)) + abs(math.log(abs(d.r)))
            + np.abs((d.alpha / d.r - 1.0) * np.log(x)) + d.lam * x ** (1.0 / d.r)
        )
    return d.logpdf(x), 64 * _EPS * size


def _scan_rises_falls(d1: GammaPower, d2: GammaPower, log_xstar: float) -> tuple[bool, bool]:
    """Whether ``logpdf(x, d1) - logpdf(x, d2)`` rises, and whether it falls,
    past rounding between neighbours of a log grid around x*."""
    span = 10.0 * max(abs(d1.r), abs(d2.r))  # x**b moves by e**10 or more
    x = np.exp(np.clip(log_xstar + np.linspace(-span, span, 4001), -700.0, 700.0))
    (l1, e1), (l2, e2) = _logpdf_with_error(d1, x), _logpdf_with_error(d2, x)
    ok = np.isfinite(l1) & np.isfinite(l2) & np.isfinite(e1 + e2)
    h, err = (l1 - l2)[ok], (e1 + e2)[ok]
    diffs, tol = np.diff(h), err[1:] + err[:-1]
    return bool((diffs > tol).any()), bool((diffs < -tol).any())


def _former_grid_verdict(d1: GammaPower, d2: GammaPower) -> str:
    """The 256-point grid scan that took pairs of different powers before the
    closed form did: "not_ordered" where the log density ratio both rose and
    fell past 1e-9 over the overlap of the central 0.999 masses, "unknown"
    otherwise, "no overlap" where the masses did not meet."""
    bounds = [sorted(float(d.ppf(u)) for u in (5e-4, 1 - 5e-4)) for d in (d1, d2)]
    lo, hi = max(bounds[0][0], bounds[1][0]), min(bounds[0][1], bounds[1][1])
    if not lo < hi:
        return "no overlap"
    xs = np.geomspace(lo, hi, 256)
    f1, f2 = d1.pdf(xs), d2.pdf(xs)
    ok = (f1 > 0) & (f2 > 0)
    if ok.sum() < 3:
        return "unknown"
    diffs = np.diff(np.log(f1[ok]) - np.log(f2[ok]))
    return "not_ordered" if (diffs > 1e-9).any() and (diffs < -1e-9).any() else "unknown"


class TestLRCrossPower:
    """The closed-form rule for powers r1 != r2, against a sign scan of the
    log density ratio on a seeded panel."""

    PANEL = _cross_power_panel(3000, seed=20)

    def test_rule_agrees_with_the_slope_scan(self):
        counts = Counter()
        for d1, d2 in self.PANEL:
            res = lr_compare(d1, d2)
            assert res.basis == "analytic"
            log_xstar = _log_xstar(d1, d2)
            counts[res.verdict] += 1
            if not -700.0 < log_xstar < 700.0:
                # x* outside the floats: no witness, and nothing to scan
                counts["x* outside floats"] += 1
                if res.verdict is LRVerdict.NOT_ORDERED:
                    assert res.witness is None
                continue
            rises, falls = _scan_rises_falls(d1, d2, log_xstar)
            if rises and falls:
                counts["scan sees both"] += 1
                assert res.verdict is LRVerdict.NOT_ORDERED, (d1, d2)
            if res.verdict is LRVerdict.D1_LR_GREATER:
                assert not falls, (d1, d2)
            elif res.verdict is LRVerdict.D2_LR_GREATER:
                assert not rises, (d1, d2)
            else:
                assert res.verdict is LRVerdict.NOT_ORDERED
                w, _ = res.witness
                assert w == pytest.approx(math.exp(log_xstar), rel=1e-9)
                # the slope's extreme breaks the order that its far side keeps:
                # a minimum (b2 > b1) is negative, a maximum positive
                slope, err = _slope(d1, d2, w)
                if 1.0 / d2.r > 1.0 / d1.r:
                    assert slope < err, (d1, d2)
                else:
                    assert slope > -err, (d1, d2)
        assert min(counts[v] for v in (LRVerdict.D1_LR_GREATER, LRVerdict.D2_LR_GREATER)) > 100
        assert counts["scan sees both"] > 0.9 * counts[LRVerdict.NOT_ORDERED]
        assert counts["x* outside floats"] < 0.05 * len(self.PANEL)

    def test_every_grid_refutation_stands(self):
        # the grid could refute an order but never certify one; every pair it
        # refuted is still NOT_ORDERED, and every pair is now decided
        counts = Counter()
        for d1, d2 in self.PANEL:
            grid, verdict = _former_grid_verdict(d1, d2), lr_compare(d1, d2).verdict
            counts[grid, verdict.value] += 1
            if grid == "not_ordered":
                assert verdict is LRVerdict.NOT_ORDERED, (d1, d2)
        assert counts["not_ordered", "not_ordered"] > 1000


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
