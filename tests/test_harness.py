import json
from pathlib import Path

import numpy as np
import pytest

from stochorder import (
    CheckStatus,
    ConditionVariant,
    DensitySpec,
    DomainError,
    GammaPower,
    GeneralizedGamma,
    MajorizationMode,
    OrderError,
    ParameterError,
    PreservationCase,
    Relation,
    Scenario,
    SuiteConfig,
    check_hypotheses,
    check_transform_preservation,
    generate_scenario,
    make_exp,
    make_log_shift,
    make_power,
    pairwise_exchange_check,
    run_counterexample,
    run_suite,
    verify_iid_theorem,
    verify_noniid_theorem,
)
from stochorder import harness
from stochorder.harness import (
    _check_log_concavity,
    _dist_to_spec,
    dist_from_spec,
    transform_from_spec,
)

CONVEX = ConditionVariant.CONVEX_CASE
CONCAVE = ConditionVariant.CONCAVE_CASE
EXP1 = GeneralizedGamma(1, 1, 1)


def exp_scenario(a, b, mode=MajorizationMode.FULL, n=None, **kw):
    n = n if n is not None else len(a)
    phi = make_exp()
    return Scenario(
        dists=(EXP1,) * n, phi=phi, psi=phi, variant=CONVEX,
        a=a, b=b, premise_mode=mode, **kw,
    )


class TestScenario:
    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            exp_scenario([1, 2], [1, 2, 3], n=2)

    def test_sample_and_delta_validation(self):
        with pytest.raises(ParameterError):
            exp_scenario([1, 2], [1, 2], n_samples=10)
        with pytest.raises(ParameterError):
            exp_scenario([1, 2], [1, 2], delta=1.5)

    def test_roundtrip_through_dict(self):
        s = Scenario(
            dists=(GammaPower(-0.25, 4.0, 1.0),) * 2,
            phi=make_power(1.25),
            psi=make_power(-0.25),
            variant=CONVEX,
            a=(2.0, 1.0),
            b=(1.5, 1.5),
            premise_mode=MajorizationMode.WEAK_SUB,
            seed=7,
            label="roundtrip",
        )
        t = Scenario.from_dict(s.to_dict())
        assert t.to_dict() == s.to_dict()
        assert t.dists == s.dists

    def test_missing_field_rejected(self):
        with pytest.raises(ParameterError):
            Scenario.from_dict({"dists": []})

    def test_is_iid(self):
        assert exp_scenario([1, 2], [1.5, 1.5]).is_iid
        s = Scenario(
            dists=(EXP1, GeneralizedGamma(1, 1, 2)),
            phi=make_exp(), psi=make_exp(), variant=CONVEX,
            a=(1, 2), b=(1.5, 1.5),
        )
        assert not s.is_iid


class TestCheckHypotheses:
    def test_all_pass_on_conjugate_power_pair(self):
        s = Scenario(
            dists=(GeneralizedGamma(2, 1, 1),) * 2,
            phi=make_power(0.5), psi=make_power(0.5), variant=CONCAVE,
            # transformed coordinates (16, 1) majorize (9, 8)
            a=(4.0, 1.0), b=(3.0, 8.0**0.5),
        )
        hyp = check_hypotheses(s)
        assert hyp.all_pass, hyp.first_not_passing()

    def test_equal_weight_vectors_pass_premise(self):
        hyp = check_hypotheses(exp_scenario([1.0, 2.0], [2.0, 1.0]))
        assert hyp.majorization_ok.status is CheckStatus.PASS

    def test_zero_weight_outside_exp_range(self):
        with pytest.raises(DomainError):
            check_hypotheses(exp_scenario([1.0, 0.0], [0.5, 0.5]))

    def test_premise_failure_detected(self):
        # phi = exp: premise compares log-weights, and (log 3, log 1) is not
        # majorized by (log 2, log 2)
        hyp = check_hypotheses(exp_scenario([2.0, 2.0], [3.0, 1.0]))
        assert hyp.majorization_ok.status is CheckStatus.FAIL

    def test_unlicensed_weak_mode_fails(self):
        # convex case with increasing phi licenses the top-sum order only
        hyp = check_hypotheses(
            exp_scenario([3.0, 1.0], [2.0, 2.0], mode=MajorizationMode.WEAK_SUP)
        )
        assert hyp.majorization_ok.status is CheckStatus.FAIL
        assert "not licensed" in hyp.majorization_ok.detail

    def test_licensed_weak_mode_passes(self):
        hyp = check_hypotheses(
            exp_scenario([3.0, 1.0], [1.5, 1.5], mode=MajorizationMode.WEAK_SUB)
        )
        assert hyp.majorization_ok.status is CheckStatus.PASS

    def test_condition_failure_reported(self):
        s = Scenario(
            dists=(GeneralizedGamma(3, 2, 1),) * 2,
            phi=make_power(1 / 3), psi=make_power(1 / 3), variant=CONVEX,
            a=(8.0, 1.0), b=(4.0, 4.0),
        )
        hyp = check_hypotheses(s)
        assert hyp.conditions_ok.status is CheckStatus.FAIL

    def test_logconcavity_failure_reported(self):
        # X^2 with X gamma(alpha=0.5) is not log-concave
        s = Scenario(
            dists=(GeneralizedGamma(0.5, 0.5, 1.0),) * 2,
            phi=make_power(2.0), psi=make_power(2.0), variant=CONVEX,
            a=(4.0, 1.0), b=(2.0, 2.0),
        )
        hyp = check_hypotheses(s)
        assert hyp.logconcavity_ok.status is CheckStatus.FAIL

    def test_lr_chain_failure_reported(self):
        s = Scenario(
            dists=(GeneralizedGamma(1, 1, 2), GeneralizedGamma(1, 1, 1)),
            phi=make_exp(), psi=make_exp(), variant=CONVEX,
            a=(1.0, 2.0), b=(1.5, 1.5),
        )
        hyp = check_hypotheses(s)
        assert hyp.lr_chain_ok.status is CheckStatus.FAIL


class TestVerifyIID:
    def test_exponential_instance_dominates(self):
        s = exp_scenario([4.0, 1.0], [2.0, 2.0], seed=5)
        rep = verify_iid_theorem(s)
        assert rep.predicted == "a"
        assert rep.consistent
        assert rep.oracle_verdict is not None
        assert rep.oracle_verdict.relation is Relation.A_DOMINATES

    def test_equal_vectors_inconclusive_but_consistent(self):
        rep = verify_iid_theorem(exp_scenario([1.0, 2.0], [2.0, 1.0]))
        assert rep.oracle_verdict.relation is Relation.INCONCLUSIVE
        assert rep.consistent

    def test_concave_instance_reverses_direction(self):
        s = Scenario(
            dists=(GeneralizedGamma(2, 1, 1),) * 2,
            phi=make_power(0.5), psi=make_power(0.5), variant=CONCAVE,
            a=(4.0, 1.0), b=(3.0, 8.0**0.5), seed=11,
        )
        rep = verify_iid_theorem(s)
        assert rep.predicted == "b"
        assert rep.consistent
        assert rep.oracle_verdict.relation is Relation.B_DOMINATES

    def test_hypothesis_gate(self):
        with pytest.raises(OrderError):
            verify_iid_theorem(exp_scenario([2.0, 2.0], [3.0, 1.0]))

    def test_rejects_mixed_dists(self):
        s = Scenario(
            dists=(EXP1, GeneralizedGamma(1, 1, 2)),
            phi=make_exp(), psi=make_exp(), variant=CONVEX,
            a=(4.0, 1.0), b=(2.0, 2.0),
        )
        with pytest.raises(ParameterError):
            verify_iid_theorem(s)


class TestVerifyNonIID:
    def test_identical_dists_match_iid_result(self):
        s = exp_scenario([4.0, 1.0], [2.0, 2.0], seed=5)
        rep_iid = verify_iid_theorem(s)
        rep_non = verify_noniid_theorem(s)
        assert rep_non.consistent == rep_iid.consistent
        assert rep_non.oracle_verdict.relation is rep_iid.oracle_verdict.relation

    def test_rate_chain_convex_case(self):
        dists = tuple(GeneralizedGamma(1, 1, lam) for lam in (1.0, 2.0, 3.0))
        s = Scenario(
            dists=dists, phi=make_exp(), psi=make_exp(), variant=CONVEX,
            a=(8.0, 2.0, 1.0), b=(4.0, 4.0, 1.0), seed=9,
        )
        rep = verify_noniid_theorem(s)
        assert rep.hypothesis.lr_chain_ok.status is CheckStatus.PASS
        assert rep.consistent
        assert rep.oracle_verdict.relation in (
            Relation.A_DOMINATES, Relation.INCONCLUSIVE
        )


class TestPairwiseExchange:
    def test_equal_distributions(self):
        assert pairwise_exchange_check(EXP1, EXP1, (1.0, 3.0), make_exp())

    def test_equal_coefficients(self):
        d2 = GeneralizedGamma(1, 1, 2)
        assert pairwise_exchange_check(EXP1, d2, (2.0, 2.0), make_exp())

    def test_decreasing_transform(self):
        d1 = GeneralizedGamma(1, 2, 1)
        d2 = GeneralizedGamma(1, 1, 1)
        assert pairwise_exchange_check(d1, d2, (1.0, 4.0), make_power(-0.5))

    def test_lr_premise_required(self):
        d1 = GeneralizedGamma(1, 1, 2)  # smaller in lr order
        d2 = GeneralizedGamma(1, 1, 1)
        with pytest.raises(OrderError):
            pairwise_exchange_check(d1, d2, (1.0, 2.0), make_exp())

    def test_two_coefficients_required(self):
        with pytest.raises(ParameterError):
            pairwise_exchange_check(EXP1, EXP1, (1.0, 2.0, 3.0), make_exp())


class TestCounterexample:
    def test_unique_crossing(self):
        rep = run_counterexample(1.0, (2.0, 1.0, 1.0), (1.5, 1.5, 1.0))
        assert rep.consistent
        assert rep.verdict.relation is Relation.CROSSING
        assert rep.verdict.crossing_count == 1
        assert rep.verdict.meta["mean_gap"] < 1e-8

    def test_precondition_alpha(self):
        with pytest.raises(ParameterError):
            run_counterexample(0.5, (2.0, 1.0, 1.0), (1.5, 1.5, 1.0))

    def test_precondition_majorization(self):
        with pytest.raises(ParameterError):
            run_counterexample(1.0, (1.5, 1.5, 1.0), (2.0, 1.0, 1.0))

    def test_precondition_two_component_difference(self):
        with pytest.raises(ParameterError):
            run_counterexample(1.0, (4.0, 2.0, 1.0, 1.0), (2.0, 2.0, 2.0, 2.0))
        with pytest.raises(ParameterError):
            run_counterexample(1.0, (2.0, 1.0, 1.0), (2.0, 1.0, 1.0))

    def test_short_vectors_rejected(self):
        with pytest.raises(ParameterError):
            run_counterexample(1.0, (2.0, 1.0), (1.5, 1.5))


class TestLogReduction:
    def test_log_reduction_flips_weak_order(self):
        # g(x) = log(x) / q with q < 0 is decreasing and convex, so a
        # bottom-sum premise on the original coordinates becomes a top-sum
        # conclusion on the transformed ones
        q = -2.0
        assert check_transform_preservation(
            lambda t: np.log(t) / q, [2.0, 2.0], [1.0, 3.0],
            PreservationCase.D_CONVEX,
        )


class TestSuite:
    def test_generate_scenario_deterministic(self):
        seq = np.random.SeedSequence(123)
        s1 = generate_scenario("power_a3", seq)
        s2 = generate_scenario("power_a3", np.random.SeedSequence(123))
        assert s1.to_dict() == s2.to_dict()

    def test_unknown_preset(self):
        with pytest.raises(ParameterError):
            generate_scenario("nope", np.random.SeedSequence(1))

    def test_generated_scenarios_pass_hypotheses(self):
        root = np.random.SeedSequence(7)
        for preset in SuiteConfig().presets:
            s = generate_scenario(preset, root.spawn(1)[0])
            hyp = check_hypotheses(s)
            assert hyp.all_pass, (preset, hyp.first_not_passing())

    def test_small_suite_consistent(self):
        cfg = SuiteConfig(n_scenarios=9, master_seed=3, n_samples=20_000)
        report = run_suite(cfg)
        assert report.n_inconsistent == 0
        assert report.n_failed_hypotheses == 0
        assert report.n_run + report.n_skipped_unknown == 9

    def test_suite_deterministic(self):
        cfg = SuiteConfig(n_scenarios=4, master_seed=5, n_samples=5_000)
        assert run_suite(cfg).to_dict() == run_suite(cfg).to_dict()

    def test_direction_coherence(self):
        """Oracle verdicts never point against the predicted side."""
        cfg = SuiteConfig(n_scenarios=18, master_seed=11, n_samples=5_000)
        report = run_suite(cfg)
        for rec in report.records:
            if rec["status"] not in ("consistent", "inconsistent"):
                continue
            oracle = rec["report"]["oracle_verdict"]
            if oracle is None:
                continue
            predicted = rec["report"]["predicted"]
            bad = "b_dominates" if predicted == "a" else "a_dominates"
            assert oracle["relation"] != bad, rec["preset"]


GOLDEN = Path(__file__).with_name("golden_scenarios.json")


def _assert_same(got, want, where="scenario"):
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), where
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{where}[{k}]")
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for k in want:
            _assert_same(got[k], want[k], f"{where}.{k}")
    else:
        assert type(got) is type(want) and got == want, where


class TestGoldenScenarios:
    """Every preset draws the same scenario from the same seed as the nine
    hand-written generators it replaced (fixture: nine presets x seeds 1, 42
    and 2024)."""

    @pytest.mark.parametrize("preset", SuiteConfig().presets)
    def test_preset_matches_fixture(self, preset):
        golden = json.loads(GOLDEN.read_text())[preset]
        for seed, want in golden.items():
            s = generate_scenario(preset, np.random.SeedSequence(int(seed)))
            # through JSON so that tuples compare as the fixture's lists
            _assert_same(json.loads(json.dumps(s.to_dict())), want, f"{preset}@{seed}")

    def test_fixture_covers_every_preset(self):
        assert sorted(json.loads(GOLDEN.read_text())) == sorted(SuiteConfig().presets)


class TestLogConcavityFallback:
    """The generic second-difference scan used for components without an
    analytic rule."""

    def test_fallback_refutes_small_shape(self):
        spec = DensitySpec.from_dist(GeneralizedGamma(0.5, 0.5, 1))
        check = _check_log_concavity([spec], make_power(1.0))
        assert check.status is CheckStatus.FAIL
        assert check.witness == (pytest.approx(1.26538433930064, rel=1e-12),)
        assert check.detail == "log-density curvature 1.81 > 0"

    def test_fallback_cannot_certify(self):
        spec = DensitySpec.from_dist(GeneralizedGamma(1, 2, 1))
        check = _check_log_concavity([spec], make_power(1.0))
        assert check.status is CheckStatus.UNKNOWN

    def test_fallback_failure_is_unknown_not_raised(self):
        # psi^-1(X) = exp(X) - e has almost no mass inside the quantile
        # support, so the transformed density fails its normalization check
        check = _check_log_concavity([GeneralizedGamma(1, 1, 1)], make_log_shift())
        assert check.status is CheckStatus.UNKNOWN
        assert "density integrates to" in check.detail


class TestHypothesesEvaluatedOnce:
    def test_run_suite_checks_each_scenario_once(self, monkeypatch):
        calls = {"check_hypotheses": 0, "generate_scenario": 0}

        def counting(name):
            orig = getattr(harness, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)

            monkeypatch.setattr(harness, name, wrapper)

        counting("check_hypotheses")
        counting("generate_scenario")
        cfg = SuiteConfig(n_scenarios=2, master_seed=5, n_samples=5_000)
        report = run_suite(cfg)
        assert report.n_run == 2
        assert calls == {"check_hypotheses": 2, "generate_scenario": 2}

    def test_given_report_is_used(self):
        s = exp_scenario([4.0, 1.0], [2.0, 2.0], seed=5)
        hyp = check_hypotheses(s)
        assert verify_iid_theorem(s, hyp).hypothesis is hyp
        assert verify_noniid_theorem(s, hyp=hyp).hypothesis is hyp

    def test_given_failing_report_still_gates(self):
        bad = check_hypotheses(exp_scenario([2.0, 2.0], [3.0, 1.0]))
        with pytest.raises(OrderError):
            verify_iid_theorem(exp_scenario([4.0, 1.0], [2.0, 2.0]), bad)


class TestSuiteConfig:
    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_suite_rejected(self, n):
        with pytest.raises(ParameterError):
            SuiteConfig(n_scenarios=n)

    @pytest.mark.parametrize("presets", [(), ("exp_exp", "nope")])
    def test_bad_presets_rejected(self, presets):
        with pytest.raises(ParameterError):
            SuiteConfig(presets=presets)


class TestSpecParsers:
    def test_dist_roundtrip(self):
        for d in (GeneralizedGamma(2.0, 1.5, 0.7), GammaPower(-0.25, 4.0, 1.0)):
            assert dist_from_spec(_dist_to_spec(d)) == d

    @pytest.mark.parametrize("spec", [
        ["gengamma", 1],
        ["gengamma", 1, 1, 1, 99],
        ["gengamma", "x", 1, 1],
        ["gengamma", True, 1, 1],
        ["gammapower", 1, 1, None],
        ["gammapower", 10**400, 1, 1],
        ["gengamma", "nan", 1, 1],
        ["cauchy", 0, 1],
        [],
        "gengamma",
    ])
    def test_bad_dist_spec(self, spec):
        with pytest.raises(ParameterError):
            dist_from_spec(spec)

    @pytest.mark.parametrize("spec", [
        ["power"],
        ["power", 2, 7],
        ["power", "two"],
        ["exp", 1],
        ["logshift", 0],
        ["sine"],
        [],
    ])
    def test_bad_transform_spec(self, spec):
        with pytest.raises(ParameterError):
            transform_from_spec(spec)

    def test_numeric_strings_accepted(self):
        # the CLI hands over the text of each field
        assert dist_from_spec(["gengamma", "1", "2", "0.5"]) == GeneralizedGamma(1, 2, 0.5)
        assert transform_from_spec(["power", "0.5"]).kind == ("power", 0.5)

    @pytest.mark.parametrize("field,value", [
        ("variant", "convexx"),
        ("premise_mode", "bogus"),
        ("n_samples", "many"),
        ("a", 3),
    ])
    def test_bad_scenario_field(self, field, value):
        data = exp_scenario([4.0, 1.0], [2.0, 2.0]).to_dict()
        data[field] = value
        with pytest.raises(ParameterError):
            Scenario.from_dict(data)
