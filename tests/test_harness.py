import ast
import inspect
import json
import math
import runpy
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochorder import (
    CheckStatus,
    ConditionVariant,
    DomainError,
    GammaPower,
    GeneralizedGamma,
    GridSpec,
    MajorizationMode,
    NumericError,
    OrderError,
    ParameterError,
    Relation,
    Scenario,
    SuiteConfig,
    SuiteReport,
    check_convexity_conditions,
    check_hypotheses,
    check_majorize,
    closed_form_conditions,
    convolve_weighted,
    generate_scenario,
    make_exp,
    make_log_shift,
    make_power,
    run_counterexample,
    run_suite,
    st_compare_empirical,
    st_compare_exact,
    transformed_density,
    verify_iid_theorem,
    verify_noniid_theorem,
)
from stochorder import cli, harness, orders, transforms
from stochorder.cli import run as cli_run
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

    # each used to be built and to fail later in sampling with numpy's
    # TypeError, or (seed=True) to run and write "seed": true
    def test_fractional_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed must be an integer"):
            exp_scenario([1, 2], [1.5, 1.5], seed=2.5)

    def test_fractional_sample_count_rejected(self):
        with pytest.raises(ParameterError, match="n_samples must be an integer"):
            exp_scenario([1, 2], [1.5, 1.5], n_samples=5000.5)

    def test_bool_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed must be an integer"):
            exp_scenario([1, 2], [1.5, 1.5], seed=True)

    def test_numpy_and_integral_values_pass_as_ints(self):
        s = exp_scenario([1, 2], [1.5, 1.5], seed=np.int64(7), n_samples=np.uint32(5000))
        t = exp_scenario([1, 2], [1.5, 1.5], seed=7.0, n_samples=5000)
        for scenario in (s, t):
            assert type(scenario.seed) is int and type(scenario.n_samples) is int
        assert json.loads(json.dumps(s.to_dict())) == json.loads(json.dumps(t.to_dict()))

    def test_is_iid(self):
        assert exp_scenario([1, 2], [1.5, 1.5]).is_iid
        s = Scenario(
            dists=(EXP1, GeneralizedGamma(1, 1, 2)),
            phi=make_exp(), psi=make_exp(), variant=CONVEX,
            a=(1, 2), b=(1.5, 1.5),
        )
        assert not s.is_iid

    @pytest.mark.parametrize("a", [(-1.0, 3.0), (3.0, -0.5)])
    def test_negative_weight_rejected(self, a):
        # x^(1/2) of a negative weight is complex, which check_hypotheses
        # cannot order
        with pytest.raises(ParameterError, match="weights must be nonnegative"):
            Scenario(
                dists=(GeneralizedGamma(1, 2, 1),) * 2,
                phi=make_power(2.0), psi=make_power(2.0), variant=CONVEX,
                a=a, b=(1.0, 1.0),
            )
        with pytest.raises(ParameterError, match="weights must be nonnegative"):
            exp_scenario((1.0, 1.0), a)

    def test_defaults_are_written_once(self):
        """Every default sample count and delta is the one module constant,
        and neither value is written anywhere else in the package."""
        n, delta = harness.DEFAULT_N_SAMPLES, orders.DEFAULT_DELTA
        assert (n, delta) == (100_000, 0.01)
        s = exp_scenario([4.0, 1.0], [2.0, 2.0])
        data = s.to_dict()
        del data["n_samples"], data["delta"]
        read = Scenario.from_dict(data)
        generated = generate_scenario("exp_exp", np.random.SeedSequence(1))
        suite_args = cli.build_parser().parse_args(["suite"])
        assert [(s.n_samples, s.delta), (SuiteConfig().n_samples, SuiteConfig().delta),
                (generated.n_samples, generated.delta), (read.n_samples, read.delta),
                (suite_args.samples, suite_args.delta)] == [(n, delta)] * 5
        assert inspect.signature(st_compare_empirical).parameters["delta"].default == delta
        literals = Counter(
            node.value
            for path in Path(harness.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value in (n, delta)
        )
        assert literals == {n: 1, delta: 1}

    def test_component_outside_the_gamma_families_rejected(self):
        with pytest.raises(ParameterError, match="gengamma or gammapower"):
            Scenario(
                dists=(EXP1, transformed_density(EXP1, make_exp())),
                phi=make_exp(), psi=make_exp(), variant=CONVEX,
                a=(1, 2), b=(1.5, 1.5),
            )


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
        check = check_hypotheses(s).conditions_ok
        # x^(1/3) pair: r = -2 for each, so (b) holds and only (a) fails
        assert (check.status, check.witness) == (CheckStatus.FAIL, None)
        assert check.detail == "closed form: phi'' has sign -1 in the convex case"

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
        assert hyp.to_dict()["lr_chain_ok"]["basis"] == "analytic"


class TestHypothesisBasis:
    """Every hypothesis passes or fails, and its report entry records what
    decided it: "analytic" throughout."""

    def _conjugate(self, phi, variant=CONCAVE, dists=(GeneralizedGamma(2, 1, 1),) * 2):
        # transformed coordinates (16, 1) majorize (9, 8) under x^(1/2)
        return Scenario(
            dists=dists, phi=phi, psi=make_power(0.5), variant=variant,
            a=(4.0, 1.0), b=(3.0, 8.0**0.5),
        )

    def test_builtin_scenario_is_analytic_throughout(self):
        hyp = check_hypotheses(self._conjugate(make_power(0.5)))
        assert hyp.all_pass
        assert set(CheckStatus) == {CheckStatus.PASS, CheckStatus.FAIL}
        assert hyp.conditions_ok.detail == "closed form: phi'' sign -1, inf r_phi r_psi = 1"
        for entry in hyp.to_dict().values():
            assert list(entry) == ["status", "basis", "detail", "witness"]
            assert entry["basis"] == "analytic"

    def test_builtin_kinds_never_reach_the_grid(self, monkeypatch):
        assert not hasattr(harness, "check_convexity_conditions")
        monkeypatch.setattr(
            transforms, "check_convexity_conditions",
            lambda *a, **k: pytest.fail("the condition grid was scanned"),
        )
        for i, preset in enumerate(SuiteConfig().presets):
            s = generate_scenario(preset, np.random.SeedSequence(i))
            assert check_hypotheses(s).conditions_ok.status is CheckStatus.PASS

    def test_closed_form_failure_of_condition_b(self):
        # exp against x^(1/2): r = 1 times r = -1
        s = Scenario(
            dists=(GeneralizedGamma(2, 2, 1),) * 2,
            phi=make_exp(), psi=make_power(0.5), variant=CONVEX,
            a=(8.0, 1.0), b=(4.0, 4.0),
        )
        assert check_hypotheses(s).conditions_ok.detail == "closed form: inf r_phi r_psi = -1 < 1"

    def test_lr_chain_basis(self):
        # pairs of different powers are decided in closed form too
        refuted = (GeneralizedGamma(1, 2, 1), GeneralizedGamma(2, 1, 1))
        certified = (GeneralizedGamma(1, 3, 1), GeneralizedGamma(2, 1, 1))
        for dists, status in ((refuted, CheckStatus.FAIL), (certified, CheckStatus.PASS)):
            entry = check_hypotheses(self._conjugate(make_power(0.5), dists=dists)).to_dict()
            assert list(entry["lr_chain_ok"]) == ["status", "basis", "detail", "witness"]
            assert (entry["lr_chain_ok"]["status"], entry["lr_chain_ok"]["basis"]) \
                == (status.value, "analytic")

    def test_counterexample_preconditions_are_analytic(self):
        rep = run_counterexample(1.0, (2.0, 1.0, 1.0), (1.5, 1.5, 1.0))
        assert {e["basis"] for e in rep.hypothesis.to_dict().values()} == {"analytic"}


class TestConditionsOnPresets:
    """The closed form agrees with a 24-point condition grid on [0.01, 100]
    on generated scenarios: every preset sits on the boundary
    1/p + 1/q = 1, or (logshift) inside the region."""

    GRID = GridSpec(1e-2, 1e2, 24)

    @pytest.mark.parametrize("master_seed", [0, 5, 13, 42])
    def test_closed_form_equals_grid(self, master_seed):
        presets = SuiteConfig().presets
        for i in range(45):
            preset = presets[i % len(presets)]
            s = generate_scenario(preset, np.random.SeedSequence(master_seed, spawn_key=(i,)))
            closed = closed_form_conditions(s.phi, s.psi, s.variant)
            grid = check_convexity_conditions(s.phi, s.psi, s.variant, self.GRID)
            assert closed.condition_a_holds and closed.condition_b_holds, (preset, i)
            assert grid.both_hold, (preset, i)
            # conjugate pairs sit within rounding of the product 1
            if preset != "logshift":
                assert closed.ratio_inf == pytest.approx(1.0, abs=1e-14)


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


class TestSharedDraws:
    """Both sums are weighted from one draw of each component; each keeps
    its own law and its own n draws."""

    D = GeneralizedGamma(1.5, 2.0, 1.0)

    def test_one_draw_per_component_weighted_by_a_and_by_b(self, monkeypatch):
        a, b, n, seed = np.array([3.0, 1.0, 0.5]), np.array([2.0, 1.5, 1.0]), 500, 17
        children = np.random.SeedSequence(seed).spawn(3)
        draws = [self.D.sample(n, int(c.generate_state(1)[0])) for c in children]
        want_a, want_b = np.zeros(n), np.zeros(n)
        for x, wa, wb in zip(draws, a, b):
            want_a += wa * x
            want_b += wb * x
        real, calls = GammaPower.sample, []

        def sample(d, size, s):
            calls.append(s)
            return real(d, size, s)

        monkeypatch.setattr(GammaPower, "sample", sample)
        sum_a, sum_b = harness._sample_weighted_sums([self.D] * 3, a, b, n, seed)
        assert len(calls) == 3
        np.testing.assert_array_equal(sum_a, want_a)
        np.testing.assert_array_equal(sum_b, want_b)

    def test_band_conservative_on_simulated_nulls(self):
        """With iid components and b a permutation of a the two sums have one
        law. |F_A,n - F_B,n| then passes the band only if one ECDF leaves its
        own DKW band, at a rate of at most 2 delta by the union bound, which
        needs no independence between the two samples."""
        delta, n, seeds = 0.2, 200, range(400)
        a = np.array([3.0, 1.0, 0.5])
        b = a[[2, 0, 1]]
        exceed = 0
        for seed in seeds:
            v = st_compare_empirical(
                *harness._sample_weighted_sums([self.D] * 3, a, b, n, seed), delta
            )
            exceed += max(v.max_pos_dev, v.max_neg_dev) > v.band
        p = 2 * delta
        # three binomial standard deviations of slack over the bound
        assert exceed / len(seeds) <= p + 3 * math.sqrt(p * (1 - p) / len(seeds))


def _serial_report(s, a_used, b_used):
    """The comparison of ``_run_comparison`` done one step after another
    on the calling thread."""
    predicted = "a" if s.variant is CONVEX else "b"
    verdict = st_compare_empirical(
        *harness._sample_weighted_sums(s.dists, a_used, b_used, s.n_samples, s.seed),
        s.delta,
    )
    oracle = st_compare_exact(
        convolve_weighted(s.dists, a_used), convolve_weighted(s.dists, b_used)
    )
    side = (lambda v: v.max_pos_dev) if predicted == "a" else (lambda v: v.max_neg_dev)
    return harness.TheoremReport(
        hypothesis=check_hypotheses(s),
        verdict=verdict,
        oracle_verdict=oracle,
        consistent=side(verdict) <= verdict.band and side(oracle) <= oracle.band,
        predicted=predicted,
        label=s.label,
    )


class TestOracleThread:
    """Both oracle sums run on the calling thread, after the sampling and
    the DKW test; the report and the errors are those of the serial order."""

    SCENARIO = dict(a=[4.0, 1.0], b=[2.0, 2.0], seed=5, n_samples=20_000)

    @pytest.fixture(autouse=True)
    def no_thread_left(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    @staticmethod
    def _fail_convolve(monkeypatch, failing, on_call=None):
        """``harness.convolve_weighted`` raising NumericError("<name>") for
        the weights named in ``failing`` (a dict name -> weights)."""
        real = harness.convolve_weighted

        def convolve(dists, weights, *args, **kwargs):
            for name, w in failing.items():
                if np.array_equal(np.asarray(weights, float), w):
                    if on_call is not None:
                        on_call(name)
                    raise NumericError(name)
            return real(dists, weights, *args, **kwargs)

        monkeypatch.setattr(harness, "convolve_weighted", convolve)

    def test_both_sums_on_the_calling_thread(self, monkeypatch):
        real = harness.convolve_weighted
        calls = []

        def convolve(dists, weights, *args, **kwargs):
            calls.append((tuple(weights), threading.get_ident()))
            return real(dists, weights, *args, **kwargs)

        monkeypatch.setattr(harness, "convolve_weighted", convolve)
        verify_iid_theorem(exp_scenario(**self.SCENARIO))
        me = threading.get_ident()
        assert calls == [((4.0, 1.0), me), ((2.0, 2.0), me)]

    def test_b_sum_error_surfaces(self, monkeypatch):
        self._fail_convolve(monkeypatch, {"B": np.array([2.0, 2.0])})
        with pytest.raises(NumericError, match="B"):
            verify_iid_theorem(exp_scenario(**self.SCENARIO))

    def test_a_sum_error_before_b_sum_error(self, monkeypatch):
        self._fail_convolve(
            monkeypatch, {"A": np.array([4.0, 1.0]), "B": np.array([2.0, 2.0])}
        )
        with pytest.raises(NumericError, match="A"):
            verify_iid_theorem(exp_scenario(**self.SCENARIO))

    def test_sampling_error_before_any_oracle(self, monkeypatch):
        convolved = []
        self._fail_convolve(
            monkeypatch, {"A": np.array([4.0, 1.0]), "B": np.array([2.0, 2.0])},
            on_call=convolved.append,
        )

        def sample(*args):
            raise ParameterError("sampling")

        monkeypatch.setattr(harness, "_sample_weighted_sums", sample)
        with pytest.raises(ParameterError, match="sampling"):
            verify_iid_theorem(exp_scenario(**self.SCENARIO))
        assert convolved == []

    def test_iid_report_equals_serial(self):
        s = exp_scenario(**self.SCENARIO, label="iid")
        want = _serial_report(s, s.a.as_array(), s.b.as_array())
        assert verify_iid_theorem(s).to_dict() == want.to_dict()

    def test_noniid_report_equals_serial(self):
        s = Scenario(
            dists=tuple(GeneralizedGamma(1, 1, lam) for lam in (1.0, 2.0, 3.0)),
            phi=make_exp(), psi=make_exp(), variant=CONVEX,
            a=(8.0, 2.0, 1.0), b=(4.0, 4.0, 1.0), seed=9, n_samples=20_000,
            label="noniid",
        )
        a_used = np.sort(s.a.as_array())[::-1]
        b_used = np.sort(s.b.as_array())[::-1]
        assert verify_noniid_theorem(s).to_dict() == _serial_report(s, a_used, b_used).to_dict()

    def test_no_pool_for_any_n(self, monkeypatch):
        monkeypatch.setattr(
            harness, "ThreadPoolExecutor", lambda *a, **k: pytest.fail("pool opened")
        )
        for n in range(2, harness.ORACLE_MAX_N + 2):
            # log-weights (n, 0, ..., 0) log 2 against (1, ..., 1) log 2
            s = exp_scenario([2.0**n] + [1.0] * (n - 1), [2.0] * n, n_samples=2000)
            rep = verify_iid_theorem(s)
            assert (rep.oracle_verdict is None) == (n > harness.ORACLE_MAX_N)
            assert verify_noniid_theorem(s).to_dict() == rep.to_dict()


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

    def test_report_keeps_the_compared_cdfs(self):
        rep = run_counterexample(1.0, (2.0, 1.0, 1.0), (1.5, 1.5, 1.0))
        fa, fb = rep.cdfs
        again = st_compare_exact(fa, fb)
        assert (again.max_pos_dev, again.max_neg_dev) == (
            rep.verdict.max_pos_dev, rep.verdict.max_neg_dev)
        assert "cdfs" not in rep.to_dict()

    def test_counterexample_csv_convolves_each_sum_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        real = harness.convolve_weighted

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "convolve_weighted", counted)
        out = tmp_path / "crossing.csv"
        assert cli_run(["counterexample", "--alpha", "1", "--a", "2,1,1",
                        "--b", "1.5,1.5,1", "--csv", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["csv"] == str(out)
        assert len(calls) == 2
        lines = out.read_text().splitlines()
        assert len(lines) == 401
        assert lines[0] == "x,F_a,F_b,diff"
        diff = np.array([float(line.split(",")[3]) for line in lines[1:]])
        signs = np.sign(diff[np.abs(diff) > 1e-6])
        assert np.count_nonzero(signs[1:] != signs[:-1]) == 1


class TestBenchCompare:
    def test_one_pair_rejected_before_any_run(self, tmp_path, capsys):
        # quartiles need two runs per side; the checkouts here hold no
        # benchmark, so reaching any run would fail differently
        script = Path(__file__).parents[1] / "scripts" / "bench_compare.py"
        main = runpy.run_path(str(script))["main"]
        out = tmp_path / "bench.json"
        with pytest.raises(SystemExit) as done:
            main(["--parent", str(tmp_path), "--change", str(tmp_path),
                  "--workload", "suite", "--pairs", "1", "--first-seed", "1",
                  "--output", str(out)])
        assert done.value.code == 2
        assert "--pairs must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_run_reported(self, tmp_path, capsys):
        # a checkout whose benchmark fails on the change side's first run
        script = Path(__file__).parents[1] / "scripts" / "bench_compare.py"
        main = runpy.run_path(str(script))["main"]
        for side, code in (("parent", 0), ("change", 3)):
            bench = tmp_path / side / "benchmark"
            bench.mkdir(parents=True)
            (bench / "run.py").write_text(
                "import sys\n"
                "print('early line', file=sys.stderr)\n"
                "print('boom: the last words', file=sys.stderr)\n"
                f"print('{{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{}}}}')\n"
                f"sys.exit({code})\n"
            )
        (tmp_path / "change" / "BENCHMARK.json").write_text('{"end_to_end": []}')
        out = tmp_path / "bench.json"
        with pytest.raises(SystemExit) as done:
            main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                  "--workload", "suite", "--pairs", "2", "--first-seed", "41",
                  "--output", str(out)])
        err = capsys.readouterr().err
        assert done.value.code == 1
        assert "change run of suite failed: seed 41 exited 3" in err
        assert "early line\nboom: the last words" in err
        assert not out.exists()

    def test_verdict_per_metric(self):
        # ten fake pairs per metric, no benchmark run
        script = Path(__file__).parents[1] / "scripts" / "bench_compare.py"
        ns = runpy.run_path(str(script))
        parent = [100.0 + i for i in range(10)]  # median 104.5, IQR 4.5
        change = {
            "gain": [110.0 + i for i in range(10)],        # 10/10, gap 10 > 4.5
            "few_wins": [110.0 + i for i in range(8)] + [0.0, 0.0],  # 8/10
            "small_gap": [104.0 + i for i in range(10)],   # 10/10, gap 4 < 4.5
            "slower": [75.0 + i for i in range(10)],       # 0.75x: past 20%
            "slightly_slower": [85.0 + i for i in range(10)],  # 0.85x: within
            "tied": list(parent),                          # ties win nothing
        }
        spec = [{"name": n, "unit": "1/s", "better": "higher", "bound": 0.2} for n in change]
        spec.append({"name": "lat", "unit": "ms", "better": "lower", "bound": 0.2})
        change["lat"] = [130.0 + i for i in range(10)]      # 1.24x slower: past
        runs = {side: [{"metrics": {n: (parent if side == "parent" else change[n])[i]
                                    for n in change}} for i in range(10)]
                for side in ("parent", "change")}
        summary = ns["summarize"](runs, spec)
        got = {n: (s["change_wins"], s["gain_rule"], s["past_bound"]) for n, s in summary.items()}
        assert got == {
            "gain": (10, True, False),
            "few_wins": (8, False, False),
            "small_gap": (10, False, False),
            "slower": (0, False, True),
            "slightly_slower": (0, False, False),
            "tied": (0, False, False),
            "lat": (0, False, True),
        }
        assert summary["gain"]["ratio"] == pytest.approx(114.5 / 104.5)
        line = ns["verdict_line"]("gain", summary["gain"])
        assert line == ("gain: parent median 104.5 (IQR 4.5), change median 114.5, "
                        "change/parent 1.096, change won 10/10; gain rule holds; "
                        "within its bound of 20%")
        assert "gain rule fails; worse than the parent past its bound of 20%" in \
            ns["verdict_line"]("lat", summary["lat"])


class TestLogReduction:
    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n),
                st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n),
            )
        ),
        st.floats(-4.0, -0.25),
    )
    @example(([2.0, 2.0], [1.0, 3.0]), -2.0)
    @settings(max_examples=100, deadline=None)
    def test_log_reduction_flips_weak_order(self, pair, q):
        # g(x) = log(x) / q with q < 0 is decreasing and convex, so a
        # bottom-sum premise on the original coordinates becomes a top-sum
        # conclusion on the transformed ones
        x, y = pair
        if check_majorize(x, y, MajorizationMode.WEAK_SUP, tol=0.0):
            gx = [math.log(t) / q for t in x]
            gy = [math.log(t) / q for t in y]
            assert check_majorize(gx, gy, MajorizationMode.WEAK_SUB)


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
        assert report.n_run == 9

    def test_every_scenario_has_a_clock(self):
        cfg = SuiteConfig(n_scenarios=2, master_seed=5, n_samples=5_000)
        report = run_suite(cfg)
        assert len(report.stages) == 2
        for stages in report.stages:
            # n <= 4 components, so every scenario runs the oracle's stages
            assert set(stages) == {"scenario", *harness.PROFILE_STAGES}

    def test_summary_counts_the_records(self):
        statuses = ["consistent", "inconsistent", "consistent", "failed_hypotheses", "consistent"]
        report = SuiteReport(SuiteConfig(n_scenarios=5), [{"status": s} for s in statuses])
        assert (report.n_run, report.n_consistent, report.n_inconsistent,
                report.n_failed_hypotheses) == (4, 3, 1, 1)
        assert list(report.to_dict()["summary"].items()) == [
            ("run", 4), ("consistent", 3), ("inconsistent", 1), ("skipped_unknown", 0),
            ("failed_hypotheses", 1),
        ]

    def test_suite_deterministic(self):
        cfg = SuiteConfig(n_scenarios=4, master_seed=5, n_samples=5_000)
        first = run_suite(cfg).to_dict()
        assert first == run_suite(cfg).to_dict()
        assert first["summary"]["skipped_unknown"] == 0

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


class TestSuiteLanes:
    """run_suite runs its scenarios on two lanes; the report is that of a
    serial loop of run_scenario."""

    CONFIG = SuiteConfig(n_scenarios=18, master_seed=3, n_samples=5_000)

    @pytest.fixture(autouse=True)
    def no_thread_left(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    @staticmethod
    def _hook(monkeypatch, on_start):
        """``harness.generate_scenario`` calling ``on_start(index)`` first;
        what it returns, if not None, replaces the scenario."""
        real = harness.generate_scenario

        def generate(preset, seed_seq, **kwargs):
            s = on_start(int(kwargs["label"].split("#")[1]))
            return real(preset, seed_seq, **kwargs) if s is None else s

        monkeypatch.setattr(harness, "generate_scenario", generate)

    def test_report_equals_serial_loop(self, monkeypatch):
        serial = [harness.run_scenario(self.CONFIG, i) for i in range(18)]
        started = []
        pools = []
        real_pool = harness.ThreadPoolExecutor

        def pool(*args, **kwargs):
            pools.append((args, kwargs))
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", pool)
        self._hook(monkeypatch, lambda i: started.append((i, threading.get_ident())))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch lanes often
        try:
            got = run_suite(self.CONFIG).to_dict()
        finally:
            sys.setswitchinterval(interval)
        assert got["records"] == serial
        assert [r["index"] for r in got["records"]] == list(range(18))
        summary = got["summary"]
        assert summary["consistent"] + summary["inconsistent"] == summary["run"]
        for status in ("consistent", "inconsistent", "skipped_unknown", "failed_hypotheses"):
            assert summary[status] == sum(r["status"] == status for r in serial)
        assert sorted(i for i, _ in started) == list(range(18))
        lanes = {ident for _, ident in started}
        assert threading.get_ident() not in lanes and len(lanes) <= 2
        assert pools == [((), {"max_workers": 2})]

    def test_lowest_failing_index_surfaces(self, monkeypatch):
        six_failed = threading.Event()
        started = []

        def on_start(i):
            started.append(i)
            if i == 5:
                # raise only once scenario 6 has already failed on the other lane
                assert six_failed.wait(30)
                raise NumericError("scenario 5")
            if i == 6:
                six_failed.set()
                raise NumericError("scenario 6")
            if i > 6:
                time.sleep(0.05)
                raise NumericError(f"scenario {i}")
            return None

        self._hook(monkeypatch, on_start)
        cfg = SuiteConfig(n_scenarios=40, master_seed=3, n_samples=5_000)
        with pytest.raises(NumericError, match="scenario 5"):
            run_suite(cfg)
        # the scenarios still pending were cancelled
        assert sorted(started)[:7] == list(range(7))
        assert len(started) < 40


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


def _logshift_curvature(x_dist, y: float) -> float:
    """Central second difference of log f_Y at y, for Y = exp(X) - e."""
    def log_f_y(v):
        x = math.log(v + math.e)
        return float(x_dist.logpdf(x)) - x

    h = 1e-4 * (y + math.e)
    return (log_f_y(y + h) - 2 * log_f_y(y) + log_f_y(y - h)) / h**2


class TestLogConcavityFallback:
    """Components and psi at the edge of the closed form: it decides every
    gamma-family component under the three built-in psi."""

    def test_small_shape_refuted_in_closed_form(self):
        # G**2 with shape 0.5: a = -3/4 < 0 and c = -1/4 <= 0, so u = 1
        check = _check_log_concavity([GeneralizedGamma(0.5, 0.5, 1)], make_power(1.0))
        assert check.status is CheckStatus.FAIL
        assert check.witness == (1.0,)
        assert check.detail == (
            "gengamma(p=0.5, alpha=0.5, lam=1): gamma power t=2: "
            "positive log-density curvature"
        )

    def test_logshift_refuted_in_closed_form(self):
        # exp(X) - e has almost no mass inside X's quantile support, which
        # defeats any scan of its density over that support
        d = GeneralizedGamma(1, 1, 1)
        check = _check_log_concavity([d], make_log_shift())
        assert check.status is CheckStatus.FAIL
        (y,) = check.witness
        assert _logshift_curvature(d, y) > 0

    @pytest.mark.parametrize("r", [-3.0, -0.5, 0.1, 1.0, 2.0, 20.0])
    def test_logshift_panel_refuted(self, r):
        for alpha in (0.05, 0.3, 1.0, 5.0, 50.0):
            for lam in (0.01, 0.2, 1.0, 10.0, 100.0):
                d = GammaPower(r, alpha, lam)
                check = _check_log_concavity([d], make_log_shift())
                assert check.status is CheckStatus.FAIL, d
                (y,) = check.witness
                assert _logshift_curvature(d, y) > 0, (d, y)


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

    @pytest.mark.parametrize("fields", [
        {"n_samples": 999},
        {"delta": 0.0},
        {"delta": 1.0},
        {"delta": math.nan},
    ])
    def test_bad_sampling_rejected(self, fields):
        with pytest.raises(ParameterError):
            SuiteConfig(**fields)

    def test_fractional_scenario_count_rejected(self):
        with pytest.raises(ParameterError, match="n_scenarios must be an integer"):
            SuiteConfig(n_scenarios=2.5)

    def test_fractional_master_seed_rejected(self):
        with pytest.raises(ParameterError, match="master_seed must be an integer"):
            SuiteConfig(master_seed=1.5)

    def test_fractional_sample_count_rejected(self):
        with pytest.raises(ParameterError, match="n_samples must be an integer"):
            SuiteConfig(n_samples=5000.5)

    def test_numpy_integers_pass(self):
        cfg = SuiteConfig(n_scenarios=np.int64(3), master_seed=np.int32(4), n_samples=6000.0)
        assert cfg.to_dict() == SuiteConfig(n_scenarios=3, master_seed=4, n_samples=6000).to_dict()
        assert all(type(cfg.to_dict()[k]) is int for k in ("n_scenarios", "master_seed", "n_samples"))


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
        ("n_samples", 20000.9),
        ("n_samples", math.inf),
        ("seed", 2.7),
        ("seed", True),
        ("a", 3),
        # text is not an array: "31" used to give the weights (3, 1)
        ("a", "31"),
        ("b", "22"),
        # a bool is not a weight: true used to read as 1.0
        ("a", [True, 1.0]),
        ("b", [2.0, np.True_]),
    ])
    def test_bad_scenario_field(self, field, value):
        data = exp_scenario([4.0, 1.0], [2.0, 2.0]).to_dict()
        data[field] = value
        with pytest.raises(ParameterError):
            Scenario.from_dict(data)

    def test_integral_numbers_accepted(self):
        data = exp_scenario([4.0, 1.0], [2.0, 2.0]).to_dict()
        data.update(n_samples=20000.0, seed="7")
        s = Scenario.from_dict(data)
        assert (s.n_samples, s.seed) == (20000, 7)
