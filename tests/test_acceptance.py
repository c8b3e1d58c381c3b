"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package, prints a single
pass/fail line, and enforces the stated runtime budget.
"""

import itertools
import json
import time

import numpy as np

from stochorder import (
    GeneralizedGamma,
    LRVerdict,
    MajorizationMode,
    PQRegion,
    Relation,
    SuiteConfig,
    brute_force_majorize,
    check_convexity_conditions,
    check_majorize,
    classify_pq,
    convolve_weighted,
    dkw_epsilon,
    lr_compare,
    make_power,
    run_counterexample,
    run_suite,
    st_compare_empirical,
)
from stochorder.cli import run as cli_run
from stochorder.transforms import ConditionVariant, GridSpec

from reference import quadrature_cdf

MODES = (MajorizationMode.FULL, MajorizationMode.WEAK_SUB, MajorizationMode.WEAK_SUP)


def report(n, ok, detail):
    print(f"acceptance {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_01_majorization_matches_brute_force():
    """Partial-sum check agrees with the definition on every small integer
    pair, in under a minute."""
    start = time.monotonic()
    mismatches = 0
    total = 0
    for n in range(1, 5):
        vectors = list(itertools.product(range(5), repeat=n))
        for x in vectors:
            for y in vectors:
                for mode in MODES:
                    total += 1
                    if check_majorize(x, y, mode) != brute_force_majorize(x, y, mode):
                        mismatches += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 60.0
    report(1, ok, f"{total} checks, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 60.0


def test_02_power_pair_regions_match_grid_conditions():
    """The closed-form (p, q) region classifier agrees with brute grid
    evaluation of the coupling conditions away from region boundaries."""
    rng = np.random.default_rng(20240817)
    grid = GridSpec(0.5, 2.0, 16)
    checked = 0
    disagreements = 0
    while checked < 500:
        p, q = rng.uniform(-5.0, 5.0, size=2)
        if min(abs(p), abs(q), abs(p - 1), abs(q - 1)) <= 1e-3:
            continue
        if abs(1.0 / p + 1.0 / q - 1.0) <= 1e-3:
            continue
        checked += 1
        region = classify_pq(p, q)
        phi, psi = make_power(1.0 / q), make_power(1.0 / p)
        convex = check_convexity_conditions(
            phi, psi, ConditionVariant.CONVEX_CASE, grid
        ).both_hold
        concave = check_convexity_conditions(
            phi, psi, ConditionVariant.CONCAVE_CASE, grid
        ).both_hold
        expect_convex = region in (PQRegion.A0, PQRegion.A1, PQRegion.A2)
        expect_concave = region is PQRegion.A3
        if convex != expect_convex or concave != expect_concave:
            disagreements += 1
    ok = disagreements == 0
    report(2, ok, f"500 parameter pairs, {disagreements} disagreements")
    assert disagreements == 0


def test_03_exponential_instance_certified_by_oracle():
    """For iid exponential(1), weights (4, 1) dominate (2, 2) stochastically;
    the convolution oracle certifies the CDF inequality on its full grid."""
    start = time.monotonic()
    d = GeneralizedGamma(1, 1, 1)
    fa = convolve_weighted([d, d], [4.0, 1.0])
    fb = convolve_weighted([d, d], [2.0, 2.0])
    grid = np.union1d(fa.grid, fb.grid)
    gap = float(np.max(fa.evaluate(grid) - fb.evaluate(grid)))
    elapsed = time.monotonic() - start
    ok = gap <= 1e-6 and elapsed < 5.0
    report(3, ok, f"max F_a - F_b = {gap:.2e} on {len(grid)} points, {elapsed:.1f}s")
    assert gap <= 1e-6
    assert elapsed < 5.0


def test_04_gamma_counterexample_has_unique_crossing():
    """Gamma weighted sums with majorized weights but equal means produce
    CDFs that cross exactly once, so neither side dominates."""
    start = time.monotonic()
    rep = run_counterexample(1.0, (2.0, 1.0, 1.0), (1.5, 1.5, 1.0))
    elapsed = time.monotonic() - start
    v = rep.verdict
    ok = (
        rep.consistent
        and v.relation is Relation.CROSSING
        and v.crossing_count == 1
        and v.meta["mean_gap"] < 1e-8
        and elapsed < 10.0
    )
    report(
        4, ok,
        f"relation={v.relation.value}, crossings={v.crossing_count}, "
        f"mean gap={v.meta['mean_gap']:.1e}, {elapsed:.1f}s",
    )
    assert v.relation is Relation.CROSSING
    assert v.crossing_count == 1
    assert v.meta["mean_gap"] < 1e-8
    assert rep.consistent
    assert elapsed < 10.0


def test_05_randomized_theorem_suite_is_consistent():
    """200 generated scenarios across all presets, each with passing
    hypotheses, never contradict the predicted stochastic order."""
    start = time.monotonic()
    report_obj = run_suite(SuiteConfig(n_scenarios=200, master_seed=42,
                                       n_samples=100_000, delta=0.01))
    elapsed = time.monotonic() - start
    skipped = report_obj.to_dict()["summary"]["skipped_unknown"]
    ok = (
        report_obj.n_inconsistent == 0
        and report_obj.n_failed_hypotheses == 0
        and skipped == 0
        and report_obj.n_run == 200
        and elapsed < 900.0
    )
    report(
        5, ok,
        f"{report_obj.n_run} run, {report_obj.n_inconsistent} inconsistent, "
        f"{skipped} skipped, "
        f"{report_obj.n_failed_hypotheses} failed hypotheses, {elapsed:.0f}s",
    )
    assert report_obj.n_inconsistent == 0
    assert report_obj.n_failed_hypotheses == 0
    assert skipped == 0
    assert report_obj.n_run == 200
    assert elapsed < 900.0


def test_06_lr_direction_never_contradicted_empirically():
    """Analytically lr-ordered pairs are never refuted by the sample-based
    stochastic-order test."""
    rng = np.random.default_rng(7)
    n = 50_000
    contradictions = 0
    for i in range(50):
        p = float(rng.uniform(0.5, 3.0))
        alpha = float(rng.uniform(0.8, 4.0))
        lam = float(rng.uniform(0.5, 2.0))
        if i % 2 == 0:
            # same rate, larger shape is lr-larger
            d1 = GeneralizedGamma(p, alpha + float(rng.uniform(0.2, 2.0)), lam)
            d2 = GeneralizedGamma(p, alpha, lam)
        else:
            # same shape, smaller rate is lr-larger
            d1 = GeneralizedGamma(p, alpha, lam)
            d2 = GeneralizedGamma(p, alpha, lam + float(rng.uniform(0.2, 2.0)))
        assert lr_compare(d1, d2).verdict is LRVerdict.D1_LR_GREATER
        verdict = st_compare_empirical(
            d1.sample(n, seed=1000 + i), d2.sample(n, seed=2000 + i), delta=0.01
        )
        if verdict.relation is Relation.B_DOMINATES:
            contradictions += 1
    ok = contradictions == 0
    report(6, ok, f"50 lr-ordered pairs, {contradictions} contradictions")
    assert contradictions == 0


def test_07_sampler_matches_quadrature_cdf():
    """Empirical CDFs from the sampler stay inside the DKW band around the
    quadrature CDF for a spread of parameter sets."""
    rng = np.random.default_rng(11)
    n, delta = 100_000, 1e-3
    band = dkw_epsilon(n, delta)
    worst = 0.0
    failures = 0
    for i in range(20):
        d = GeneralizedGamma(
            p=float(rng.uniform(0.5, 3.0)),
            alpha=float(rng.uniform(0.5, 4.0)),
            lam=float(rng.uniform(0.5, 2.0)),
        )
        xs = np.linspace(float(d.ppf(0.002)), float(d.ppf(0.998)), 60)
        exact = quadrature_cdf(d, xs)
        emp = np.searchsorted(np.sort(d.sample(n, seed=300 + i)), xs, side="right") / n
        gap = float(np.max(np.abs(emp - exact)))
        worst = max(worst, gap)
        if gap > band:
            failures += 1
    ok = failures == 0
    report(7, ok, f"20 parameter sets, worst gap {worst:.4f}, band {band:.4f}")
    assert failures == 0


def test_08_suite_reports_are_byte_deterministic(tmp_path):
    """Identical suite configuration and master seed give byte-identical
    JSON reports through the command line."""
    args = ["suite", "--n", "10", "--seed", "42", "--samples", "20000"]
    out1, out2, out3 = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    code1 = cli_run(args + ["--output", str(out1)])
    code2 = cli_run(args + ["--output", str(out2)])
    # timings go to their own file and leave the report's bytes alone
    code3 = cli_run(args + ["--output", str(out3), "--profile", str(tmp_path / "p.json")])
    b1, b2, b3 = out1.read_bytes(), out2.read_bytes(), out3.read_bytes()
    identical = b1 == b2 == b3
    ok = identical and code1 == code2 == code3 == 0
    report(8, ok, f"{len(b1)} bytes per report, identical={identical} (third run profiled)")
    assert code1 == 0 and code2 == 0 and code3 == 0
    assert identical
    # sanity: the report really records the configuration it claims
    doc = json.loads(b1)
    assert doc["config"]["master_seed"] == 42
    assert doc["config"]["n_scenarios"] == 10
