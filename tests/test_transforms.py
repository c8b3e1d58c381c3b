import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import (
    ConditionVariant,
    Direction,
    GridSpec,
    NumericError,
    ParameterError,
    PQRegion,
    check_convexity_conditions,
    classify_pq,
    closed_form_conditions,
    make_exp,
    make_log_shift,
    make_power,
    Transform,
)

CONVEX = ConditionVariant.CONVEX_CASE
CONCAVE = ConditionVariant.CONCAVE_CASE
SMALL_GRID = GridSpec(0.5, 2.0, 16)


def _second_difference(f, x):
    """Second central difference at steps h and h/2, Richardson-extrapolated
    so that the h^2 error term cancels: for a steep map such as x**-990 that
    term alone is 1% of f''."""
    h = 1.2e-4 * (1.0 + abs(x))
    fx = f(x)

    def central(step):
        return (f(x + step) - 2 * fx + f(x - step)) / (step * step)

    return (4 * central(h / 2) - central(h)) / 3


class TestTransformConstruction:
    def test_exp_basics(self):
        t = make_exp()
        assert t.direction is Direction.INCREASING
        assert t.eval(1.0) == pytest.approx(math.e)
        assert t.inverse(t.eval(0.7)) == pytest.approx(0.7)

    def test_power_increasing_and_decreasing(self):
        assert make_power(2.0).direction is Direction.INCREASING
        assert make_power(-1.5).direction is Direction.DECREASING

    def test_power_zero_rejected(self):
        with pytest.raises(ParameterError):
            make_power(0.0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
    def test_power_non_finite_rejected(self, r):
        # a bad exponent is a parameter error, not a failed grid validation
        with pytest.raises(ParameterError, match="must be finite"):
            make_power(r)

    @pytest.mark.parametrize("r", [-993.786, -990.0, 990.0])
    def test_steep_power_passes_its_derivative_check(self, r):
        # the derivatives are the analytic formulas, exact at x = 1
        t = make_power(r)
        assert t.d2(1.0) == r * (r - 1.0)

    @pytest.mark.parametrize("r", [1e-7, -1e-7, 1023.9, -1023.9])
    def test_power_range_edges_accepted(self, r):
        # x**r is finite on [0.5, 2] and its inverse returns x to 1e-9
        t = make_power(r)
        assert t.kind == ("power", r) and t.label == f"power({r:g})"
        for x in np.geomspace(0.5, 2.0, 9):
            assert math.isfinite(t.eval(x))
            assert abs(t.inverse(t.eval(x)) - x) <= 1e-9 * (1.0 + x)

    @pytest.mark.parametrize("r", [9.9e-8, -9.9e-8, 1024.0, -1024.0, 2000.0, -2000.0, 1e-300])
    def test_power_outside_range_rejected(self, r):
        with pytest.raises(NumericError) as e:
            make_power(r)
        assert str(e.value).startswith(f"power({r:g}):")

    @pytest.mark.parametrize(
        "kind", [("cube",), ("power",), ("exp", 2.0), ("logshift", 1.0), (), (None,), "exp", ["exp"]]
    )
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ParameterError, match="unknown transform kind"):
            Transform(kind)

    def test_kind_alone_decides(self):
        # the exponent is kept as a float; equal kinds make equal transforms
        t = Transform(("power", 2))
        assert t.kind == ("power", 2.0) and t == make_power(2.0)
        assert hash(t) == hash(make_power(2.0)) and t != make_power(3.0)
        assert Transform(("exp",)) == make_exp() and make_exp() != make_log_shift()

    @pytest.mark.parametrize(
        "make",
        [make_exp, make_log_shift]
        + [lambda r=r: make_power(r) for r in (-1000.0, -97.0, -2.5, -0.3, 0.4, 3.0, 97.0, 1000.0)],
    )
    def test_second_difference_error_bounded(self, make):
        # d2 against a second difference of eval: the extrapolation cancels
        # the h^2 term but multiplies the roundoff by about 6, and both stay
        # far below a formula mistake of relative size O(1)
        t = make()
        worst = max(
            abs(_second_difference(t.eval, x) - t.d2(x)) / (1.0 + abs(t.d2(x)))
            for x in np.geomspace(0.5, 2.0, 9)
        )
        assert worst < 1e-4

    def test_log_shift_values(self):
        t = make_log_shift()
        assert t.eval(0.0) == pytest.approx(1.0)
        assert t.inverse(1.0) == pytest.approx(0.0, abs=1e-12)
        assert t.d2(1.0) < 0

    @given(st.floats(-3.0, 3.0).filter(lambda r: abs(r) > 0.05))
    @settings(max_examples=50, deadline=None)
    def test_power_inverse_roundtrip(self, r):
        t = make_power(r)
        for x in (0.3, 1.0, 4.2):
            assert t.inverse(t.eval(x)) == pytest.approx(x, rel=1e-9)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ParameterError):
            GridSpec(1.0, 0.5, 8)
        with pytest.raises(ParameterError):
            GridSpec(0.5, 1.0, 1)

    def test_points_are_log_spaced(self):
        pts = GridSpec(1e-2, 1e2, 5).points()
        np.testing.assert_allclose(pts, [1e-2, 1e-1, 1, 10, 100], rtol=1e-12)

    def test_axis_built_once_and_read_only(self):
        g = GridSpec(1e-2, 1e2, 5)
        assert g.axis is g.axis
        assert g.axis == tuple(np.geomspace(1e-2, 1e2, 5).tolist())
        # points() is a fresh array: writing to it leaves the axis as it was
        pts = g.points()
        pts[0] = 7.0
        assert g.axis[0] == np.geomspace(1e-2, 1e2, 5)[0]
        assert g.points()[0] == g.axis[0]


class TestConvexityConditions:
    def test_exp_pair_satisfies_convex_case(self):
        rep = check_convexity_conditions(make_exp(), make_exp(), CONVEX, SMALL_GRID)
        assert rep.condition_a_holds and rep.condition_b_holds
        # the product condition is tight for the exponential pair
        assert rep.worst_violation_b == pytest.approx(0.0, abs=1e-9)

    def test_exp_pair_fails_concave_case(self):
        rep = check_convexity_conditions(make_exp(), make_exp(), CONCAVE, SMALL_GRID)
        assert not rep.condition_a_holds

    def test_conjugate_pair_a3_is_concave(self):
        p, q = 2.0, 2.0
        rep = check_convexity_conditions(
            make_power(1 / q), make_power(1 / p), CONCAVE, SMALL_GRID
        )
        assert rep.both_hold

    def test_conjugate_pair_a1_is_convex(self):
        q = 0.8
        p = 1.0 / (1.0 - 1.0 / q)  # p = -4
        rep = check_convexity_conditions(
            make_power(1 / q), make_power(1 / p), CONVEX, SMALL_GRID
        )
        assert rep.both_hold

    def test_interior_violation_reported_with_point(self):
        # p = q = 3 gives 1/p + 1/q < 1 strictly inside A3's complement for
        # the convex case
        rep = check_convexity_conditions(
            make_power(1 / 3), make_power(1 / 3), CONVEX, SMALL_GRID
        )
        assert not rep.condition_a_holds
        u, v = rep.worst_point
        assert SMALL_GRID.lo <= u <= SMALL_GRID.hi
        assert SMALL_GRID.lo <= v <= SMALL_GRID.hi

    def test_logshift_power_pair(self):
        # paired with x^(1/p), the shifted log satisfies the concave-case
        # conditions exactly when p >= 2
        psi2 = make_power(1 / 2.0)
        rep = check_convexity_conditions(make_log_shift(), psi2, CONCAVE, SMALL_GRID)
        assert rep.both_hold
        psi_small = make_power(1 / 1.5)
        rep_bad = check_convexity_conditions(
            make_log_shift(), psi_small, CONCAVE, SMALL_GRID
        )
        assert not rep_bad.condition_b_holds

    # condition (b) on the suite's 24x24 grid, pinned bit for bit because
    # the suite's byte-identical reports carry these values
    HARNESS_GRID = GridSpec(1e-2, 1e2, 24)

    def test_condition_b_finite_margin_pinned(self):
        # power pairs have the constant ratio (p-1)(q-1)/(pq) = 1/3, so the
        # margin is log 3 up to roundoff, which picks the worst point
        rep = check_convexity_conditions(
            make_power(2.0), make_power(3.0), CONVEX, self.HARNESS_GRID
        )
        assert not rep.condition_b_holds
        assert rep.worst_violation_b == 1.0986122886681144
        assert rep.worst_point_b == (30.07882518043099, 100.0)

    def test_condition_b_sign_failure_pinned(self):
        # phi'' > 0 > psi'': every point is a sign failure, the first wins
        rep = check_convexity_conditions(
            make_power(2.0), make_power(0.5), CONVEX, self.HARNESS_GRID
        )
        assert not rep.condition_b_holds
        assert rep.worst_violation_b == math.inf
        assert rep.worst_point_b == (0.01, 0.01)

    def test_condition_b_first_point_in_row_major_order_wins(self):
        # phi'' = sin u: every row with sin u < 0 is all sign failures; the
        # first such row lies just past pi, and its first point wins. No
        # transform kind has a phi'' that changes sign, so a stand-in with
        # the attributes the scan reads takes its place
        wobble = SimpleNamespace(
            eval=lambda u: 2 * u - math.sin(u),
            d1=lambda u: 2 - math.cos(u),
            d2=math.sin,
            label="wobble",
        )
        rep = check_convexity_conditions(
            wobble, make_power(2.0), CONVEX, self.HARNESS_GRID
        )
        us = self.HARNESS_GRID.points()
        first_row = us[us > math.pi][0]
        assert rep.worst_violation_b == math.inf
        assert rep.worst_point_b == (float(first_row), 0.01)

    def test_overflowing_grid_raises(self):
        with pytest.raises(NumericError):
            check_convexity_conditions(
                make_exp(), make_exp(), CONVEX, GridSpec(1e-3, 1e3, 8)
            )


def _holds(rep):
    return rep.condition_a_holds, rep.condition_b_holds


class TestClosedFormConditions:
    """The closed form for built-in kinds decides conditions (a) and (b) over
    all of (0, inf)^2; the grid scan is its reference wherever the two can
    only agree."""

    HARNESS_GRID = GridSpec(1e-2, 1e2, 24)

    @staticmethod
    def _agree(phi, psi, grid):
        for variant in (CONVEX, CONCAVE):
            closed = closed_form_conditions(phi, psi, variant)
            want = _holds(check_convexity_conditions(phi, psi, variant, grid))
            assert _holds(closed) == want, (phi.label, psi.label, variant, closed)

    def test_random_power_pairs_off_the_boundary(self):
        # acceptance 02's draws: (p, q) away from 0, 1 and 1/p + 1/q = 1
        rng = np.random.default_rng(20240817)
        grid = GridSpec(0.5, 2.0, 16)
        checked = 0
        while checked < 300:
            p, q = rng.uniform(-5.0, 5.0, size=2)
            if min(abs(p), abs(q), abs(p - 1), abs(q - 1)) <= 1e-3:
                continue
            if abs(1.0 / p + 1.0 / q - 1.0) <= 1e-3:
                continue
            checked += 1
            self._agree(make_power(1.0 / q), make_power(1.0 / p), grid)

    @pytest.mark.parametrize("other", [make_exp, make_log_shift])
    def test_exp_and_logshift_against_powers_in_both_roles(self, other):
        # exponents within 0.01 of 1/2 (the logshift boundary, where the grid
        # may differ; see the pinned test below) and of 0 and 1 are left out
        rng = np.random.default_rng(19)
        rs = [r for r in rng.uniform(-3.0, 3.0, 120)
              if min(abs(r), abs(r - 0.5), abs(r - 1.0)) > 1e-2]
        for r in rs + [-1.0, 0.25, 2.0]:
            self._agree(other(), make_power(r), self.HARNESS_GRID)
            self._agree(make_power(r), other(), self.HARNESS_GRID)

    def test_builtin_pairs_without_powers(self):
        for phi in (make_exp(), make_log_shift()):
            for psi in (make_exp(), make_log_shift()):
                self._agree(phi, psi, self.HARNESS_GRID)

    def test_ratio_infimum(self):
        # r = (a - 1)/a for x^a, 1 for exp, (-inf, -1) for logshift
        assert closed_form_conditions(make_exp(), make_exp(), CONVEX).ratio_inf == 1.0
        assert closed_form_conditions(
            make_power(2.0), make_power(3.0), CONVEX
        ).ratio_inf == pytest.approx(1 / 3, rel=1e-15)
        assert closed_form_conditions(
            make_log_shift(), make_power(0.25), CONCAVE
        ).ratio_inf == 3.0
        assert closed_form_conditions(
            make_log_shift(), make_log_shift(), CONCAVE
        ).ratio_inf == 1.0
        # a zero ratio (x^1) against an unbounded one is a zero product
        closed = closed_form_conditions(make_power(1.0), make_log_shift(), CONVEX)
        assert closed.ratio_inf == 0.0 and closed.phi2_sign == 0
        assert closed.condition_a_holds and not closed.condition_b_holds
        assert closed_form_conditions(make_exp(), make_log_shift(), CONVEX).ratio_inf == -math.inf

    @pytest.mark.parametrize("a,sign", [(-0.5, 1), (0.5, -1), (1.0, 0), (2.0, 1)])
    def test_condition_a_is_the_sign_of_phi2(self, a, sign):
        convex = closed_form_conditions(make_power(a), make_exp(), CONVEX)
        concave = closed_form_conditions(make_power(a), make_exp(), CONCAVE)
        assert convex.phi2_sign == sign
        assert (convex.condition_a_holds, concave.condition_a_holds) == (sign >= 0, sign <= 0)

    def test_conjugate_boundary_takes_the_grace_margin(self):
        # 1/p + 1/q = 1 up to rounding: the product is 1 within an ulp or two
        for p in np.linspace(1.2, 4.0, 57):
            closed = closed_form_conditions(
                make_power(1.0 - 1.0 / p), make_power(1.0 / p), CONCAVE
            )
            assert _holds(closed) == (True, True), p
            assert closed.ratio_inf == pytest.approx(1.0, abs=1e-14)

    def test_logshift_difference_from_the_grid_pinned(self):
        # logshift against x^b needs b <= 1/2 over (0, inf): the ratio product
        # (1 - 1/b) (-log(u + e)) tends to 1/b - 1 < 1 as u -> 0. The grid
        # starts at u = 0.01, where -log(0.01 + e) = -1.0037, so it passes b up
        # to about 0.50092
        phi = make_log_shift()
        for b, grid_b, closed_b in ((0.5, True, True), (0.5005, True, False),
                                    (0.5009, True, False), (0.501, False, False)):
            psi = make_power(b)
            grid = check_convexity_conditions(phi, psi, CONCAVE, self.HARNESS_GRID)
            closed = closed_form_conditions(phi, psi, CONCAVE)
            assert (grid.condition_b_holds, closed.condition_b_holds) == (grid_b, closed_b), b
            assert grid.condition_a_holds and closed.condition_a_holds


class TestClassifyPQ:
    @pytest.mark.parametrize(
        "p,q,region",
        [
            (-1.0, -1.0, PQRegion.A0),
            (-4.0, 0.8, PQRegion.A1),
            (0.8, -4.0, PQRegion.A2),
            (2.0, 2.0, PQRegion.A3),
            (3.0, 1.5, PQRegion.A3),
            (0.5, 0.5, PQRegion.NONE),
            (2.0, 1.5, PQRegion.NONE),  # 1/p + 1/q > 1
            (-2.0, 0.9, PQRegion.NONE),  # 1/p + 1/q < 1
            (-2.0, 2.0, PQRegion.NONE),
        ],
    )
    def test_known_points(self, p, q, region):
        assert classify_pq(p, q) is region

    def test_boundaries_included(self):
        assert classify_pq(-4.0, 0.8) is PQRegion.A1   # exactly conjugate
        assert classify_pq(2.0, 2.0) is PQRegion.A3

    def test_zero_rejected(self):
        with pytest.raises(ParameterError):
            classify_pq(0.0, 2.0)

    def test_nan_rejected(self):
        with pytest.raises(ParameterError):
            classify_pq(math.nan, 2.0)

    @given(
        st.floats(-5, 5).filter(lambda t: abs(t) > 1e-3 and abs(t - 1) > 1e-3),
        st.floats(-5, 5).filter(lambda t: abs(t) > 1e-3 and abs(t - 1) > 1e-3),
    )
    @settings(max_examples=150, deadline=None)
    def test_regions_match_grid_conditions(self, p, q):
        if abs(1 / p + 1 / q - 1) <= 1e-3:
            return
        region = classify_pq(p, q)
        phi, psi = make_power(1 / q), make_power(1 / p)
        convex = check_convexity_conditions(phi, psi, CONVEX, SMALL_GRID).both_hold
        concave = check_convexity_conditions(phi, psi, CONCAVE, SMALL_GRID).both_hold
        assert convex == (region in (PQRegion.A0, PQRegion.A1, PQRegion.A2))
        assert concave == (region is PQRegion.A3)
