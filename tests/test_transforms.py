import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from stochorder import transforms
from stochorder import (
    ConditionVariant,
    Direction,
    GridSpec,
    NumericError,
    ParameterError,
    PQRegion,
    check_convexity_conditions,
    classify_pq,
    make_exp,
    make_log_shift,
    make_power,
    Transform,
)

CONVEX = ConditionVariant.CONVEX_CASE
CONCAVE = ConditionVariant.CONCAVE_CASE
SMALL_GRID = GridSpec(0.5, 2.0, 16)


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
        # the analytic derivatives are exact; a plain central difference
        # missed f'' by 1% at x = 0.5 and rejected the map
        t = make_power(r)
        assert t.d2(1.0) == r * (r - 1.0)

    @pytest.mark.parametrize(
        "make",
        [make_exp, make_log_shift]
        + [lambda r=r: make_power(r) for r in (-1000.0, -97.0, -2.5, -0.3, 0.4, 3.0, 97.0, 1000.0)],
    )
    def test_second_difference_error_bounded(self, make):
        # the extrapolation cancels the h^2 term but multiplies the roundoff
        # by about 6; both stay far below the 1% validation tolerance
        t = make()
        worst = max(
            abs(transforms._fd2(t.eval, x) - t.d2(x)) / (1.0 + abs(t.d2(x)))
            for x in transforms._VALIDATION_GRID
        )
        assert worst < 1e-4

    def test_wrong_second_derivative_rejected(self):
        with pytest.raises(NumericError):
            Transform(
                eval=lambda x: x**3,
                d1=lambda x: 3 * x**2,
                d2=lambda x: 6.1 * x,
                inverse=lambda y: y ** (1 / 3),
                direction=Direction.INCREASING,
                label="cube",
            )

    def test_log_shift_values(self):
        t = make_log_shift()
        assert t.eval(0.0) == pytest.approx(1.0)
        assert t.inverse(1.0) == pytest.approx(0.0, abs=1e-12)
        assert t.d2(1.0) < 0

    def test_callable_protocol(self):
        assert make_power(2.0)(3.0) == pytest.approx(9.0)

    def test_inconsistent_custom_transform_rejected(self):
        with pytest.raises(NumericError):
            Transform(
                eval=lambda x: x**2,
                d1=lambda x: 2 * x,
                d2=lambda x: 2.0,
                inverse=lambda y: y,  # wrong inverse
                direction=Direction.INCREASING,
                label="square",
            )

    def test_wrong_direction_rejected(self):
        with pytest.raises(NumericError):
            Transform(
                eval=lambda x: x**2,
                d1=lambda x: 2 * x,
                d2=lambda x: 2.0,
                inverse=lambda y: math.sqrt(y),
                direction=Direction.DECREASING,
                label="square",
            )

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
        # first such row lies just past pi, and its first point wins
        wobble = Transform(
            eval=lambda u: 2 * u - math.sin(u),
            d1=lambda u: 2 - math.cos(u),
            d2=math.sin,
            inverse=lambda y: optimize.brentq(
                lambda u: 2 * u - math.sin(u) - y, 0.0, y, xtol=1e-15
            ),
            direction=Direction.INCREASING,
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
