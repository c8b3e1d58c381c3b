import math
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import (
    DimensionError,
    MajorizationMode,
    OrderError,
    ParameterError,
    WeightVector,
    as_weight_vector,
    brute_force_majorize,
    check_majorize,
    t_transform_chain,
)

FULL = MajorizationMode.FULL
SUB = MajorizationMode.WEAK_SUB
SUP = MajorizationMode.WEAK_SUP

int_vectors = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
    )
)


class TestWeightVector:
    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            WeightVector(())

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            WeightVector((1.0, float("nan")))

    def test_coercion_and_iteration(self):
        v = as_weight_vector(np.array([3, 1, 2]))
        assert list(v) == [3.0, 1.0, 2.0]
        assert len(v) == 3


class TestCheckMajorize:
    def test_mean_vector_is_majorized(self):
        assert check_majorize([2, 2, 2], [3, 2, 1])
        assert not check_majorize([3, 2, 1], [2, 2, 2])

    def test_reflexive(self):
        assert check_majorize([1.5, 0.5], [0.5, 1.5])

    def test_total_mismatch_fails_full(self):
        assert not check_majorize([1, 1], [3, 1], FULL)
        assert check_majorize([1, 1], [3, 1], SUB)

    def test_weak_sup_bottom_sums(self):
        # bottom partial sums of x dominate those of y
        assert check_majorize([2, 2], [1, 3], SUP)
        assert not check_majorize([1, 3], [2, 2], SUP)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            check_majorize([1, 2], [1, 2, 3])

    def test_relative_tolerance(self):
        big = 1e8
        assert check_majorize([big, big], [big + big * 1e-13, big - big * 1e-13])

    def test_negative_tol_rejected(self):
        with pytest.raises(ParameterError):
            check_majorize([1], [1], tol=-1.0)

    def test_nan_tol_rejected(self):
        with pytest.raises(ParameterError):
            check_majorize([1], [1], tol=math.nan)

    def test_infinite_tol_rejected(self):
        # an infinite slack would hold for any pair, and no JSON can record it
        with pytest.raises(ParameterError, match="finite"):
            check_majorize([1, 2], [1, 2], tol=math.inf)

    @pytest.mark.parametrize("mode", ["weak_sub", "full", None])
    def test_mode_not_a_member_rejected(self, mode):
        # a value the enum would take is still not a member: no silent FULL
        with pytest.raises(ParameterError, match="MajorizationMode"):
            check_majorize([1, 1], [3, 1], mode)
        assert check_majorize([1, 1], [3, 1], SUB)

    @pytest.mark.parametrize("mode", [FULL, SUB, SUP])
    def test_reflexive_where_sums_overflow(self, mode):
        # the partial sums reach inf, and inf - inf is NaN in the slack test
        x = [1e308, 1e308]
        assert check_majorize(x, x, mode)
        assert check_majorize(x, x[::-1], mode, tol=0.0)
        if mode is not SUB:  # the bottom sums differ before they overflow
            assert not check_majorize([1e307, 1e308], x, mode)
        # different vectors whose sums both overflow are not taken as equal:
        # the totals are 2.7e308 and 2.5e308
        big, small = [1e308, 1.7e308], [1e308, 1.5e308]
        if mode is SUP:
            big, small = small, big
        assert not check_majorize(big, small, mode)
        assert not check_majorize(big, small, mode, tol=0.0)

    @given(int_vectors)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_integer_brute_force(self, pair):
        x, y = pair
        for mode in (FULL, SUB, SUP):
            assert check_majorize(x, y, mode) == brute_force_majorize(x, y, mode)

    @given(int_vectors)
    @settings(max_examples=200, deadline=None)
    def test_full_implies_both_weak_orders(self, pair):
        x, y = pair
        if check_majorize(x, y, FULL):
            assert check_majorize(x, y, SUB)
            assert check_majorize(x, y, SUP)


def _transfer(draw, v):
    """A T-transform in integers: move 0..(big - small) units from the
    larger of two coordinates to the smaller, so the result is majorized
    by ``v``."""
    v = list(v)
    i, j = draw(st.lists(st.integers(0, len(v) - 1), min_size=2, max_size=2, unique=True))
    if v[i] < v[j]:
        i, j = j, i
    d = draw(st.integers(0, v[i] - v[j]))
    v[i] -= d
    v[j] += d
    return v


@st.composite
def majorized_chains(draw):
    """Integer vectors with x <=_m y <=_m z."""
    n = draw(st.integers(2, 5))
    z = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    y = _transfer(draw, z)
    return _transfer(draw, y), y, z


int_triples = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(*(st.lists(st.integers(0, 3), min_size=n, max_size=n),) * 3)
)


class TestMajorizationProperties:
    @given(int_vectors, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_invariant_under_permutation_of_either_argument(self, pair, rnd):
        x, y = pair
        px, py = rnd.sample(x, len(x)), rnd.sample(y, len(y))
        for mode in (FULL, SUB, SUP):
            want = check_majorize(x, y, mode)
            assert check_majorize(px, y, mode) == want
            assert check_majorize(x, py, mode) == want

    @given(majorized_chains())
    @settings(max_examples=200, deadline=None)
    def test_transitive_along_t_transform_chains(self, chain):
        x, y, z = chain
        assert check_majorize(x, y, FULL)
        assert check_majorize(y, z, FULL)
        assert check_majorize(x, z, FULL)

    @given(int_triples)
    @settings(max_examples=300, deadline=None)
    def test_transitive_in_every_mode(self, triple):
        x, y, z = triple
        for mode in (FULL, SUB, SUP):
            if check_majorize(x, y, mode) and check_majorize(y, z, mode):
                assert check_majorize(x, z, mode)

    @given(int_vectors, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_antisymmetric_up_to_permutation(self, pair, rnd):
        x, y = pair
        for mode in (FULL, SUB, SUP):
            if check_majorize(x, y, mode) and check_majorize(y, x, mode):
                assert sorted(x) == sorted(y)
            px = rnd.sample(x, len(x))
            assert check_majorize(x, px, mode) and check_majorize(px, x, mode)


class TestCheckMajorizeInputs:
    @pytest.mark.parametrize(
        "x",
        [(1, 3, 2), [1.0, 3.0, 2.0], np.array([1, 3, 2]), WeightVector((1.0, 3.0, 2.0))],
        ids=["int_tuple", "list", "ndarray", "weight_vector"],
    )
    def test_vector_forms_agree(self, x):
        assert check_majorize([2, 2, 2], x)
        assert not check_majorize(x, [2, 2, 2])
        assert check_majorize(x, (3, 2, 1)) and check_majorize((3, 2, 1), x)

    @pytest.mark.parametrize("scalar", [2, 2.0, np.float64(2.0), np.int64(2), np.array(2.0)])
    def test_scalar_is_a_one_entry_vector(self, scalar):
        assert check_majorize(scalar, [2])
        assert check_majorize([1], scalar, SUB)
        assert not check_majorize([1], scalar, SUP)

    @pytest.mark.parametrize(
        "bad", [[], (), np.array([]), [1.0, math.nan], [math.inf, 1.0], [-math.inf], math.nan]
    )
    def test_empty_and_non_finite_rejected(self, bad):
        for mode in (FULL, SUB, SUP):
            with pytest.raises(ParameterError):
                check_majorize(bad, [1.0, 2.0], mode)
            with pytest.raises(ParameterError):
                check_majorize([1.0, 2.0], bad, mode)

    def test_bad_entry_reported_before_length_mismatch(self):
        with pytest.raises(ParameterError):
            check_majorize([1.0, 2.0, 3.0], [math.nan])


def _slack_only_majorize(x, y, mode, tol):
    """Reference for :func:`check_majorize` on valid equal-length input:
    every partial-sum step takes the slack test, with no fast path for
    finite sums already in order."""
    xs, ys = sorted(map(float, x)), sorted(map(float, y))
    if mode is SUB:
        for a, b in zip(accumulate(reversed(xs)), accumulate(reversed(ys))):
            if not a <= b + tol * (1.0 + max(abs(a), abs(b))):
                return xs == ys
        return True
    bx, by = list(accumulate(xs)), list(accumulate(ys))
    if mode is not SUP:
        a, b = bx.pop(), by.pop()
        if not abs(a - b) <= tol * (1.0 + max(abs(a), abs(b))):
            return xs == ys
    for a, b in zip(bx, by):
        if not a >= b - tol * (1.0 + max(abs(a), abs(b))):
            return xs == ys
    return True


# entries whose partial sums overflow, underflow or tie
_EDGE_ENTRIES = st.one_of(
    st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308, 5e-324, -5e-324, -0.0]),
    st.integers(-9, 9).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)
# 1e300 stands in for an infinite tol, which is rejected: its slack
# overflows to inf at entries past about 1.8e8
_TOLS = (0.0, 1e-12, 1e-6, 1e300)
_FORMS = (tuple, list, np.array, lambda v: WeightVector(tuple(v)))


@st.composite
def edge_float_pairs(draw):
    n = draw(st.integers(1, 6))
    x = draw(st.lists(_EDGE_ENTRIES, min_size=n, max_size=n))
    y = draw(st.one_of(st.permutations(x), st.lists(_EDGE_ENTRIES, min_size=n, max_size=n)))
    return x, list(y)


class TestFastPathEquivalence:
    """The in-order fast path of ``check_majorize`` answers as the slack
    test alone does, where sums overflow, with ``tol = 0`` (slack 0 * inf is
    NaN) and with a slack that overflows to inf."""

    @given(edge_float_pairs())
    @settings(max_examples=300, deadline=None)
    def test_matches_slack_only_reference(self, pair):
        x, y = pair
        for mode in (FULL, SUB, SUP):
            for tol in _TOLS:
                want = _slack_only_majorize(x, y, mode, tol)
                for form in _FORMS:
                    assert check_majorize(form(x), form(y), mode, tol) == want, (form, mode, tol)

    def test_overflowing_equal_totals_fail_full(self):
        # both totals are inf: a bare ``a == b`` would pass them
        assert not check_majorize((2, 1e308, 1e308), (1, 1e308, 1e308), FULL)

    def test_overflowing_top_sum_fails_at_zero_tol(self):
        # y's second top sum is inf, and 0 * inf slack is NaN: a bare
        # ``a <= b`` would pass it
        x, y = [9, 6, 1, -1], [1.7e308, 0, -1.3691775656187065e202, 1.7e308]
        assert not check_majorize(x, y, SUB, tol=0.0)
        assert not _slack_only_majorize(x, y, SUB, 0.0)


def _random_majorized_pair(rng, n):
    """y random, x obtained by averaging T-transforms so x <=_m y."""
    y = rng.uniform(0.0, 10.0, size=n)
    x = y.copy()
    for _ in range(rng.integers(1, 4)):
        i, j = rng.choice(n, size=2, replace=False)
        lam = rng.uniform(0.0, 1.0)
        xi, xj = x[i], x[j]
        x[i] = lam * xi + (1 - lam) * xj
        x[j] = lam * xj + (1 - lam) * xi
    return x, y


class TestTTransformChain:
    def test_single_transform_case(self):
        chain = t_transform_chain([2, 2, 2], [3, 2, 1])
        assert len(chain) == 2 and all(isinstance(s, WeightVector) for s in chain)
        assert list(chain[0]) == [2.0, 2.0, 2.0]
        assert list(chain[-1]) == [1.0, 2.0, 3.0]

    def test_identical_vectors_give_trivial_chain(self):
        chain = t_transform_chain([1, 2], [2, 1])
        assert len(chain) == 1

    def test_precondition_enforced(self):
        with pytest.raises(OrderError):
            t_transform_chain([3, 2, 1], [2, 2, 2])

    @pytest.mark.parametrize("seed", range(8))
    def test_chain_structure_on_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        x, y = _random_majorized_pair(rng, n)
        chain = t_transform_chain(x, y)
        steps = [np.array(list(s)) for s in chain]
        assert len(steps) <= n
        np.testing.assert_allclose(steps[0], np.sort(x), atol=1e-9)
        np.testing.assert_allclose(steps[-1], np.sort(y), atol=1e-9)
        for lo, hi in zip(steps, steps[1:]):
            # consecutive steps differ in at most two coordinates and are
            # ordered by majorization
            assert np.sum(~np.isclose(lo, hi, atol=1e-9)) <= 2
            assert check_majorize(lo, hi, FULL, tol=1e-9)

    @given(
        st.lists(st.integers(0, 8), min_size=1, max_size=6),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_chain_properties_on_integer_pairs(self, y, moves):
        # x <=_m y by unit transfers from a larger coordinate to a smaller
        # one; integer data keep every step of the chain exact
        x, n = list(y), len(y)
        for i, j in moves:
            i, j = i % n, j % n
            if x[i] - x[j] >= 2:
                x[i] -= 1
                x[j] += 1
        chain = t_transform_chain(x, y)
        steps = [list(s) for s in chain]
        assert steps[0] == sorted(x) and steps[-1] == sorted(y)
        assert len(steps) - 1 <= n - 1
        for lo, hi in zip(steps, steps[1:]):
            # the extreme-pair rule keeps every step sorted
            assert hi == sorted(hi)
            assert sum(a != b for a, b in zip(lo, hi)) <= 2
            assert brute_force_majorize(lo, hi, FULL)
            assert check_majorize(lo, hi, FULL)


positive_pairs = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n),
        st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n),
    )
)


class TestTransformPreservation:
    """Weak majorization under an elementwise monotone convex map: an
    increasing one keeps the top-sum order, a decreasing one takes the
    bottom-sum order to the top-sum order (Marshall, Olkin & Arnold,
    5.A.1). Premises are checked without slack, so that the slack of the
    conclusion is not asked to cover the premise's."""

    @given(positive_pairs)
    @settings(max_examples=100, deadline=None)
    def test_exp_preserves_weak_sub(self, pair):
        x, y = pair
        if check_majorize(x, y, SUB, tol=0.0):
            assert check_majorize([math.exp(t) for t in x], [math.exp(t) for t in y], SUB)

    @given(positive_pairs)
    @settings(max_examples=100, deadline=None)
    def test_square_preserves_weak_sub(self, pair):
        x, y = pair
        if check_majorize(x, y, SUB, tol=0.0):
            assert check_majorize([t * t for t in x], [t * t for t in y], SUB)

    @given(positive_pairs)
    @settings(max_examples=100, deadline=None)
    def test_decreasing_convex_takes_weak_sup_to_weak_sub(self, pair):
        x, y = pair
        if check_majorize(x, y, SUP, tol=0.0):
            assert check_majorize([1 / t for t in x], [1 / t for t in y], SUB)

    @given(int_vectors)
    @settings(max_examples=100, deadline=None)
    def test_negation_flips_weak_orders(self, pair):
        # the bottom sums of x are the negated top sums of -x
        x, y = pair
        negated = ([-t for t in x], [-t for t in y])
        assert check_majorize(x, y, SUP) == check_majorize(*negated, SUB)
