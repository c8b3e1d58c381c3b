import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochorder import (
    DimensionError,
    MajorizationMode,
    OrderError,
    ParameterError,
    PreservationCase,
    WeightVector,
    as_weight_vector,
    brute_force_majorize,
    check_majorize,
    check_transform_preservation,
    make_exp,
    sort_increasing,
    t_transform_chain,
    weak_completion,
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

    def test_sort_increasing(self):
        assert list(sort_increasing([3, 1, 2])) == [1.0, 2.0, 3.0]


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
        assert len(chain) == 2
        assert list(chain.steps[0]) == [2.0, 2.0, 2.0]
        assert list(chain.steps[-1]) == [1.0, 2.0, 3.0]

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
        steps = [np.array(list(s)) for s in chain.steps]
        assert len(steps) <= n
        np.testing.assert_allclose(steps[0], np.sort(x), atol=1e-9)
        np.testing.assert_allclose(steps[-1], np.sort(y), atol=1e-9)
        for lo, hi in zip(steps, steps[1:]):
            # consecutive steps differ in at most two coordinates and are
            # ordered by majorization
            assert np.sum(~np.isclose(lo, hi, atol=1e-9)) <= 2
            assert check_majorize(lo, hi, FULL, tol=1e-9)


class TestWeakCompletion:
    def test_weak_sup_bump(self):
        c = np.array(list(weak_completion([2, 2], [1, 3], SUP)))
        assert np.all(c >= np.array([2, 2]) - 1e-12)
        # top partial sums of c dominate those of v
        assert np.all(np.cumsum(np.sort(c)[::-1]) >= np.cumsum([3, 1]) - 1e-9)

    def test_weak_sup_no_bump_needed(self):
        c = list(weak_completion([2, 3], [1, 3], SUP))
        assert c == [2.0, 3.0]

    def test_weak_sub_reduction(self):
        u, v = [4, 2], [2, 2]
        c = np.array(list(weak_completion(u, v, SUB)))
        assert np.all(c <= np.array(u) + 1e-12)
        assert np.all(np.cumsum(np.sort(c)[::-1]) >= np.cumsum(np.sort(v)[::-1]) - 1e-9)

    def test_precondition_errors(self):
        with pytest.raises(OrderError):
            weak_completion([1, 1], [3, 3], SUP)
        with pytest.raises(OrderError):
            weak_completion([1, 1], [3, 3], SUB)
        with pytest.raises(ParameterError):
            weak_completion([1, 1], [1, 1], FULL)

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n),
                st.lists(st.floats(0.0, 20.0), min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_postconditions_hold_whenever_defined(self, pair):
        u, v = pair
        ua = np.array(u)
        slack = 1e-9 * (1.0 + np.abs(ua))
        for mode in (SUP, SUB):
            try:
                c = np.array(list(weak_completion(u, v, mode)))
            except OrderError:
                continue
            if mode is SUP:
                assert np.all(c >= ua - slack)
            else:
                assert np.all(c <= ua + slack)
            tc = np.cumsum(np.sort(c)[::-1])
            tv = np.cumsum(np.sort(v)[::-1])
            assert np.all(tc >= tv - 1e-9 * (1 + np.abs(tv)))


class TestTransformPreservation:
    def test_exp_preserves_weak_sub(self):
        # increasing convex map preserves the top-sum order
        assert check_transform_preservation(
            make_exp(), [1, 2], [0.5, 3], PreservationCase.I_CONVEX
        )

    def test_negation_flips_weak_orders(self):
        # decreasing convex: bottom-sum premise gives top-sum conclusion
        assert check_transform_preservation(
            lambda t: -t, [2, 2], [1, 3], PreservationCase.D_CONVEX
        )

    def test_premise_violation_raises(self):
        with pytest.raises(OrderError):
            check_transform_preservation(
                make_exp(), [5, 5], [1, 1], PreservationCase.I_CONVEX
            )

    @given(
        st.lists(st.floats(0.1, 5.0), min_size=2, max_size=5),
        st.lists(st.floats(0.1, 5.0), min_size=2, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_square_preserves_weak_sub(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        if not check_majorize(x, y, SUB):
            return
        assert check_transform_preservation(
            lambda t: t * t, x, y, PreservationCase.I_CONVEX
        )
