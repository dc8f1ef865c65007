import hashlib
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intentnet.tensor import Rng, sigmoid, softmax, uniform_init


class TestElementwise:
    def test_sigmoid_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_two(self):
        # 1/(1+e^-2) evaluated at float64 precision
        npt.assert_allclose(sigmoid(2.0), 0.8807970779778823, rtol=1e-12)

    def test_sigmoid_extremes_finite(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        npt.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_sigmoid_symmetry(self):
        rng = Rng(3)
        x = rng.uniform(-8, 8, (100,))
        npt.assert_allclose(sigmoid(x) + sigmoid(-x), np.ones(100), atol=1e-6)


class TestSoftmax:
    def test_uniform_on_zeros(self):
        npt.assert_allclose(softmax(np.zeros(3)), np.full(3, 1 / 3), rtol=1e-12)

    def test_large_logits_no_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        npt.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_one_two_three(self):
        # exp(i)/sum(exp(1..3)) evaluated with math.exp
        exps = [math.exp(i) for i in (1.0, 2.0, 3.0)]
        expected = np.array([e / sum(exps) for e in exps])
        npt.assert_allclose(softmax(np.array([1.0, 2.0, 3.0])), expected, rtol=1e-12)
        npt.assert_allclose(expected, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_sums_to_one(self):
        rng = Rng(5)
        for _ in range(20):
            p = softmax(rng.uniform(-50, 50, (31,)))
            assert abs(p.sum() - 1.0) < 1e-6
            assert np.all(p > 0)

    def test_shift_invariance(self):
        rng = Rng(9)
        for shift in (-1000.0, -3.7, 0.0, 2.5, 1000.0):
            x = rng.uniform(-5, 5, (8,))
            npt.assert_allclose(softmax(x), softmax(x + shift), atol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))


class TestUniformInit:
    def test_determinism(self):
        a = uniform_init(Rng(42), (4, 5), 0.5)
        b = uniform_init(Rng(42), (4, 5), 0.5)
        npt.assert_array_equal(a, b)

    def test_bound(self):
        x = uniform_init(Rng(1), (100,), 0.1)
        assert np.all(np.abs(x) <= 0.1)

    def test_sample_mean_near_zero(self):
        x = uniform_init(Rng(2), (100_000,), 1.0, dtype=np.float64)
        assert abs(x.mean()) < 0.02

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ValueError):
            uniform_init(Rng(0), (2,), 0.0)


class TestRng:
    def test_identical_seed_identical_stream(self):
        a = Rng(123)
        b = Rng(123)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_different_seeds_differ(self):
        assert Rng(1).next_u64() != Rng(2).next_u64()

    def test_spawn_is_pure_and_independent(self):
        parent = Rng(77)
        parent.next_u64()  # consuming the parent must not affect children
        child_a = Rng(77).spawn(4)
        child_b = parent.spawn(4)
        assert child_a.next_u64() == child_b.next_u64()
        assert Rng(77).spawn(4).next_u64() != Rng(77).spawn(5).next_u64()

    def test_permutation_is_a_permutation(self):
        perm = Rng(6).permutation(50)
        assert sorted(perm.tolist()) == list(range(50))

    def test_random_in_unit_interval(self):
        r = Rng(8)
        xs = [r.random() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)


class TestRngStream:
    """The stream is pinned on its own, not only through seeded model bytes."""

    def test_first_outputs_of_a_seed(self):
        r = Rng(12345)
        assert [r.next_u64() for _ in range(5)] == [
            5183077046498735836, 3805546223250818746, 4087110861520818665,
            17199214947194931428, 15045656883698412809]

    def test_dropout_source_digest(self):
        # the stream the dropout masks of a seed-1 training run come from
        draws = Rng(1).spawn(2).uniform(0.0, 1.0, (10, 150))
        assert draws.dtype == np.float64
        assert hashlib.sha256(draws.tobytes()).hexdigest() == (
            "347346ec01c26c940b432fe3685ffcfa907855bc24b1e1ecd18591d6533200cd")

    def test_uniform_equals_scalar_random(self):
        a, b = Rng(4), Rng(4)
        draws = a.uniform(-0.25, 0.75, (7, 11))
        expected = [-0.25 + 1.0 * b.random() for _ in range(77)]
        assert draws.ravel().tolist() == expected
        assert a.next_u64() == b.next_u64()

    def test_zero_sized_shape_draws_nothing(self):
        a, b = Rng(9), Rng(9)
        assert a.uniform(0.0, 1.0, (3, 0)).shape == (3, 0)
        assert a.next_u64_array(0).dtype == np.uint64
        assert a.next_u64() == b.next_u64()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), prior=st.integers(0, 20),
           n=st.integers(0, 5000))
    @example(seed=0, prior=0, n=0)
    @example(seed=0, prior=0, n=1)
    @example(seed=1, prior=3, n=16)
    @example(seed=1, prior=3, n=17)
    @example(seed=2, prior=0, n=450)
    @example(seed=2, prior=1, n=1500)
    @example(seed=3, prior=0, n=4097)
    @example(seed=2 ** 64 - 1, prior=2, n=5000)
    def test_vector_draws_equal_sequential_draws(self, seed, prior, n):
        vector, scalar = Rng(seed), Rng(seed)
        for _ in range(prior):
            vector.next_u64()
            scalar.next_u64()
        draws = vector.next_u64_array(n)
        assert draws.dtype == np.uint64
        assert draws.tolist() == [scalar.next_u64() for _ in range(n)]
        assert vector.next_u64() == scalar.next_u64()
