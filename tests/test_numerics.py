import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesynth import numerics
from cyclesynth.errors import (
    DimensionMismatch,
    NotStochastic,
    NotTransient,
    NumericalFailure,
)


def random_stochastic(rng, n, allow_structure=True):
    """Random stochastic matrix; sometimes sparse/periodic/reducible."""
    kind = rng.integers(0, 4) if allow_structure else 0
    if kind == 3:
        # deterministic permutation (periodic chains included)
        P = np.zeros((n, n))
        perm = rng.permutation(n)
        P[np.arange(n), perm] = 1.0
        return P
    P = rng.random((n, n))
    if kind >= 1:
        # sparsify, keeping at least one entry per row
        mask = rng.random((n, n)) < 0.6
        P = P * mask
        for i in range(n):
            if not P[i].any():
                P[i, rng.integers(0, n)] = 1.0
    if kind == 2 and n >= 4:
        # block-reducible: no edges from the second block back to the first
        k = n // 2
        P[k:, :k] = 0.0
        for i in range(k, n):
            if not P[i].any():
                P[i, rng.integers(k, n)] = 1.0
    return P / P.sum(axis=1, keepdims=True)


class TestSolveLinear:
    def test_full_rank(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([3.0, 5.0])
        res = numerics.solve_linear(A, b)
        assert not res.rank_deficient
        np.testing.assert_allclose(A @ res.x, b, atol=1e-12)

    def test_rank_deficient_min_norm(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        res = numerics.solve_linear(A, b)
        assert res.rank_deficient
        # minimum-norm solution of x0 + x1 = 1
        np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            numerics.solve_linear(np.ones((2, 3)), np.ones(2))
        with pytest.raises(DimensionMismatch):
            numerics.solve_linear(np.eye(2), np.ones(3))

    def test_nonfinite_rejected(self):
        A = np.eye(2)
        A[0, 0] = np.nan
        with pytest.raises(NumericalFailure):
            numerics.solve_linear(A, np.ones(2))


class TestRecurrentClasses:
    def test_two_state_swap(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        classes, transient = numerics.recurrent_classes(P)
        assert [sorted(c) for c in classes] == [[0, 1]]
        assert transient == []

    def test_absorbing_with_transient(self):
        P = np.array([
            [0.5, 0.5, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ])
        classes, transient = numerics.recurrent_classes(P)
        assert sorted(sorted(c) for c in classes) == [[1], [2]]
        assert transient == [0]

    def test_union_is_partition(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            P = random_stochastic(rng, n)
            classes, transient = numerics.recurrent_classes(P)
            members = sorted(i for c in classes for i in c) + transient
            assert sorted(members) == list(range(n))
            # recurrent classes are closed
            for c in classes:
                idx = np.array(c)
                outside = np.setdiff1d(np.arange(n), idx)
                if outside.size:
                    assert np.all(P[np.ix_(idx, outside)] == 0.0)


class TestStationaryDistribution:
    def test_swap(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        pi = numerics.stationary_distribution(P)
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_birth_death(self):
        P = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        pi = numerics.stationary_distribution(P)
        np.testing.assert_allclose(pi @ P, pi, atol=1e-10)
        assert abs(pi.sum() - 1.0) < 1e-12


class TestCesaroLimit:
    def test_periodic_swap(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        star = numerics.cesaro_limit(P)
        np.testing.assert_allclose(star, np.full((2, 2), 0.5), atol=1e-12)

    def test_transient_absorption_split(self):
        # state 0 is absorbed into {1} or {2} with probability 1/2 each
        P = np.array([
            [0.0, 0.5, 0.5],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ])
        star = numerics.cesaro_limit(P)
        expected = np.array([
            [0.0, 0.5, 0.5],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ])
        np.testing.assert_allclose(star, expected, atol=1e-12)

    def test_projection_and_commutation(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 15))
            P = random_stochastic(rng, n)
            star = numerics.cesaro_limit(P)
            np.testing.assert_allclose(star @ star, star, atol=1e-9)
            np.testing.assert_allclose(P @ star, star, atol=1e-9)
            np.testing.assert_allclose(star @ P, star, atol=1e-9)
            np.testing.assert_allclose(star.sum(axis=1), np.ones(n), atol=1e-9)

    def test_rejects_non_stochastic(self):
        with pytest.raises(NotStochastic):
            numerics.cesaro_limit(np.array([[0.5, 0.4], [0.0, 1.0]]))


class TestDeviationMatrix:
    def test_defining_identities(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            P = random_stochastic(rng, n)
            star = numerics.cesaro_limit(P)
            H = numerics.deviation_matrix(P, star)
            I = np.eye(n)
            np.testing.assert_allclose((I - P) @ H, I - star, atol=1e-8)
            np.testing.assert_allclose(star @ H, np.zeros((n, n)), atol=1e-8)
            np.testing.assert_allclose(H @ star, np.zeros((n, n)), atol=1e-8)

    def test_swap_value(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        H = numerics.deviation_matrix(P)
        np.testing.assert_allclose(H, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)


class TestPropertyBased:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=2, max_value=12))
    def test_cesaro_is_stochastic_projection(self, seed, n):
        rng = np.random.default_rng(seed)
        P = random_stochastic(rng, n)
        star = numerics.cesaro_limit(P)
        assert np.min(star) >= -1e-10
        np.testing.assert_allclose(star.sum(axis=1), np.ones(n), atol=1e-9)
        np.testing.assert_allclose(star @ star, star, atol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=2, max_value=12))
    def test_deviation_orthogonal_to_limit(self, seed, n):
        rng = np.random.default_rng(seed)
        P = random_stochastic(rng, n)
        star = numerics.cesaro_limit(P)
        H = numerics.deviation_matrix(P, star)
        np.testing.assert_allclose(star @ H, np.zeros((n, n)), atol=1e-8)
        np.testing.assert_allclose(H @ np.ones(n), np.zeros(n), atol=1e-8)


class TestTransientInverse:
    def test_neumann_series(self):
        Q = np.array([[0.0, 0.5], [0.0, 0.0]])
        inv = numerics.transient_inverse(Q)
        np.testing.assert_allclose(inv, [[1.0, 0.5], [0.0, 1.0]], atol=1e-12)

    def test_rejects_stochastic_block(self):
        # a stochastic Q (recurrent, not transient) makes I - Q singular
        Q = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(NotTransient):
            numerics.transient_inverse(Q)

    def test_nonnegative(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 10))
            Q = rng.random((n, n))
            Q = Q / (Q.sum(axis=1, keepdims=True) + 1.0)  # strictly substochastic
            inv = numerics.transient_inverse(Q)
            assert np.min(inv) >= -1e-12
            np.testing.assert_allclose((np.eye(n) - Q) @ inv, np.eye(n), atol=1e-9)
            rhs = rng.random((n, 3))
            x = numerics.transient_inverse(Q, rhs)
            assert np.min(x) >= 0.0
            np.testing.assert_allclose(x, inv @ rhs, atol=1e-9)
