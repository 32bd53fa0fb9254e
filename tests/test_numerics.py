import re
from fractions import Fraction

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


def reach_sets(succ):
    """reach[i]: the nodes a breadth-first search from i visits, i included."""
    reach = []
    for i in range(len(succ)):
        seen, frontier = {i}, [i]
        while frontier:
            frontier = [w for v in frontier for w in succ[v] if w not in seen]
            seen.update(frontier)
        reach.append(seen)
    return reach


@st.composite
def digraphs(draw, max_nodes=12, max_degree=4):
    n = draw(st.integers(0, max_nodes))
    return [draw(st.lists(st.integers(0, n - 1), max_size=max_degree, unique=True))
            for _ in range(n)]


def oracle_tarjan_scc(n, succ) -> list[list[int]]:
    """The earlier form of numerics._tarjan_scc, kept verbatim as its
    reference: a (state, child position) work stack and an on_stack
    flag, each component popped off the stack one state at a time."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    components: list[list[int]] = []
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            children = succ[v]
            while pi < len(children):
                w = children[pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(sorted(component))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return components


class TestTarjanScc:
    @settings(max_examples=300, deadline=None)
    @given(digraphs())
    def test_components_sorted_sinks_first(self, succ):
        n = len(succ)
        components = numerics._tarjan_scc(n, succ)
        assert sorted(i for c in components for i in c) == list(range(n))
        assert all(c == sorted(c) for c in components)
        where = {i: k for k, c in enumerate(components) for i in c}
        reach = reach_sets(succ)
        for i in range(n):
            for j in range(n):
                assert (where[i] == where[j]) == (j in reach[i] and i in reach[j])
            for j in succ[i]:
                assert where[j] <= where[i]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(digraphs(), digraphs(max_nodes=40, max_degree=3)))
    def test_same_components_as_oracle(self, succ):
        """The same lists in the same closing order, which the solve
        order of transient_solve and every caller's iteration rely on."""
        assert numerics._tarjan_scc(len(succ), succ) == oracle_tarjan_scc(len(succ), succ)


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


def csr(Q):
    """Compressed rows (indptr, col, val) of a dense matrix."""
    Q = np.asarray(Q, dtype=float)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(Q, axis=1))))
    return indptr, np.nonzero(Q)[1], Q[Q != 0.0]


@st.composite
def sparse_transient_problems(draw, max_states=10, widths=st.integers(1, 3)):
    """(Q, exit, rhs): rows of [Q, exit] sum to 1.  The states are cut into
    runs wired as cycles, which are periodic strongly connected blocks
    unless an extra edge lands inside; extra edges, self-loops and
    exits carry weights of 1 down to 1e-12 against the cycle's 1."""
    n = draw(st.integers(1, max_states))
    order = draw(st.permutations(range(n)))
    cuts = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    weight = np.zeros((n, n))
    start = 0
    for k in range(1, n + 1):
        if k == n or cuts[k]:
            run = order[start:k]
            if len(run) > 1:
                for a, b in zip(run, run[1:] + run[:1]):
                    weight[a, b] = 1.0
            start = k
    scales = st.sampled_from([1.0, 0.3, 1e-3, 1e-9, 1e-12])
    for i, j, w in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                           scales), max_size=2 * n)):
        weight[i, j] += w  # j == i is a self-loop
    out = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 1e-3, 1e-9, 1e-12]),
                                 min_size=n, max_size=n)))
    out[weight.sum(axis=1) + out == 0.0] = 1.0
    total = weight.sum(axis=1) + out
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rhs = rng.normal(size=(n, draw(widths)))
    return weight / total[:, np.newaxis], out / total, rhs


def oracle_transient_solve(indptr, col, val, exit, rhs) -> np.ndarray:
    """The earlier form of numerics.transient_solve, kept verbatim as its
    reference: the whole component list first, then every single state
    substituted on numpy row views of X."""
    n = len(indptr) - 1
    rhs = np.asarray(rhs, dtype=float)
    exit = np.asarray(exit, dtype=float)
    if rhs.shape[0] != n or exit.shape != (n,):
        raise DimensionMismatch(f"rhs has {rhs.shape[0]} rows and exit {exit.shape} "
                                f"entries for {n} states")
    row = np.repeat(np.arange(n), np.diff(indptr))
    off = np.asarray(col) != row  # a self-loop only lowers the mass leaving
    row, col, val = row[off], np.asarray(col)[off], np.asarray(val, dtype=float)[off]
    leave = exit + np.bincount(row, weights=val, minlength=n)
    if not np.all(leave > 0.0):
        raise NotTransient(f"state {int(np.argmin(leave > 0.0))} never leaves itself")
    val = val / leave[row]
    X = (rhs[:, np.newaxis] if rhs.ndim == 1 else rhs) / leave[:, np.newaxis]
    ptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n)))).tolist()
    succ = col.tolist()
    blocks = oracle_tarjan_scc(n, [succ[ptr[i]:ptr[i + 1]] for i in range(n)])

    weight = val.tolist()
    rows = list(X)  # views: x_i += w * x_j on rows, with no per-state indexing
    local = np.full(n, -1)
    for block in blocks:  # sinks first: successors outside the block are solved
        if len(block) == 1:
            x = rows[block[0]]
            for e in range(ptr[block[0]], ptr[block[0] + 1]):
                x += weight[e] * rows[succ[e]]
            continue
        m = len(block)
        idx = np.array(block)
        e = np.concatenate([np.arange(ptr[i], ptr[i + 1]) for i in block])
        r = np.repeat(np.arange(m), [ptr[i + 1] - ptr[i] for i in block])
        c, v = col[e], val[e]
        local[idx] = np.arange(m)
        at = local[c]
        local[idx] = -1
        inside, out = at >= 0, at < 0
        G = np.zeros((m, m + 1 + X.shape[1]))  # [Q in the block | mass leaving it | rhs]
        G[r[inside], at[inside]] = v[inside]
        G[:, m] = exit[idx] / leave[idx] + np.bincount(r[out], weights=v[out], minlength=m)
        G[:, m + 1:] = X[idx]
        np.add.at(G[:, m + 1:], r[out], v[out, np.newaxis] * X[c[out]])
        for k in range(m):  # the pivot: mass leaving k for later states or the block
            pivot = G[k, k + 1:m + 1].sum()
            if not pivot > 0.0:
                raise NotTransient(f"{m} states around state {block[0]} form a closed class")
            G[k] /= pivot
            G[k + 1:, k + 1:] += np.outer(G[k + 1:, k], G[k, k + 1:])
        x = G[:, m + 1:]
        for k in reversed(range(m)):
            x[k] += G[k, k + 1:m] @ x[k + 1:]
        X[idx] = x
    return X.reshape(rhs.shape)


def reaches_exit(Q, exit):
    """States with a path to a row that has exit mass."""
    good = exit > 0.0
    while True:
        more = good | (Q[:, good] > 0.0).any(axis=1)
        if (more == good).all():
            return good
        good = more


def exact_solve(Q, exit, rhs):
    """(I - Q)^{-1} rhs in exact rational arithmetic on the float data,
    each pivot 1 - Q[i, i] read as exit[i] plus row i's off-diagonal
    mass, as transient_solve reads it.  Gaussian elimination without
    row exchanges: I - Q is a nonsingular M-matrix when every state
    reaches an exit, so every pivot is positive."""
    n = len(exit)
    rows = []
    for i in range(n):
        row = [-Fraction(float(q)) for q in Q[i]]
        row[i] = Fraction(float(exit[i])) - sum(row[:i] + row[i + 1:])
        rows.append(row + [Fraction(float(v)) for v in rhs[i]])
    for k in range(n):
        for i in range(k + 1, n):
            if rows[i][k]:
                f = rows[i][k] / rows[k][k]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    x = [None] * n
    for k in reversed(range(n)):
        x[k] = [(rows[k][n + c] - sum(rows[k][j] * x[j][c] for j in range(k + 1, n)))
                / rows[k][k] for c in range(rhs.shape[1])]
    return np.array(x, dtype=float)


class TestTransientSolve:
    @settings(max_examples=400, deadline=None)
    @given(sparse_transient_problems())
    def test_matches_dense_solve(self, problem):
        """Against the exact solution of the float data, by dense
        elimination in rational arithmetic: every entry within 4n²u of
        (I - Q)^{-1}|rhs| (the worst of 5059 draws reached 0.44n²u).  The
        residual is at the rounding level of the data I and Q, and a
        closed class (some state never reaches an exit) raises
        NotTransient.  np.linalg.solve(I - Q) is no reference here: where
        a cycle's only way out is 1e-12 then 1e-9, the rounding of Q's
        row sums outweighs the exit, and that solve is off by orders of
        magnitude or finds I - Q singular."""
        Q, exit, rhs = problem
        n = len(exit)
        if not reaches_exit(Q, exit).all():
            with pytest.raises(NotTransient):
                numerics.transient_solve(*csr(Q), exit, rhs)
            return
        X = numerics.transient_solve(*csr(Q), exit, rhs)
        A = np.eye(n) - Q
        u = np.finfo(float).eps
        # 1 - Q[i, i] is not exact, so the diagonal's scale is 1 + Q[i, i]
        scale = (np.eye(n) + Q) @ np.abs(X) + np.abs(rhs)
        assert np.all(np.abs(A @ X - rhs) <= 10 * n * u * scale)
        exact = exact_solve(Q, exit, np.hstack([rhs, np.abs(rhs)]))
        ref, magnitude = exact[:, :rhs.shape[1]], exact[:, rhs.shape[1]:]
        assert np.all(np.abs(X - ref) <= 4 * n * n * u * magnitude)

    @settings(max_examples=400, deadline=None)
    @given(sparse_transient_problems(max_states=24, widths=st.sampled_from(
        [1, 2, numerics.NARROW_COLUMNS, numerics.NARROW_COLUMNS + 1, 40])))
    def test_same_bits_as_oracle(self, problem):
        """Bit for bit the oracle's X, for a one-column rhs and for rows
        on both sides of the narrow rule, and NotTransient with the same
        message exactly when the oracle raises it."""
        Q, exit, rhs = problem
        for b in (rhs, rhs[:, 0]):
            try:
                expected = oracle_transient_solve(*csr(Q), exit, b)
            except NotTransient as exc:
                with pytest.raises(NotTransient, match=re.escape(str(exc))):
                    numerics.transient_solve(*csr(Q), exit, b)
                continue
            assert np.array_equal(numerics.transient_solve(*csr(Q), exit, b), expected)

    def test_single_state_divides_by_exit_mass(self):
        """A self-loop of 1 - eps: the solve divides by eps itself, where
        1 - (1 - eps) has lost four digits at 1e-12."""
        eps = 1e-12
        x = numerics.transient_solve(*csr([[1.0 - eps]]), [eps], [2.0])
        assert x[0] == 2.0 / eps
        assert abs(np.linalg.solve([[1.0 - (1.0 - eps)]], [2.0])[0] * eps / 2.0 - 1.0) > 1e-5

    def test_periodic_block_behind_a_chain(self):
        """State 0 feeds the periodic block {1, 2, 3}, whose only exit is
        state 3's 1e-9: every state needs about 3e9 steps to leave."""
        eps = 1e-9
        Q = np.zeros((4, 4))
        Q[0, 1] = Q[1, 2] = Q[2, 3] = 1.0
        Q[3, 1] = 1.0 - eps
        X = numerics.transient_solve(*csr(Q), [0.0, 0.0, 0.0, eps], np.ones(4))
        steps = 3.0 / eps - 2.0  # expected visits until the exit, from state 1
        np.testing.assert_allclose(X, [steps + 1.0, steps, steps - 1.0, steps - 2.0],
                                   rtol=1e-6)

    @pytest.mark.parametrize("Q, exit", [
        ([[1.0]], [0.0]),                                       # absorbing self-loop
        ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],  # a chain into a closed
         [0.0, 0.0, 0.0]),                                      # periodic pair
    ])
    def test_closed_class_raises(self, Q, exit):
        with pytest.raises(NotTransient):
            numerics.transient_solve(*csr(Q), exit, np.ones(len(exit)))


class TestLongGraphs:
    """A path and a cycle of 10^5 states: a recursive search would pass
    the interpreter's recursion limit of about a thousand frames."""

    N = 10 ** 5

    def test_components_of_path_and_cycle(self):
        n = self.N
        path = [[i + 1] for i in range(n - 1)] + [[]]
        cycle = [[(i + 1) % n] for i in range(n)]
        found = numerics._tarjan_scc(n, path)
        assert found == oracle_tarjan_scc(n, path) == [[i] for i in reversed(range(n))]
        found = numerics._tarjan_scc(n, cycle)
        assert found == oracle_tarjan_scc(n, cycle) == [list(range(n))]

    @pytest.mark.parametrize("width", [2, numerics.NARROW_COLUMNS + 1])
    def test_solve_along_a_path(self, width):
        n = self.N
        indptr = np.concatenate(([0], np.arange(1, n), [n - 1]))
        col, val = np.arange(1, n), np.full(n - 1, 0.5)
        exit = np.full(n, 0.5)
        exit[-1] = 1.0
        rhs = np.random.default_rng(width).random((n, width))
        X = numerics.transient_solve(indptr, col, val, exit, rhs)
        assert np.array_equal(X, oracle_transient_solve(indptr, col, val, exit, rhs))
