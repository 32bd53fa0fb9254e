import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_policies,
    keyed_rows,
    make_mdp,
    pickup_delivery_dra,
    pickup_delivery_mdp,
    random_cycle_problem,
    ring_mdp,
    single_policy,
    successor_table,
)
from cyclesynth import acpc, amec, numerics, product, synth
from cyclesynth.acpc import CycleProblem, PolicyIterationStatus
from cyclesynth.errors import (
    CycleSynthError,
    ImproperPolicy,
    NotCommunicating,
    NumericalFailure,
    TooLarge,
)
from cyclesynth.mdp import LabeledMdp, StationaryPolicy, is_proper


def problem(mdp, pi=("pi",)):
    return CycleProblem(mdp=mdp, pi_states=mdp.pi_states(pi[0]))


class TestSplitAndFirstReturn:
    def test_split_partitions_rows(self, toy_a):
        prob = problem(toy_a)
        kern = acpc.split_kernel(prob, single_policy(toy_a))
        P, _ = toy_a.policy_matrices(single_policy(toy_a))
        np.testing.assert_allclose(kern.left + kern.right, P)
        assert np.all(kern.left[:, 1] == 0.0)   # state 1 is outside the set
        assert np.all(kern.right[:, 0] == 0.0)  # state 0 is inside

    def test_first_return_toy_a(self, toy_a):
        prob = problem(toy_a)
        tilde = acpc.first_return_kernel(prob, single_policy(toy_a))
        np.testing.assert_allclose(tilde, [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)
        g_cycle = acpc.cycle_cost(prob, single_policy(toy_a))
        np.testing.assert_allclose(g_cycle, [2.0, 1.0], atol=1e-12)

    def test_first_return_toy_c(self, toy_c):
        # the self-loop arrival back into s0 already completes a cycle:
        # from s0 the next entry costs 0.5*1 + 0.5*2 = 1.5
        prob = problem(toy_c)
        tilde = acpc.first_return_kernel(prob, single_policy(toy_c))
        np.testing.assert_allclose(tilde, [[1.0, 0.0], [1.0, 0.0]], atol=1e-12)
        g_cycle = acpc.cycle_cost(prob, single_policy(toy_c))
        np.testing.assert_allclose(g_cycle, [1.5, 1.0], atol=1e-12)

    def test_improper_policy_rejected(self, toy_b):
        prob = problem(toy_b)
        loop = StationaryPolicy({0: 0, 1: 0})
        # properness is toward the cycle set {1}: the self-loop never gets there
        bad = CycleProblem(mdp=toy_b, pi_states=frozenset({1}))
        with pytest.raises(ImproperPolicy):
            acpc.first_return_kernel(bad, loop)

    def test_fixed_point_identities_random(self):
        checked = 0
        for seed in range(40):
            prob, _k = random_cycle_problem(seed)
            mdp = prob.mdp
            mask = prob.pi_mask()
            for mu in all_policies(mdp):
                if not is_proper(mdp, mu, prob.pi_states):
                    continue
                kern = acpc.split_kernel(prob, mu)
                tilde_P = acpc.first_return_kernel(prob, mu)
                tilde_g = acpc.cycle_cost(prob, mu)
                _, g = mdp.policy_matrices(mu)
                np.testing.assert_allclose(
                    tilde_P, kern.right @ tilde_P + kern.left, atol=1e-9)
                np.testing.assert_allclose(
                    tilde_g, kern.right @ tilde_g + g, atol=1e-9)
                np.testing.assert_allclose(tilde_P.sum(axis=1), 1.0, atol=1e-9)
                assert np.all(tilde_P[:, ~mask] == 0.0)
                checked += 1
                if checked >= 60:
                    return
        assert checked > 0


class TestEvaluate:
    def test_toy_a(self, toy_a):
        gb = acpc.acpc_evaluate(problem(toy_a), single_policy(toy_a))
        np.testing.assert_allclose(gb.J, [2.0, 2.0], atol=1e-10)
        assert gb.lam == pytest.approx(2.0)
        assert gb.gain_spread() <= 1e-10

    def test_toy_b_self_loop(self, toy_b):
        gb = acpc.acpc_evaluate(problem(toy_b), StationaryPolicy({0: 0, 1: 0}))
        # every cycle is the self-loop at s0; from s1 the first (partial)
        # cycle costs only the step back in
        np.testing.assert_allclose(gb.J, [5.0, 5.0], atol=1e-10)

    def test_toy_b_swap(self, toy_b):
        gb = acpc.acpc_evaluate(problem(toy_b), StationaryPolicy({0: 1, 1: 0}))
        np.testing.assert_allclose(gb.J, [2.0, 2.0], atol=1e-10)

    def test_toy_c(self, toy_c):
        gb = acpc.acpc_evaluate(problem(toy_c), single_policy(toy_c))
        np.testing.assert_allclose(gb.J, [1.5, 1.5], atol=1e-10)

    def test_defining_equations_random(self):
        for evaluate in (acpc.acpc_evaluate, acpc.acpc_evaluate_direct):
            checked = 0
            for seed in range(60):
                prob, _k = random_cycle_problem(seed)
                mdp = prob.mdp
                proper = [mu for mu in all_policies(mdp)
                          if is_proper(mdp, mu, prob.pi_states)]
                for mu in proper[:80 - checked]:
                    gb = evaluate(prob, mu)
                    P, g = mdp.policy_matrices(mu)
                    kern = acpc.split_kernel(prob, mu)
                    np.testing.assert_allclose(P @ gb.J, gb.J, atol=1e-7)
                    np.testing.assert_allclose(
                        gb.J + gb.h, g + kern.right @ gb.J + P @ gb.h, atol=1e-7)
                    np.testing.assert_allclose(
                        gb.h + gb.v, kern.right @ gb.h + P @ gb.v, atol=1e-7)
                    checked += 1
                if checked >= 80:
                    break
            assert checked == 80, evaluate.__name__

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, 1e-9, 1e-12])
    def test_rare_entry_large_gain(self, eps):
        """Entering the cycle set takes 1/eps steps on average, so the gain
        is 2 + 1/eps; the evaluation tolerance scales with it.  The solver
        divides by the mass leaving state 1, eps itself, and never by
        1 - (1 - eps), which has lost most of its digits at 1e-12.  The
        dense oracle may refuse such an input, but only with a typed
        error."""
        rare = make_mdp(
            3, ["a"],
            rows={(0, "a"): [(1, 1.0)], (1, "a"): [(2, eps), (1, 1.0 - eps)],
                  (2, "a"): [(0, 1.0)]},
            costs={(0, "a"): 1.0, (1, "a"): 1.0, (2, "a"): 1.0},
            labels={0: ["pi"]},
        )
        lam = 2.0 + 1.0 / eps
        gb = acpc.acpc_evaluate(problem(rare), single_policy(rare))
        assert gb.lam == pytest.approx(lam, rel=1e-8 if eps >= 1e-6 else 1e-6)
        try:
            direct = acpc.acpc_evaluate_direct(problem(rare), single_policy(rare))
        except CycleSynthError:
            assert eps < 1e-6  # the oracle kept its answers at the larger eps
        else:
            assert direct.lam == pytest.approx(lam, rel=1e-8 if eps >= 1e-6 else 1e-6)

    @pytest.mark.parametrize("part", ["cost", "kernel"])
    def test_residual_guard(self, monkeypatch, part):
        """A first-return solve that is off by 1e-6 still gives a stochastic
        chain on the cycle set; only the defining-equation residual shows
        the error."""
        mdp = pickup_delivery_mdp()
        prob = CycleProblem(mdp=mdp, pi_states=frozenset({0, 5}))
        mu = single_policy(mdp)
        acpc.acpc_evaluate(prob, mu)
        exact = numerics.transient_solve

        def perturbed(indptr, col, val, exit, rhs):
            X = exact(indptr, col, val, exit, rhs)
            if part == "cost":
                X[:, -1] += 1e-6
            else:  # move 1e-6 of the mass between the two cycle-set columns
                X[:, :2] = (1.0 - 1e-6) * X[:, :2] + 1e-6 * X[:, 1::-1]
            return X

        monkeypatch.setattr(numerics, "transient_solve", perturbed)
        with pytest.raises(NumericalFailure, match="defining equations"):
            acpc.acpc_evaluate(prob, mu)


    def test_dense_peak_two_matrices(self):
        """One evaluation holds no n x n array any more, let alone two: the
        first-return system is solved over the policy's sparse rows."""
        assert evaluation_peak(600, 602) <= 0.5 * 8 * 602 ** 2

    def test_dense_peak_falls_with_size(self):
        """The peak grows with the rows, not with n^2: on the 4801-state
        component it is a far smaller share of one dense matrix."""
        assert evaluation_peak(3200, 4801) <= 0.1 * 8 * 4801 ** 2


def evaluation_peak(ring: int, states: int) -> int:
    """tracemalloc peak in bytes of one acpc_evaluate of the initial
    policy on the largest component of the ring_mdp(ring) product, which
    must have the given number of states."""
    prod = product.build_product(ring_mdp(ring), pickup_delivery_dra(), "pickup")
    component = max(amec.accepting_amecs(prod), key=lambda c: len(c.states))
    prob, k_local, _, _ = synth.amec_cycle_problem(prod, component)
    assert prob.mdp.n_states == states
    rows, _ = acpc._initial_policy(prob, k_local)
    mu = StationaryPolicy(dict(enumerate(prob.mdp.action[rows].tolist())))
    tracemalloc.start()
    try:
        acpc.acpc_evaluate(prob, mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def side_by_side(parts):
    """One problem whose blocks are the given (problem, K set) parts, in
    order, with the union of their K sets.  The parts share one action
    alphabet."""
    rows, costs, labels, k_union, starts = {}, {}, {}, set(), []
    base = 0
    for part, k_states in parts:
        mdp = part.mdp
        for (i, a), (succ, prob, cost) in keyed_rows(mdp).items():
            rows[(base + i, mdp.actions[a])] = [(base + j, p) for j, p in zip(succ, prob)]
            costs[(base + i, mdp.actions[a])] = cost
        labels.update((base + i, ["pi"]) for i in part.pi_states)
        k_union |= {base + k for k in k_states}
        starts.append(base)
        base += mdp.n_states
    mdp = make_mdp(base, list(parts[0][0].mdp.actions), rows, costs, labels=labels)
    return CycleProblem(mdp=mdp, pi_states=mdp.pi_states("pi"), starts=tuple(starts)), k_union


def two_cycles(cost, gap=0.0):
    """The cycle 0 -> 1 -> 0 at the given cost a step, where state 0 (the
    cycle state) also has "b", cheaper by gap; K = {0}."""
    mdp = make_mdp(2, ["a", "b"],
                   rows={(0, "a"): [(1, 1.0)], (0, "b"): [(1, 1.0)], (1, "a"): [(0, 1.0)]},
                   costs={(0, "a"): cost, (0, "b"): cost - gap, (1, "a"): cost},
                   labels={0: ["pi"]})
    return problem(mdp), {0}


class TestBlocks:
    """block_policy_iteration solves each block of a disjoint union as
    policy_iteration solves it alone."""

    @staticmethod
    def assert_as_alone(parts):
        union, k_union = side_by_side(parts)
        results = acpc.block_policy_iteration(union, k_union)
        for (part, k_states), got in zip(parts, results, strict=True):
            want = acpc.policy_iteration(part, k_states)
            assert (got.status, got.iterations, got.policy) == (want.status, want.iterations,
                                                                want.policy)
            assert got.gain_bias.lam == pytest.approx(want.gain_bias.lam, rel=1e-12, abs=0.0)
        return results

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 399), min_size=2, max_size=6))
    def test_random_problems_side_by_side(self, seeds):
        """Seeds 0-399 span widths 1 to 6; the problems of each width drawn
        are solved side by side."""
        by_width = {}
        for seed in seeds:
            part = random_cycle_problem(seed)
            by_width.setdefault(len(part[0].pi_states), []).append(part)
        for parts in by_width.values():
            self.assert_as_alone(parts)

    def test_not_optimal_next_to_optimal(self):
        """Problems 218 (width 4) and 108 (width 3) end notOptimal at
        iterations 2 and 1, while the others of their widths go on around
        them up to iteration 3."""
        results = [r for seeds in ((6, 218, 37), (75, 108, 25))
                   for r in self.assert_as_alone([random_cycle_problem(seed) for seed in seeds])]
        assert [r.status is PolicyIterationStatus.NOT_OPTIMAL for r in results] == [
            False, True, False, False, True, False]
        assert [r.iterations for r in results] == [3, 2, 3, 3, 1, 2]

    def test_bellman_tolerance_of_the_block(self):
        """The cheap block's first policy misses the optimum by 2e-6, far
        within 1e-8 of the dear block's gain of 2e6 but not of its own
        gain of 2: it takes one more iteration, as alone."""
        results = self.assert_as_alone([two_cycles(1.0, gap=1e-6), two_cycles(1e6)])
        assert [r.iterations for r in results] == [1, 0]

    def test_residual_tolerance_of_the_block(self, monkeypatch):
        """A first-return solve off by 1e-6 in the cost column fails the
        cheap block's defining equations, though it is far within the
        dear block's tolerance."""
        union = side_by_side([two_cycles(1.0), two_cycles(1e6)])[0]
        rows = union.mdp.row_ptr[:-1]  # the first action everywhere
        acpc.acpc_evaluate(union, rows)
        exact = numerics.transient_solve

        def perturbed(indptr, col, val, exit, rhs):
            X = exact(indptr, col, val, exit, rhs)
            X[:, -1] += 1e-6
            return X

        monkeypatch.setattr(numerics, "transient_solve", perturbed)
        with pytest.raises(NumericalFailure, match="defining equations"):
            acpc.acpc_evaluate(union, rows)
        with pytest.raises(NumericalFailure, match="defining equations"):
            acpc.acpc_evaluate(two_cycles(1.0)[0], rows[:2])
        acpc.acpc_evaluate(two_cycles(1e6)[0], rows[:2])

    def test_one_block_only(self):
        union, k_union = side_by_side([two_cycles(1.0), two_cycles(2.0)])
        with pytest.raises(ValueError, match="one block"):
            acpc.policy_iteration(union, k_union)

    @pytest.mark.parametrize("starts, message", [
        ((0, 3), "leaves its block"), ((1, 2), "must rise from 0"), ((0, 0), "must rise"),
        ((0, 4), "must rise"), ((0, 1), "leaves its block")])
    def test_blocks_must_be_closed_ranges(self, starts, message):
        union = side_by_side([two_cycles(1.0), two_cycles(2.0)])[0]
        with pytest.raises(ValueError, match=message):
            CycleProblem(mdp=union.mdp, pi_states=union.pi_states, starts=starts)

    def test_every_block_needs_cycle_and_k_states(self):
        union = side_by_side([two_cycles(1.0), two_cycles(2.0)])[0]
        with pytest.raises(ValueError, match="cycle states"):
            CycleProblem(mdp=union.mdp, pi_states=frozenset({0}), starts=union.starts)
        with pytest.raises(ValueError, match="every block"):
            acpc.block_policy_iteration(union, {0})

    def test_blocks_of_one_width_only(self):
        """A block of width 1 next to one of width 2 is refused; blocks of
        width 2 side by side are not."""
        union = side_by_side([two_cycles(1.0), two_cycles(2.0)])[0]
        with pytest.raises(ValueError, match="same number of cycle states"):
            CycleProblem(mdp=union.mdp, pi_states=frozenset({0, 2, 3}), starts=union.starts)
        assert CycleProblem(mdp=union.mdp, pi_states=frozenset({0, 1, 2, 3}),
                            starts=union.starts).width == 2

    def test_one_first_return_solve_per_evaluation(self, monkeypatch):
        """acpc_evaluate on a union of width 3 makes one transient_solve
        call, on width + 1 columns."""
        union, _k = side_by_side([random_cycle_problem(seed) for seed in (3, 75, 108, 25)])
        assert union.width == 3
        calls = []
        exact = numerics.transient_solve

        def counting(indptr, col, val, exit, rhs):
            calls.append(rhs.shape)
            return exact(indptr, col, val, exit, rhs)

        monkeypatch.setattr(numerics, "transient_solve", counting)
        acpc.acpc_evaluate(union, union.mdp.row_ptr[:-1])
        assert calls == [(union.mdp.n_states, 4)]

    def test_dense_groups_from_the_width(self):
        """Blocks of width 1 share their dense solves, up to DENSE_GROUP of
        them; blocks of a larger width are solved one at a time."""
        narrow = side_by_side([two_cycles(1.0)] * (acpc.DENSE_GROUP + 3))[0]
        m = 2 * acpc.DENSE_GROUP
        assert narrow.dense_groups == ((0, m, 0, acpc.DENSE_GROUP),
                                       (m, m + 6, acpc.DENSE_GROUP, acpc.DENSE_GROUP + 3))
        pair = side_by_side([two_cycles(1.0)] * 2)[0]
        wide = CycleProblem(mdp=pair.mdp, pi_states=frozenset(range(4)), starts=pair.starts)
        assert wide.dense_groups == ((0, 2, 0, 2), (2, 4, 2, 4))


class TestOptimalityCheck:
    def test_toy_b(self, toy_b):
        prob = problem(toy_b)
        good = acpc.acpc_evaluate(prob, StationaryPolicy({0: 1, 1: 0}))
        assert acpc.acpc_optimality_check(prob, good.lam, good.h)
        bad = acpc.acpc_evaluate(prob, StationaryPolicy({0: 0, 1: 0}))
        assert not acpc.acpc_optimality_check(prob, bad.lam, bad.h)


class TestPolicyIteration:
    def test_toy_b_optimal(self, toy_b):
        prob = problem(toy_b)
        result = acpc.policy_iteration(prob, k_states={0})
        assert result.status is PolicyIterationStatus.OPTIMAL
        assert result.policy.choice[0] == 1  # take the cheap 2-cycle
        assert result.gain_bias.lam == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("k", [99, -1])
    def test_k_outside_state_set_rejected(self, k):
        prob = problem(pickup_delivery_mdp(), pi=("pickup",))
        with pytest.raises(ValueError, match=rf"k_states \[{k}\]"):
            acpc.policy_iteration(prob, k_states={k})

    def test_requires_communicating(self):
        islands = make_mdp(
            2, ["a"],
            rows={(0, "a"): [(0, 1.0)], (1, "a"): [(1, 1.0)]},
            costs={(0, "a"): 1.0, (1, "a"): 1.0},
            labels={0: ["pi"], 1: ["pi"]},
        )
        with pytest.raises(NotCommunicating):
            acpc.policy_iteration(problem(islands), k_states={0})

    def test_matches_brute_force_when_optimal(self):
        agreements = 0
        for seed in range(120):
            prob, k = random_cycle_problem(seed, n_max=5)
            try:
                _, ref = acpc.brute_force_acpc(prob, k)
            except ImproperPolicy:
                continue  # no policy keeps K recurrent and stays proper
            result = acpc.policy_iteration(prob, k)
            assert result.gain_bias.lam >= ref - 1e-8
            if result.status is PolicyIterationStatus.OPTIMAL:
                assert result.gain_bias.lam == pytest.approx(ref, abs=1e-8)
                assert result.gain_bias.gain_spread() <= 1e-9
                agreements += 1
        assert agreements >= 40

    def test_unichain_always_optimal(self):
        """When every stationary policy is unichain the iteration must
        certify optimality."""
        checked = 0
        for seed in range(300):
            prob, k = random_cycle_problem(seed, n_max=4)
            mdp = prob.mdp
            if any(len(acpc._chain_classes(mdp, tuple(mu.choice[i] for i in mdp.states))) != 1
                   for mu in all_policies(mdp)):
                continue
            result = acpc.policy_iteration(prob, frozenset(range(mdp.n_states)))
            assert result.status is PolicyIterationStatus.OPTIMAL
            checked += 1
            if checked >= 25:
                return
        assert checked > 0

    def test_improper_init_rejected(self, toy_b):
        bad = CycleProblem(mdp=toy_b, pi_states=frozenset({1}))
        with pytest.raises(ImproperPolicy):
            acpc.policy_iteration(bad, k_states={0},
                                  init=StationaryPolicy({0: 0, 1: 0}))

    def test_monotone_gain(self):
        """The gain never increases along accepted runs (sampled)."""
        for seed in range(40):
            prob, k = random_cycle_problem(seed, n_max=5)
            result = acpc.policy_iteration(prob, k)
            gb = acpc.acpc_evaluate(prob, result.policy)
            assert gb.lam == pytest.approx(result.gain_bias.lam, abs=1e-9)

    def test_hot_loop_solves_stay_on_cycle_set(self, monkeypatch):
        """Policy iteration on a ring component of about 100 states solves
        only systems of the cycle set's size, never one over all states."""
        prod = product.build_product(ring_mdp(100), pickup_delivery_dra(), "pickup")
        component = max(amec.accepting_amecs(prod), key=lambda c: len(c.states))
        prob, k_local, _, _ = synth.amec_cycle_problem(prod, component)
        assert prob.mdp.n_states >= 100
        shapes = []
        exact = numerics.solve_linear

        def recording(A, b, tol=numerics.DEFAULT_TOL):
            shapes.append(np.shape(A))
            return exact(A, b, tol=tol)

        monkeypatch.setattr(numerics, "solve_linear", recording)
        result = acpc.policy_iteration(prob, k_local)
        assert result.status is PolicyIterationStatus.OPTIMAL
        assert shapes
        assert max(max(s) for s in shapes) <= len(prob.pi_states) + 1

    def test_no_dense_matrix_in_the_loop(self, monkeypatch):
        """Policy iteration evaluates, improves and checks every policy on
        the sparse rows: it never builds a dense policy matrix or inverts
        a dense transient block."""
        prod = product.build_product(ring_mdp(100), pickup_delivery_dra(), "pickup")
        component = max(amec.accepting_amecs(prod), key=lambda c: len(c.states))
        prob, k_local, _, _ = synth.amec_cycle_problem(prod, component)

        def refuse(*args, **kwargs):
            raise AssertionError("dense path called inside policy iteration")

        monkeypatch.setattr(LabeledMdp, "policy_matrices", refuse)
        monkeypatch.setattr(numerics, "transient_inverse", refuse)
        result = acpc.policy_iteration(prob, k_local)
        assert result.status is PolicyIterationStatus.OPTIMAL
        assert result.iterations > 0

    def test_recurrent_classes_once_per_chain(self, monkeypatch):
        """Policy iteration finds the recurrent classes of each policy it
        considers once, not again for every check on the same choice.
        A choice is recorded rather than its successor lists: alpha and
        gamma share their successors on this ring, so two policies can
        share a graph.  (The evaluation's Cesaro limit also looks for
        recurrent classes, on the |pi| x |pi| first-return chain; those
        calls are not counted.)"""
        prod = product.build_product(ring_mdp(100), pickup_delivery_dra(), "pickup")
        component = max(amec.accepting_amecs(prod), key=lambda c: len(c.states))
        prob, k_local, _, _ = synth.amec_cycle_problem(prod, component)
        choices, chains = [], []
        chain_classes, bottom_classes = acpc._chain_classes, numerics._bottom_classes

        def recording_choice(mdp, choice):
            choices.append(tuple(choice))
            return chain_classes(mdp, choice)

        def recording_chain(succ):
            if len(succ) == prob.mdp.n_states:
                chains.append(succ)
            return bottom_classes(succ)

        monkeypatch.setattr(acpc, "_chain_classes", recording_choice)
        monkeypatch.setattr(numerics, "_bottom_classes", recording_chain)
        result = acpc.policy_iteration(prob, k_local)
        assert result.status is PolicyIterationStatus.OPTIMAL
        assert choices
        assert len(choices) == len(set(choices))
        assert len(chains) == len(choices)


@st.composite
def tree_problems(draw):
    """Random MDPs (not necessarily communicating, so some states may
    reach no target) with a nonempty target set."""
    n = draw(st.integers(1, 8))
    actions = ["a", "b", "c"]
    rows = {}
    for i in range(n):
        for a in draw(st.lists(st.sampled_from(actions), min_size=1, max_size=3,
                               unique=True)):
            support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                                    unique=True))
            rows[(i, a)] = [(j, 1.0 / len(support)) for j in support]
    mdp = make_mdp(n, actions, rows, {key: 1.0 for key in rows})
    targets = draw(st.frozensets(st.integers(0, n - 1), min_size=1))
    return mdp, targets


def tree_distances(mdp, targets):
    """Positive-probability distance to the targets over every row, by
    relaxing one layer at a time over the whole row table."""
    dist = dict.fromkeys(targets, 0)
    d = 0
    while True:
        layer = {i for (i, _a), row in successor_table(mdp).items()
                 if i not in dist and any(dist.get(j) == d for j in row)}
        if not layer:
            return dist
        d += 1
        dist.update(dict.fromkeys(layer, d))


@settings(max_examples=300, deadline=None)
@given(tree_problems())
def test_tree_policy_takes_first_closer_action(problem):
    """A state at distance d takes its first available action with a
    successor at distance d - 1; a target its first action whose support
    meets a state with a distance (else its first action); a state with
    no distance its first action."""
    mdp, targets = problem
    choice = mdp.action[acpc._tree_policy(mdp, targets)]
    dist = tree_distances(mdp, targets)
    succ = successor_table(mdp)
    for i in mdp.states:
        acts = mdp.available[i]
        if i in targets:
            settled = [a for a in acts if any(j in dist for j in succ[(i, a)])]
            expected = (settled or acts)[0]
        elif i in dist:
            expected = next(a for a in acts
                            if any(dist.get(j) == dist[i] - 1 for j in succ[(i, a)]))
        else:
            expected = acts[0]
        assert choice[i] == expected, i


def test_initial_policy_falls_back_to_a_tree_toward_pi(monkeypatch):
    """On this problem the tree toward the least K state cannot be
    repaired, so the initial policy starts from the tree toward the
    cycle set; policy iteration still reaches the brute-force optimum."""
    prob, k_states = random_cycle_problem(39, n_max=12, max_actions=4)
    mdp = prob.mdp
    assert (mdp.n_states, prob.pi_states, k_states) == (5, {0}, {1, 2, 3, 4})
    every = np.ones(len(mdp.action), dtype=bool)
    toward_k = acpc._tree_policy(mdp, {1})
    _rows, _classes, repaired = acpc._constrained_select(prob, toward_k, every, k_states,
                                                         np.ones(1, dtype=bool))
    assert not repaired.any()
    targets = []
    tree_policy = acpc._tree_policy
    monkeypatch.setattr(acpc, "_tree_policy",
                        lambda m, t: targets.append(set(t)) or tree_policy(m, t))
    result = acpc.policy_iteration(prob, k_states)
    assert targets == [{1}, {0}]
    assert result.status is PolicyIterationStatus.OPTIMAL
    assert result.gain_bias.lam == pytest.approx(8.597824, abs=1e-6)
    assert result.gain_bias.lam == pytest.approx(acpc.brute_force_acpc(prob, k_states)[1],
                                                 rel=1e-12)


class TestBruteForce:
    def test_toy_b(self, toy_b):
        mu, lam = acpc.brute_force_acpc(problem(toy_b))
        assert lam == pytest.approx(2.0, abs=1e-12)
        assert mu.choice == (1, 0)

    def test_k_filter_changes_answer(self, toy_b):
        # forcing state 0's self-loop recurrent class to include state 1
        # leaves only the swap policy
        mu, lam = acpc.brute_force_acpc(problem(toy_b), k_states={1})
        assert mu.choice == (1, 0)
        assert lam == pytest.approx(2.0)

    @pytest.mark.parametrize("k", [99, -1])
    def test_k_outside_state_set_rejected(self, k):
        prob = problem(pickup_delivery_mdp(), pi=("pickup",))
        with pytest.raises(ValueError, match=rf"k_states \[{k}\]"):
            acpc.brute_force_acpc(prob, k_states={5, k})

    def test_too_large(self):
        n = 21
        rows = {}
        costs = {}
        for i in range(n):
            for a in ("u0", "u1"):
                rows[(i, a)] = [((i + 1) % n, 1.0)]
                costs[(i, a)] = 1.0
        big = make_mdp(n, ["u0", "u1"], rows, costs, labels={0: ["pi"]})
        with pytest.raises(TooLarge):
            acpc.brute_force_acpc(problem(big))

    def test_agrees_with_exhaustive_evaluation(self):
        for seed in range(30):
            prob, _k = random_cycle_problem(seed, n_max=4)
            mdp = prob.mdp
            best = None
            for mu in all_policies(mdp):
                if not is_proper(mdp, mu, prob.pi_states):
                    continue
                lam = acpc.acpc_evaluate(prob, mu).lam
                best = lam if best is None else min(best, lam)
            _, lam = acpc.brute_force_acpc(prob)
            assert lam == pytest.approx(best, abs=1e-9)
