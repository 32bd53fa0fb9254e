from unittest import mock

import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from conftest import (
    action_rows,
    always_accepting_dra,
    make_mdp,
    pickup_delivery_dra,
    pickup_delivery_mdp,
    ring_mdp,
    successor_table,
    two_amec_mdp,
)
from cyclesynth import amec as amec_mod, numerics
from cyclesynth.errors import NotReachableAlmostSurely
from cyclesynth.mdp import LabeledMdp
from cyclesynth.product import build_product


def pd_product():
    return build_product(pickup_delivery_mdp(), pickup_delivery_dra(), "pickup")


class TestMaximalEndComponents:
    def test_whole_space_when_trivial(self, toy_b):
        product = build_product(toy_b, always_accepting_dra(), "pi")
        mecs = amec_mod.maximal_end_components(product)
        assert len(mecs) == 1
        states, rows = mecs[0]
        assert states == frozenset(product.states)
        # both actions at state 0 keep the play inside
        assert rows == action_rows(product.model, {0: (0, 1), 1: (0,)})

    def test_trap_region_is_its_own_mec(self):
        product = pd_product()
        mecs = amec_mod.maximal_end_components(product)
        trap = [frozenset(s) for s, _ in mecs
                if all(product.pairs_of[i][1] == 3 for i in s)]
        assert len(trap) == 1  # the violation region is closed and communicating

    def test_closed_under_retained_actions(self):
        """A component keeps exactly its states' rows whose successors
        stay inside, and at least one row at each state."""
        product = pd_product()
        succ = successor_table(product.model)
        keys = list(succ)  # in row order
        for states, rows in amec_mod.maximal_end_components(product):
            assert rows == tuple(r for r, (i, a) in enumerate(keys)
                                 if i in states and set(succ[(i, a)]) <= states)
            assert {keys[r][0] for r in rows} == states

    def test_two_disjoint_components(self):
        product = build_product(two_amec_mdp(), always_accepting_dra(), "pi")
        mecs = amec_mod.maximal_end_components(product)
        sets = sorted(sorted(product.pairs_of[i][0] for i in s) for s, _ in mecs)
        assert sets == [[1, 2], [3, 4]]


class TestAcceptingAmecs:
    def test_pickup_delivery_component(self):
        product = pd_product()
        amecs = amec_mod.accepting_amecs(product)
        assert len(amecs) == 1
        comp = amecs[0]
        named = {product.pairs_of[i] for i in comp.states}
        # idle on the return arc, carrying on the delivery arc
        # ((1, 2) is lingering at cell 1 while carrying)
        assert named == {
            (0, 0), (5, 0), (6, 0), (7, 0), (8, 0), (9, 0),
            (1, 1), (1, 2), (2, 2), (3, 2), (4, 2), (5, 2),
        }
        assert {product.pairs_of[i] for i in comp.k_states} == {(1, 1)}
        assert {product.pairs_of[i] for i in comp.pi_states} == {(0, 0)}
        # carrying past the dropoff would force a second pickup: the jump
        # at cell 4 must have been dropped, the idle jump at 8 kept
        i_carry4 = product.index_of[(4, 2)]
        i_idle8 = product.index_of[(8, 0)]
        kept = [(product.model.row_state[r], product.model.action[r]) for r in comp.rows]
        assert [a for i, a in kept if i == i_carry4] == [0]
        assert [a for i, a in kept if i == i_idle8] == [0, 1]

    def test_trap_component_not_accepting(self):
        product = pd_product()
        for comp in amec_mod.accepting_amecs(product):
            L, _ = product.lifted_pairs[comp.pair_index]
            assert not comp.states & L

    def test_dedupe_across_pairs(self, toy_b):
        from cyclesynth.dra import Dra
        # two identical pairs produce the same component once
        base = always_accepting_dra()
        dra = Dra(n_states=1, ap=base.ap, start=0,
                  pairs=(base.pairs[0], base.pairs[0]), delta=dict(base.delta))
        product = build_product(toy_b, dra, "pi")
        assert len(amec_mod.accepting_amecs(product)) == 1


class TestReachability:
    def test_almost_sure_reach_full(self):
        product = pd_product()
        comp = amec_mod.accepting_amecs(product)[0]
        safe = amec_mod.almost_sure_reach_set(product, comp.states)
        assert product.init in safe
        # trap states can never come back
        for i in product.states:
            if product.pairs_of[i][1] == 3:
                assert i not in safe

    def test_reach_policy_stays_safe(self):
        product = pd_product()
        comp = amec_mod.accepting_amecs(product)[0]
        policy = amec_mod.reach_policy(product, comp)
        safe = amec_mod.almost_sure_reach_set(product, comp.states)
        succ = successor_table(product.model)
        for i in safe - comp.states:
            assert set(succ[(i, policy.action(i))]) <= safe

    def test_unreachable_component_raises(self):
        # a coin flip at the start means neither cycle is reachable with
        # probability 1
        coin = make_mdp(
            5, ["flip", "go"],
            rows={(0, "flip"): [(1, 0.5), (3, 0.5)],
                  (1, "go"): [(2, 1.0)], (2, "go"): [(1, 1.0)],
                  (3, "go"): [(4, 1.0)], (4, "go"): [(3, 1.0)]},
            costs={(0, "flip"): 1.0, (1, "go"): 1.0, (2, "go"): 2.0,
                   (3, "go"): 1.0, (4, "go"): 1.0},
            labels={1: ["pi"], 3: ["pi"]},
        )
        product = build_product(coin, always_accepting_dra(), "pi")
        comps = amec_mod.accepting_amecs(product)
        assert len(comps) == 2
        for comp in comps:
            with pytest.raises(NotReachableAlmostSurely):
                amec_mod.reach_policy(product, comp)


# ---------------------------------------------------------------------------
# Differential oracle: the fixpoint reach set and the layer scan of the
# whole almost-sure set, which the backward searches must agree with.
# ---------------------------------------------------------------------------

def oracle_reach_set(product, goal):
    """Iterated removal of states that cannot avoid drifting into states
    with no chance of hitting the goal; returns (set, outer rounds)."""
    succ = successor_table(product.model)
    u = set(product.states)
    rounds = 0
    while True:
        rounds += 1
        v = set(goal) & u
        changed = True
        while changed:
            changed = False
            for i in u - v:
                for a in product.available(i):
                    row = succ[(i, a)]
                    if u.issuperset(row) and not v.isdisjoint(row):
                        v.add(i)
                        changed = True
                        break
        if v == u:
            return frozenset(u), rounds
        u = v


def oracle_reach_choice(product, states):
    """Layer-by-layer scan of the whole almost-sure set; None when the
    initial state is outside it."""
    safe, _ = oracle_reach_set(product, states)
    if product.init not in safe:
        return None
    succ = successor_table(product.model)
    retained = {i: [a for a in product.available(i) if safe.issuperset(succ[(i, a)])]
                for i in safe if i not in states}
    dist = {i: 0 for i in states if i in safe}
    frontier = set(dist)
    choice = {}
    d = 0
    while frontier:
        nxt = set()
        for i in safe:
            if i in dist or i in states:
                continue
            for a in retained[i]:
                if not frontier.isdisjoint(succ[(i, a)]):
                    dist[i] = d + 1
                    choice[i] = a
                    nxt.add(i)
                    break
        frontier = nxt
        d += 1
    return tuple(-1 if i in states else choice.get(i, product.available(i)[0])
                 for i in product.states)


@st.composite
def pd_products(draw):
    """Random pickup-delivery products.  The last MDP state is an
    absorbing trap and rows mix safe and trap-bound successors, so a
    state's risky action can strand states several steps upstream: the
    reach set needs several outer rounds and MEC pruning several
    removals in a row."""
    n = draw(st.integers(3, 10))
    actions = ["a", "b", "c"]
    rows = {(n - 1, "a"): [(n - 1, 1.0)]}
    for i in range(n - 1):
        for a in actions[:draw(st.integers(1, 3))]:
            support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                                    unique=True))
            rows[(i, a)] = [(j, 1.0 / len(support)) for j in support]
    labels = {0: ["pickup"]}
    for i in draw(st.sets(st.integers(1, n - 1))):
        labels[i] = [draw(st.sampled_from(["pickup", "dropoff"]))]
    mdp = make_mdp(n, actions, rows, {key: 1.0 for key in rows}, labels=labels)
    return build_product(mdp, pickup_delivery_dra(), "pickup")


@st.composite
def reach_problems(draw):
    """Random pickup-delivery products and targets."""
    product = draw(pd_products())
    states = draw(st.one_of(
        st.sampled_from([c.states for c in amec_mod.accepting_amecs(product)]
                        or [frozenset({0})]),
        st.frozensets(st.integers(0, product.n_states - 1), min_size=1)))
    return product, states


def component(states):
    return amec_mod.Amec(states=states, rows=(), k_states=states,
                         pi_states=frozenset(), pair_index=0)


class TestAgainstFixpointOracle:
    @settings(max_examples=150, deadline=None)
    @given(reach_problems())
    def test_same_sets_and_choices(self, problem):
        product, states = problem
        expected, rounds = oracle_reach_set(product, states)
        target(float(rounds), label="outer rounds")
        assert amec_mod.almost_sure_reach_set(product, states) == expected
        expected_choice = oracle_reach_choice(product, states)
        if expected_choice is None:
            with pytest.raises(NotReachableAlmostSurely):
                amec_mod.reach_policy(product, component(states))
        else:
            assert amec_mod.reach_policy(product, component(states)).choice == expected_choice

    def test_ladder_needs_several_rounds(self):
        """State 0 may fall into the trap; odd state 2k-1 moves to the
        goal or down to 2k-2, even state 2k down to 2k-1.  Each round
        strands one more rung, and in the end only the goal is left."""
        rungs = 5
        trap, goal = 2 * rungs + 1, 2 * rungs + 2
        rows = {(trap, "a"): [(trap, 1.0)], (goal, "a"): [(goal, 1.0)],
                (0, "a"): [(goal, 0.5), (trap, 0.5)]}
        for k in range(1, rungs + 1):
            rows[(2 * k - 1, "a")] = [(2 * k - 2, 0.5), (goal, 0.5)]
            rows[(2 * k, "a")] = [(2 * k - 1, 1.0)]
        mdp = make_mdp(goal + 1, ["a"], rows, {key: 1.0 for key in rows},
                       labels={goal: ["pi"]}, init=2 * rungs)
        product = build_product(mdp, always_accepting_dra(), "pi")
        states = frozenset({product.index_of[(goal, 0)]})
        expected, rounds = oracle_reach_set(product, states)
        assert rounds >= rungs
        assert amec_mod.almost_sure_reach_set(product, states) == expected == states
        with pytest.raises(NotReachableAlmostSurely):
            amec_mod.reach_policy(product, component(states))


# ---------------------------------------------------------------------------
# Differential oracle: the rescanning MEC decomposition, which the
# predecessor worklist must agree with.
# ---------------------------------------------------------------------------

def oracle_mecs(product, restrict=None):
    """Iterative SCC refinement whose pruning rescans the whole block
    until nothing changes."""
    succ = successor_table(product.model)
    alive = set(product.states if restrict is None else restrict)
    actions = {i: [a for a in product.available(i)] for i in alive}

    def prune(states):
        states = set(states)
        changed = True
        while changed:
            changed = False
            for i in list(states):
                kept = [a for a in actions[i] if states.issuperset(succ[(i, a)])]
                if kept != actions[i]:
                    actions[i] = kept
                    changed = True
                if not kept:
                    states.discard(i)
                    changed = True
        return states

    components = []
    work = [prune(alive)]
    while work:
        block = work.pop()
        if not block:
            continue
        nodes = sorted(block)
        pos = {i: k for k, i in enumerate(nodes)}
        edges = [sorted({pos[j] for a in actions[i] for j in succ[(i, a)]})
                 for i in nodes]
        groups = numerics._tarjan_scc(len(nodes), edges)
        if len(groups) <= 1:
            if nodes:
                components.append(block)
            continue
        for grp in groups:
            work.append(prune({nodes[k] for k in grp}))
    out = []
    for block in components:
        act_map = {i: tuple(sorted(actions[i])) for i in sorted(block)}
        if all(act_map[i] for i in block):
            out.append((frozenset(block), act_map))
    out.sort(key=lambda item: sorted(item[0]))
    return out


def oracle_mec_rows(product, restrict=None):
    """oracle_mecs with each component's retained actions given as the
    product rows that take them, the form the decomposition returns."""
    return [(states, action_rows(product.model, act_map))
            for states, act_map in oracle_mecs(product, restrict)]


@st.composite
def mec_problems(draw):
    """Random pickup-delivery products, with or without a restriction."""
    product = draw(pd_products())
    restrict = draw(st.one_of(
        st.none(), st.frozensets(st.integers(0, product.n_states - 1))))
    return product, restrict


class TestAgainstRescanOracle:
    @settings(max_examples=150, deadline=None)
    @given(mec_problems())
    def test_same_components_and_actions(self, problem):
        product, restrict = problem
        expected = oracle_mec_rows(product, restrict)
        target(float(sum(len(s) for s, _ in expected)), label="component states")
        assert amec_mod.maximal_end_components(product, restrict) == expected

    @settings(max_examples=50, deadline=None)
    @given(pd_products())
    def test_same_accepting_components(self, product):
        found = amec_mod.accepting_amecs(product)
        with mock.patch.object(amec_mod, "maximal_end_components", oracle_mec_rows):
            expected = amec_mod.accepting_amecs(product)
        assert found == expected


class CountingList(list):
    """A list view of `col` that counts its slices, one per row read, on
    a shared tally."""

    def __init__(self, items, tally):
        super().__init__(items)
        self.tally = tally

    def __getitem__(self, index):
        self.tally[0] += isinstance(index, slice)
        return super().__getitem__(index)


def count_row_reads(monkeypatch) -> list[int]:
    """A one-item tally of the rows read through every list view that
    LabeledMdp.successor_lists hands out from now on."""
    tally = [0]
    successor_lists = LabeledMdp.successor_lists

    def counting(model):
        col, ptr = successor_lists(model)
        return CountingList(col, tally), ptr

    monkeypatch.setattr(LabeledMdp, "successor_lists", counting)
    return tally


class TestLinearWork:
    """A chain toward the target: the fixpoint scans read about n^2/2
    rows, the backward searches a bounded number per row."""

    n = 400

    def chain_product(self):
        n = self.n
        rows = {}
        for i in range(n):
            rows[(i, "go")] = [(i, 0.5), (min(i + 1, n - 1), 0.5)]
            rows[(i, "stay")] = [(i, 1.0)]
        mdp = make_mdp(n, ["go", "stay"], rows, {key: 1.0 for key in rows},
                       labels={n - 1: ["pi"]})
        return build_product(mdp, always_accepting_dra(), "pi")

    def test_mec_decomposition_reads_each_row_a_bounded_number_of_times(self, monkeypatch):
        """Without the trap state, pruning the ring of 400 states strands
        one state at a time: the rescan read 101 x rows.  The worklist
        reads each kept row twice per refinement round, once to prune and
        once for the next round's edges, and once per removed successor:
        1671 reads of the 1668 rows (the bound was 4 x rows), and 6339 for
        the whole product."""
        product = build_product(ring_mdp(400), pickup_delivery_dra(), "pickup")
        n_rows = len(product.model.action)
        reads = count_row_reads(monkeypatch)
        found = amec_mod.accepting_amecs(product)
        assert (product.n_states, n_rows) == (1002, 1668)
        assert reads[0] <= 1671
        reads[0] = 0
        amec_mod.maximal_end_components(product)
        assert reads[0] <= 6339
        with mock.patch.object(amec_mod, "maximal_end_components", oracle_mec_rows):
            assert found == amec_mod.accepting_amecs(product)

    def test_reach_set_reads_each_row_at_most_twice(self, monkeypatch):
        product = self.chain_product()
        reads = count_row_reads(monkeypatch)
        goal = frozenset({product.index_of[(self.n - 1, 0)]})
        assert amec_mod.almost_sure_reach_set(product, goal) == frozenset(product.states)
        assert reads[0] <= 2 * len(product.model.action)

    def test_reach_policy_reads_each_row_a_bounded_number_of_times(self, monkeypatch):
        product = self.chain_product()
        reads = count_row_reads(monkeypatch)
        goal = frozenset({product.index_of[(self.n - 1, 0)]})
        policy = amec_mod.reach_policy(product, component(goal))
        go = product.mdp.actions.index("go")
        assert policy.choice == tuple(-1 if i in goal else go for i in product.states)
        assert reads[0] <= 4 * len(product.model.action)
