from pathlib import Path

import pytest

from conftest import (
    always_accepting_dra,
    keyed_rows,
    pickup_delivery_dra,
    pickup_delivery_mdp,
    row_of,
    two_amec_mdp,
)
from cyclesynth import amec as amec_mod, mdp as mdp_mod
from cyclesynth.errors import AlphabetMismatch, PiUnused, UntrackedState
from cyclesynth.mdp import StationaryPolicy
from cyclesynth.product import build_product, project_policy
from cyclesynth.synth import amec_cycle_problem

FIXTURES = Path(__file__).parent / "fixtures"


def pickup_component():
    """The cycle problem of the pickup-delivery product's one accepting
    component."""
    product = build_product(pickup_delivery_mdp(), pickup_delivery_dra(), "pickup")
    problem, *_ = amec_cycle_problem(product, amec_mod.accepting_amecs(product)[0])
    return problem


class TestBuildProduct:
    def test_trivial_automaton_preserves_shape(self, toy_b):
        product = build_product(toy_b, always_accepting_dra(), "pi")
        assert product.n_states == toy_b.n_states
        assert product.pairs_of == ((0, 0), (1, 0))
        assert product.pi_states == frozenset({0})
        L, K = product.lifted_pairs[0]
        assert L == frozenset()
        assert K == frozenset(product.states)

    def test_automaton_stepped_on_source_label(self):
        mdp = pickup_delivery_mdp()
        dra = pickup_delivery_dra()
        product = build_product(mdp, dra, "pickup")
        i0 = product.index_of[(0, 0)]
        # leaving the pickup state while idle advances the automaton to
        # "just picked up"
        succ, _prob, _cost = row_of(product.model, i0, 0)
        assert set(product.pairs_of[j] for j in succ) == {(1, 1)}

    def test_only_reachable_states_kept(self):
        mdp = pickup_delivery_mdp()
        dra = pickup_delivery_dra()
        product = build_product(mdp, dra, "pickup")
        assert product.n_states < mdp.n_states * dra.n_states
        # the pair (just-picked-up at the pickup cell) is unreachable:
        # state 0 is always left deterministically
        assert (0, 1) not in product.index_of

    def test_transition_probabilities_lifted(self):
        mdp = pickup_delivery_mdp()
        product = build_product(mdp, pickup_delivery_dra(), "pickup")
        i = product.index_of[(1, 1)]
        row = zip(*row_of(product.model, i, 0)[:2])
        probs = {product.pairs_of[j][0]: p for j, p in row}
        assert probs == {2: pytest.approx(0.9), 1: pytest.approx(0.1)}

    def test_successor_table_in_mdp_row_order(self):
        """Each product row lists the product successors in the order of
        the MDP row's successors, with that row's probabilities and cost,
        which keeps product and MDP simulations on the same draws."""
        mdp = pickup_delivery_mdp()
        product = build_product(mdp, pickup_delivery_dra(), "pickup")
        rows, lifted = keyed_rows(mdp), keyed_rows(product.model)
        assert len(lifted) == len(product.model.action)
        for i in product.states:
            s, q = product.pairs_of[i]
            q2 = product.dra.step(q, mdp.label[s])
            assert product.q_next[i] == q2
            assert product.index[s * product.dra.n_states + q] == i
            assert product.available(i) == mdp.available[s]
            for a in product.available(i):
                succ, prob, cost = rows[(s, a)]
                assert lifted[(i, a)] == (tuple(product.index_of[(j, q2)] for j in succ),
                                          prob, cost)

    @pytest.mark.parametrize("model", [
        build_product(pickup_delivery_mdp(), pickup_delivery_dra(), "pickup").model,
        build_product(two_amec_mdp(), always_accepting_dra(), "pi").model,
        mdp_mod.load(FIXTURES / "pickup_delivery_mdp.json"),
        pickup_component().mdp,
    ], ids=["pickup", "two_amec", "loaded", "component"])
    def test_predecessors_invert_rows(self, model):
        """Row r is listed once in pred[j], in row order, exactly when j
        is a successor of row r, for the product, a loaded MDP and a
        component."""
        ptr = model.entry_ptr
        succ = [model.col[ptr[r]:ptr[r + 1]].tolist() for r in range(len(model.action))]
        assert len(model.pred) == model.n_states
        for j in model.states:
            assert model.pred[j] == [r for r, row in enumerate(succ) if j in row]

    def test_costs_inherited(self):
        mdp = pickup_delivery_mdp()
        product = build_product(mdp, pickup_delivery_dra(), "pickup")
        i = product.index_of[(1, 1)]
        assert row_of(product.model, i, 0)[2] == 5.0   # alpha
        assert row_of(product.model, i, 1)[2] == 10.0  # beta

    def test_as_mdp_valid(self):
        mdp = pickup_delivery_mdp()
        product = build_product(mdp, pickup_delivery_dra(), "pickup")
        explicit = product.as_mdp()
        assert explicit is product.model  # built once, not rebuilt
        assert mdp_mod.validate(explicit).ok
        assert explicit.pi_states("pickup") == product.pi_states

    def test_alphabet_mismatch(self, toy_b):
        dra = always_accepting_dra(ap=("other",))
        with pytest.raises(AlphabetMismatch):
            build_product(toy_b, dra, "pi")

    def test_pi_unused(self, toy_b):
        dra = always_accepting_dra(ap=("pi", "ghost"))
        with pytest.raises(PiUnused):
            build_product(toy_b, dra, "ghost")


class TestExecutablePolicy:
    def test_tracks_automaton(self):
        mdp = pickup_delivery_mdp()
        dra = pickup_delivery_dra()
        product = build_product(mdp, dra, "pickup")
        policy = StationaryPolicy({i: product.available(i)[0] for i in product.states})
        controller = project_policy(product, policy)
        assert controller.q == dra.start
        controller.act(0)  # reading pickup moves the automaton to 1
        assert controller.q == 1
        controller.act(1)  # unlabeled cell: carrying
        assert controller.q == 2
        controller.reset()
        assert controller.q == dra.start

    def test_partial_policy_rejected(self, toy_b):
        product = build_product(toy_b, always_accepting_dra(), "pi")
        with pytest.raises(UntrackedState):
            project_policy(product, StationaryPolicy({0: 0}))

    def test_untracked_state(self):
        mdp = pickup_delivery_mdp()
        product = build_product(mdp, pickup_delivery_dra(), "pickup")
        policy = StationaryPolicy({i: product.available(i)[0] for i in product.states})
        controller = project_policy(product, policy)
        # (1, idle) is unreachable: leaving cell 0 always reads pickup first
        assert (1, 0) not in product.index_of
        with pytest.raises(UntrackedState):
            controller.current_product_state(1)

    def test_controller_shares_the_product_index(self):
        """The controller reads the product's own s * n_q + q index: no
        second table is built per controller, nor the (s, q) view."""
        product = build_product(pickup_delivery_mdp(), pickup_delivery_dra(), "pickup")
        policy = StationaryPolicy({i: product.available(i)[0] for i in product.states})
        controller = project_policy(product, policy)
        assert controller.index is product.index
        assert "index_of" not in vars(product)
        assert controller.choice is policy.choice
