import pytest

from conftest import (
    always_accepting_dra,
    make_mdp,
    pickup_delivery_dra,
    pickup_delivery_mdp,
    two_amec_mdp,
)
from cyclesynth import amec as amec_mod
from cyclesynth.errors import NotReachableAlmostSurely
from cyclesynth.product import build_product


def pd_product():
    return build_product(pickup_delivery_mdp(), pickup_delivery_dra(), "pickup")


class TestMaximalEndComponents:
    def test_whole_space_when_trivial(self, toy_b):
        product = build_product(toy_b, always_accepting_dra(), "pi")
        mecs = amec_mod.maximal_end_components(product)
        assert len(mecs) == 1
        states, actions = mecs[0]
        assert states == frozenset(product.states)
        # both actions at state 0 keep the play inside
        assert actions[0] == (0, 1)

    def test_trap_region_is_its_own_mec(self):
        product = pd_product()
        mecs = amec_mod.maximal_end_components(product)
        trap = [frozenset(s) for s, _ in mecs
                if all(product.pairs_of[i][1] == 3 for i in s)]
        assert len(trap) == 1  # the violation region is closed and communicating

    def test_closed_under_retained_actions(self):
        product = pd_product()
        for states, actions in amec_mod.maximal_end_components(product):
            for i in states:
                assert actions[i]
                for a in actions[i]:
                    assert set(product.model.succ[(i, a)]) <= states

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
        assert comp.actions[i_carry4] == (0,)
        assert comp.actions[i_idle8] == (0, 1)

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
        for i in safe - comp.states:
            assert set(product.model.succ[(i, policy.action(i))]) <= safe

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
