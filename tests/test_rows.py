"""Differential check of the compressed rows against the (state, action)
keyed builders they replaced: the product, its predecessor list and each
component's sub-problem must hold the same rows, and a saved model must
load back array for array."""

import dataclasses
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_model,
    keyed_rows,
    pickup_delivery_dra,
    pickup_delivery_mdp,
    random_cycle_problem,
    random_dra,
    ring_mdp,
)
from cyclesynth import amec as amec_mod
from cyclesynth import mdp as mdp_mod
from cyclesynth.errors import AlphabetMismatch, PiUnused
from cyclesynth.product import build_product
from cyclesynth.synth import amec_cycle_problem

# the containers the keyed builders filled, as plain namespaces
KeyedMdp = KeyedProduct = KeyedProblem = SimpleNamespace


def keyed(mdp) -> SimpleNamespace:
    """mdp with its rows as the succ, prob and cost dicts the oracles read."""
    rows = keyed_rows(mdp)
    return KeyedMdp(n_states=mdp.n_states, actions=mdp.actions, available=mdp.available,
                    succ={key: row[0] for key, row in rows.items()},
                    prob={key: row[1] for key, row in rows.items()},
                    cost={key: row[2] for key, row in rows.items()},
                    init=mdp.init, props=mdp.props, label=mdp.label)


# ---------------------------------------------------------------------------
# The keyed builders as they were before the rows became arrays, kept
# verbatim but for their names, the containers they fill and, for a
# component, where its kept actions come from
# ---------------------------------------------------------------------------

def oracle_pred(model) -> tuple[list[tuple[int, int]], ...]:
    """pred[j] lists, once each, the rows (i, a) whose successors
    include j."""
    pred: list[list[tuple[int, int]]] = [[] for _ in range(model.n_states)]
    for key, row in model.succ.items():
        for j in row:
            pred[j].append(key)
    return tuple(pred)


def oracle_build_product(mdp, dra, pi: str):
    """Forward reachable product from (s0, q0) with the automaton stepped
    on the label of the current MDP state: q' = delta(q, L(s))."""
    ap = frozenset(dra.ap)
    used = frozenset().union(*mdp.label) if mdp.n_states else frozenset()
    if not used <= ap:
        raise AlphabetMismatch(
            f"MDP labels use propositions {sorted(used - ap)} absent from the "
            "automaton alphabet")
    if pi not in used:
        raise PiUnused(f"no MDP state is labeled with {pi!r}; every policy has "
                       "infinite per-cycle cost")

    start = (mdp.init, dra.start)
    index_of = {start: 0}
    pairs_of = [start]
    q_next = []
    succ, prob, cost = {}, {}, {}
    i = 0
    while i < len(pairs_of):  # breadth first: pairs_of is the queue
        s, q = pairs_of[i]
        q2 = dra.step(q, mdp.label[s])
        q_next.append(q2)
        for j in sorted({j for a in mdp.available[s] for j in mdp.succ[(s, a)]}):
            if (j, q2) not in index_of:
                index_of[(j, q2)] = len(pairs_of)
                pairs_of.append((j, q2))
        for a in mdp.available[s]:
            key = (i, a)
            succ[key] = tuple(index_of[(j, q2)] for j in mdp.succ[(s, a)])
            prob[key] = mdp.prob[(s, a)]
            cost[key] = mdp.cost[(s, a)]
        i += 1

    lifted = []
    for pair in dra.pairs:
        L = frozenset(i for i, (_s, q) in enumerate(pairs_of) if q in pair.L)
        K = frozenset(i for i, (_s, q) in enumerate(pairs_of) if q in pair.K)
        lifted.append((L, K))
    pi_states = frozenset(i for i, (s, _q) in enumerate(pairs_of) if pi in mdp.label[s])
    marked = frozenset([pi])
    model = KeyedMdp(
        n_states=len(pairs_of),
        actions=mdp.actions,
        available=tuple(mdp.available[s] for s, _q in pairs_of),
        succ=succ,
        prob=prob,
        cost=cost,
        init=0,
        props=marked,
        label=tuple(marked if i in pi_states else frozenset() for i in range(len(pairs_of))),
    )
    return KeyedProduct(
        mdp=mdp,
        dra=dra,
        pi=pi,
        n_states=len(pairs_of),
        pairs_of=tuple(pairs_of),
        index_of=index_of,
        init=0,
        lifted_pairs=tuple(lifted),
        pi_states=pi_states,
        model=model,
        q_next=tuple(q_next),
    )


def oracle_amec_cycle_problem(product, component):
    """Restrict the product to a component, renumbering its states to
    0..m-1; the rows keep their probability tuples.  A maximal end
    component keeps at each state the actions whose successors all stay
    inside.  Returns the cycle problem, the local K set and the
    local<->global index maps."""
    model = product.model
    ordered = sorted(component.states)
    retained = {g: tuple(a for a in model.available[g]
                         if component.states.issuperset(model.succ[(g, a)])) for g in ordered}
    local = {g: k for k, g in enumerate(ordered)}
    succ, prob, cost = {}, {}, {}
    for k, g in enumerate(ordered):
        for a in retained[g]:
            key = (k, a)
            succ[key] = tuple(local[j] for j in model.succ[(g, a)])
            prob[key] = model.prob[(g, a)]
            cost[key] = model.cost[(g, a)]
    sub = KeyedMdp(
        n_states=len(ordered),
        actions=model.actions,
        available=tuple(retained[g] for g in ordered),
        succ=succ,
        prob=prob,
        cost=cost,
        init=0,
        props=model.props,
        label=tuple(model.label[g] for g in ordered),
    )
    problem = KeyedProblem(mdp=sub, pi_states=frozenset(local[g] for g in component.pi_states))
    k_local = frozenset(local[g] for g in component.k_states)
    return problem, k_local, local, ordered


# ---------------------------------------------------------------------------

def same_rows(model, expected):
    """model's arrays hold expected's keyed rows, in the same order."""
    rows = keyed_rows(model)
    assert list(rows) == list(expected.succ)
    assert rows == {key: (expected.succ[key], expected.prob[key], expected.cost[key])
                    for key in expected.succ}
    assert model.available == expected.available
    assert (model.n_states, model.init, model.props, model.label) == (
        expected.n_states, expected.init, expected.props, expected.label)


def check_against_oracles(mdp, dra, pi):
    product = build_product(mdp, dra, pi)
    expected = oracle_build_product(keyed(mdp), dra, pi)
    same_rows(product.model, expected.model)
    assert product.pairs_of == expected.pairs_of
    assert product.index_of == expected.index_of
    assert product.q_next == expected.q_next
    assert product.lifted_pairs == expected.lifted_pairs
    assert product.pi_states == expected.pi_states
    state, action = product.model.row_state.tolist(), product.model.action.tolist()
    assert tuple([(state[r], action[r]) for r in rows] for rows in product.model.pred) == (
        oracle_pred(expected.model))
    for component in amec_mod.accepting_amecs(product):
        if not component.pi_states:  # no cycle problem, as before
            with pytest.raises(ValueError, match="pi_states must be nonempty"):
                amec_cycle_problem(product, component)
            continue
        problem, k_local, local, ordered = amec_cycle_problem(product, component)
        old, old_k, old_local, old_ordered = oracle_amec_cycle_problem(expected, component)
        same_rows(problem.mdp, old.mdp)
        assert (problem.pi_states, k_local, local, ordered) == (
            old.pi_states, old_k, old_local, old_ordered)
        assert mdp_mod.validate(problem.mdp).ok
    return product


def relabeled_problem(seed):
    """random_cycle_problem(seed) labeled over random_dra(seed)'s
    propositions, with the first one on the cycle set."""
    problem, _k = random_cycle_problem(seed, n_max=10)
    dra = random_dra(seed)
    rng = Random(seed)
    pi = dra.ap[0]
    label = tuple(frozenset([pi] * (s in problem.pi_states)
                            + [a for a in dra.ap[1:] if rng.random() < 0.5])
                  for s in problem.mdp.states)
    mdp = dataclasses.replace(problem.mdp, label=label, props=frozenset().union(*label))
    return mdp, dra, pi


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_random_products_match_the_keyed_builders(seed):
    check_against_oracles(*relabeled_problem(seed))


@pytest.mark.parametrize("mdp", [pickup_delivery_mdp(), ring_mdp(60)],
                         ids=["pickup_delivery", "ring_60"])
def test_pickup_delivery_products_match_the_keyed_builders(mdp):
    product = check_against_oracles(mdp, pickup_delivery_dra(), "pickup")
    assert amec_mod.accepting_amecs(product)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_saved_model_loads_back_array_for_array(seed):
    """Rows that sum to 1 up to rounding load back unchanged."""
    mdp, _dra, _pi = relabeled_problem(seed)
    assert_same_model(mdp_mod.from_json_dict(mdp_mod.to_json_dict(mdp)), mdp)
