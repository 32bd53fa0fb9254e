"""End component analysis on the product MDP: maximal end component
decomposition, the accepting filter, almost-sure reachability and the
memoryless reach policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import numerics
from .errors import EmptyTarget, NotReachableAlmostSurely
from .mdp import StationaryPolicy
from .product import ProductMdp


@dataclass(frozen=True)
class Amec:
    """Accepting maximal end component: closed communicating sub-MDP that
    meets K and avoids L for some acceptance pair."""

    states: frozenset[int]
    actions: dict[int, tuple[int, ...]]  # retained actions per member state
    k_states: frozenset[int]
    pi_states: frozenset[int]
    pair_index: int


def maximal_end_components(product: ProductMdp, restrict=None):
    """Iterative SCC refinement: drop actions leaving the candidate set,
    then states without actions, until a fixpoint; nontrivial bottom
    pieces are the maximal end components.

    restrict optionally limits the state set considered (used by the
    accepting filter to excise L states).
    """
    succ = product.model.succ
    alive = set(product.states if restrict is None else restrict)
    actions = {i: [a for a in product.available(i)] for i in alive}

    def prune(states):
        """Drop actions escaping `states`, then action-less states, to a
        fixpoint; returns the surviving state set."""
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
        comp = numerics._tarjan_scc(len(nodes), edges)
        n_comp = max(comp) + 1 if nodes else 0
        if n_comp <= 1:
            if nodes:
                components.append(block)
            continue
        groups = [set() for _ in range(n_comp)]
        for k, i in enumerate(nodes):
            groups[comp[k]].add(i)
        for grp in groups:
            work.append(prune(grp))
    out = []
    for block in components:
        act_map = {i: tuple(sorted(actions[i])) for i in sorted(block)}
        if all(act_map[i] for i in block):
            out.append((frozenset(block), act_map))
    out.sort(key=lambda item: sorted(item[0]))
    return out


def accepting_amecs(product: ProductMdp) -> list[Amec]:
    """Per acceptance pair: remove the L states, decompose the remainder
    into MECs and keep those meeting K.  Structurally identical
    components found under several pairs are kept once."""
    seen = set()
    result = []
    for idx, (L, K) in enumerate(product.lifted_pairs):
        allowed = set(product.states) - L
        for states, act_map in maximal_end_components(product, restrict=allowed):
            if not states & K:
                continue
            key = (states, tuple(sorted(act_map.items())))
            if key in seen:
                continue
            seen.add(key)
            result.append(Amec(
                states=states,
                actions=act_map,
                k_states=frozenset(states & K),
                pi_states=frozenset(states & product.pi_states),
                pair_index=idx,
            ))
    return result


def almost_sure_reach_set(product: ProductMdp, target) -> frozenset[int]:
    """States from which some policy reaches the target with probability
    one: iterated removal of states that cannot avoid drifting into
    states with no chance of hitting the target."""
    target = frozenset(target)
    if not target:
        raise EmptyTarget("target set is empty")
    succ = product.model.succ
    u = set(product.states)
    while True:
        # states that can reach the target using actions confined to u
        v = set(target) & u
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
            return frozenset(u)
        u = v


def retained_actions(product: ProductMdp, target, safe) -> dict[int, list[int]]:
    """Actions whose successors stay inside the almost-sure set."""
    succ = product.model.succ
    return {i: [a for a in product.available(i) if safe.issuperset(succ[(i, a)])]
            for i in safe if i not in target}


def reach_policy(product: ProductMdp, amec: Amec) -> StationaryPolicy:
    """Memoryless policy reaching the component with probability one from
    every state of the almost-sure set; defined outside the component.

    Prefers actions that decrease the positive-probability distance to
    the component, which keeps transient wandering short (any correct
    choice is acceptable: transient cost vanishes in the cycle average).
    """
    safe = almost_sure_reach_set(product, amec.states)
    if product.init not in safe:
        raise NotReachableAlmostSurely(
            "the initial state cannot reach this accepting component with "
            "probability 1")
    retained = retained_actions(product, amec.states, safe)
    succ = product.model.succ
    # BFS layers from the component through retained actions
    dist = {i: 0 for i in amec.states if i in safe}
    frontier = set(dist)
    choice: dict[int, int] = {}
    d = 0
    while frontier:
        nxt = set()
        for i in safe:
            if i in dist or i in amec.states:
                continue
            for a in retained[i]:
                if not frontier.isdisjoint(succ[(i, a)]):
                    dist[i] = d + 1
                    choice[i] = a
                    nxt.add(i)
                    break
        frontier = nxt
        d += 1
    # states outside the almost-sure set never occur under this policy;
    # give them any available action so the stitched policy is total
    for i in product.states:
        if i not in choice and i not in amec.states:
            choice[i] = product.available(i)[0]
    return StationaryPolicy(choice)
