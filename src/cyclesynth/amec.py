"""End component analysis on the product MDP: maximal end component
decomposition, the accepting filter, almost-sure reachability and the
memoryless reach policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import EmptyTarget, NotReachableAlmostSurely
from .mdp import StationaryPolicy
from .product import ProductMdp


@dataclass(frozen=True)
class Amec:
    """Accepting maximal end component: closed communicating sub-MDP that
    meets K and avoids L for some acceptance pair."""

    states: frozenset[int]
    rows: tuple[int, ...]  # the product rows it keeps, ascending
    k_states: frozenset[int]
    pi_states: frozenset[int]
    pair_index: int


def maximal_end_components(product: ProductMdp, restrict=None):
    """Iterative SCC refinement: drop rows leaving the candidate set,
    then states without rows, until a fixpoint; nontrivial bottom pieces
    are the maximal end components, returned with the rows they keep.

    restrict optionally limits the state set considered (used by the
    accepting filter to excise L states).
    """
    model = product.model
    (col, at), pred = model.successor_lists(), model.pred
    state, ptr = model.row_state.tolist(), model.row_ptr.tolist()
    alive = set(product.states if restrict is None else restrict)
    kept = bytearray([1]) * len(state)  # row r is kept until it leaves its state's block

    def prune(states):
        """Drop the rows escaping `states`, then row-less states; each
        removed state j drops the kept rows in pred[j] (the worklist form
        of Baier & Katoen 2008, 10.6), so a row is read once by the pass
        and once per removed successor.  Returns the surviving states."""
        states = set(states)
        for i in states:
            for r in range(ptr[i], ptr[i + 1]):
                kept[r] = kept[r] and states.issuperset(col[at[r]:at[r + 1]])
        removed = [i for i in states if kept.find(1, ptr[i], ptr[i + 1]) < 0]
        states.difference_update(removed)
        while removed:
            for r in pred[removed.pop()]:
                i = state[r]
                if kept[r] and i in states:
                    kept[r] = 0
                    if kept.find(1, ptr[i], ptr[i + 1]) < 0:
                        states.discard(i)
                        removed.append(i)
        return states

    components = []
    work = [prune(alive)]
    while work:
        block = work.pop()
        if not block:
            continue
        nodes = sorted(block)
        pos = {i: k for k, i in enumerate(nodes)}
        edges = [sorted({pos[j] for r in range(ptr[i], ptr[i + 1]) if kept[r]
                         for j in col[at[r]:at[r + 1]]}) for i in nodes]
        groups = numerics._tarjan_scc(len(nodes), edges)
        if len(groups) == 1:
            components.append(nodes)
        else:
            work.extend(prune(nodes[k] for k in grp) for grp in groups)
    return [(frozenset(nodes),
             tuple([r for i in nodes for r in range(ptr[i], ptr[i + 1]) if kept[r]]))
            for nodes in sorted(components)]


def accepting_amecs(product: ProductMdp) -> list[Amec]:
    """Per acceptance pair: remove the L states, decompose the remainder
    into MECs and keep those meeting K.  A component found under several
    pairs is kept once: its states determine it, as it keeps exactly
    their rows whose successors all stay inside."""
    found = {}
    for idx, (L, K) in enumerate(product.lifted_pairs):
        for states, rows in maximal_end_components(product, restrict=set(product.states) - L):
            if states & K and states not in found:
                found[states] = Amec(
                    states=states,
                    rows=rows,
                    k_states=frozenset(states & K),
                    pi_states=frozenset(states & product.pi_states),
                    pair_index=idx,
                )
    return list(found.values())


def almost_sure_reach_set(product: ProductMdp, target) -> frozenset[int]:
    """States from which some policy reaches the target with probability
    one.  Each round keeps the states of u in the attractor of the target
    inside u (`LabeledMdp.backward_layers`); rounds repeat until u no
    longer shrinks."""
    target = frozenset(target)
    if not target:
        raise EmptyTarget("target set is empty")
    u = set(product.states)
    while True:
        layers, _rows = product.model.backward_layers(target, u)
        if sum(map(len, layers)) == len(u):
            return frozenset(u)
        u = {i for layer in layers for i in layer}


def reach_policy(product: ProductMdp, amec: Amec) -> StationaryPolicy:
    """Memoryless policy reaching the component with probability one from
    every state of the almost-sure set; defined outside the component.

    Each state takes its first action that stays in the almost-sure set
    and decreases the positive-probability distance to the component,
    which keeps transient wandering short (any correct choice is
    acceptable: transient cost vanishes in the cycle average).
    """
    safe = almost_sure_reach_set(product, amec.states)
    if product.init not in safe:
        raise NotReachableAlmostSurely(
            "the initial state cannot reach this accepting component with "
            "probability 1")
    model = product.model
    _layers, least = model.backward_layers(amec.states, safe)
    # states outside the almost-sure set never occur under this policy;
    # give them their first action so the stitched policy is total
    choice = model.action[np.where(least < 0, model.row_ptr[:-1], least)]
    choice[list(amec.states)] = -1
    return StationaryPolicy(choice.tolist())
