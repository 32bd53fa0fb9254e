"""Product of a labeled MDP with a deterministic Rabin automaton:
reachable-state construction, lifted acceptance sets / cycle set /
costs, and projection of product policies back onto the MDP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dra import Dra
from .errors import AlphabetMismatch, PiUnused, UntrackedState
from .mdp import LabeledMdp, StationaryPolicy


@dataclass(frozen=True)
class ProductMdp:
    """Synchronized MDP x DRA restricted to states reachable from the
    initial pair.  Product states are indexed densely; `pairs_of` maps an
    index back to its (mdp state, dra state) pair.  `succ[(i, a)]` holds
    the positive-probability successors of (i, a), in the order of the
    MDP row's successors; their probabilities stay in the MDP rows."""

    mdp: LabeledMdp
    dra: Dra
    pi: str
    n_states: int
    pairs_of: tuple[tuple[int, int], ...]
    index_of: dict[tuple[int, int], int]
    init: int
    lifted_pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]  # (L_P, K_P)
    pi_states: frozenset[int]
    succ: dict[tuple[int, int], tuple[int, ...]]

    @property
    def states(self) -> range:
        return range(self.n_states)

    def available(self, i: int):
        s, _q = self.pairs_of[i]
        return self.mdp.available[s]

    def cost(self, i: int, a: int) -> float:
        s, _q = self.pairs_of[i]
        return self.mdp.cost[(s, a)]

    def transitions(self, i: int, a: int) -> list[tuple[int, float]]:
        """Positive-probability successors of (i, a) as (index, prob)."""
        row = self.mdp.trans[(self.pairs_of[i][0], a)]
        return [(j, float(row[self.pairs_of[j][0]])) for j in self.succ[(i, a)]]

    def as_mdp(self) -> LabeledMdp:
        """Explicit labeled MDP over the product state space (labels
        carry the optimizing proposition only)."""
        trans = {}
        cost = {}
        available = []
        for i in self.states:
            acts = self.available(i)
            available.append(tuple(acts))
            for a in acts:
                row = np.zeros(self.n_states)
                for j, p in self.transitions(i, a):
                    row[j] += p
                trans[(i, a)] = row
                cost[(i, a)] = self.cost(i, a)
        label = tuple(frozenset([self.pi]) if i in self.pi_states else frozenset()
                      for i in self.states)
        return LabeledMdp(
            n_states=self.n_states,
            actions=self.mdp.actions,
            available=tuple(available),
            trans=trans,
            cost=cost,
            init=self.init,
            props=frozenset([self.pi]),
            label=label,
        )

    def state_name(self, i: int) -> str:
        s, q = self.pairs_of[i]
        return f"{s}:{q}"


def build_product(mdp: LabeledMdp, dra: Dra, pi: str) -> ProductMdp:
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
    succ = {}
    frontier = [start]
    while frontier:
        nxt = []
        for (s, q) in frontier:
            q2 = dra.step(q, mdp.label[s])
            support = {a: mdp.successors(s, a).tolist() for a in mdp.available[s]}
            for j in sorted(set().union(*support.values())):
                key = (j, q2)
                if key not in index_of:
                    index_of[key] = len(pairs_of)
                    pairs_of.append(key)
                    nxt.append(key)
            i = index_of[(s, q)]
            for a, states in support.items():
                succ[(i, a)] = tuple(index_of[(j, q2)] for j in states)
        frontier = nxt

    lifted = []
    for pair in dra.pairs:
        L = frozenset(i for i, (_s, q) in enumerate(pairs_of) if q in pair.L)
        K = frozenset(i for i, (_s, q) in enumerate(pairs_of) if q in pair.K)
        lifted.append((L, K))
    pi_states = frozenset(i for i, (s, _q) in enumerate(pairs_of) if pi in mdp.label[s])
    return ProductMdp(
        mdp=mdp,
        dra=dra,
        pi=pi,
        n_states=len(pairs_of),
        pairs_of=tuple(pairs_of),
        index_of=index_of,
        init=0,
        lifted_pairs=tuple(lifted),
        pi_states=pi_states,
        succ=succ,
    )


class ExecutablePolicy:
    """Controller for the original MDP that tracks the automaton state
    online.  Stationary on the product, generally non-stationary on the
    MDP.  `act` returns the control for the current MDP state and
    advances the tracked automaton state."""

    def __init__(self, product: ProductMdp, policy_on_product: StationaryPolicy):
        self.product = product
        self.policy = policy_on_product
        self.q = product.dra.start

    def reset(self):
        self.q = self.product.dra.start

    def current_product_state(self, s: int) -> int:
        key = (s, self.q)
        if key not in self.product.index_of:
            raise UntrackedState(
                f"run left the pruned product at MDP state {s}, automaton state "
                f"{self.q}; the model and policy do not match")
        return self.product.index_of[key]

    def act(self, s: int) -> int:
        i = self.current_product_state(s)
        u = self.policy.action(i)
        self.q = self.product.dra.step(self.q, self.product.mdp.label[s])
        return u


def project_policy(product: ProductMdp, policy_on_product: StationaryPolicy) -> ExecutablePolicy:
    for i in product.states:
        if i not in policy_on_product.choice:
            raise UntrackedState(f"policy undefined at product state {product.state_name(i)}")
    return ExecutablePolicy(product, policy_on_product)
