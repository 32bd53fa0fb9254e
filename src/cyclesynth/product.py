"""Product of a labeled MDP with a deterministic Rabin automaton:
reachable-state construction, lifted acceptance sets / cycle set /
costs, and projection of product policies back onto the MDP.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dra import Dra
from .errors import AlphabetMismatch, PiUnused, UntrackedState
from .mdp import LabeledMdp, StationaryPolicy


@dataclass(frozen=True)
class ProductMdp:
    """Synchronized MDP x DRA restricted to states reachable from the
    initial pair.  Product states are indexed densely; `pairs_of` maps an
    index back to its (mdp state, dra state) pair.  `model` is the
    product's own labeled MDP: each row lists the product successors in
    the order of the MDP row's successors and shares that row's
    probabilities; only the optimizing proposition is labeled.
    `q_next[i]` is the automaton state after reading state i's label."""

    mdp: LabeledMdp
    dra: Dra
    pi: str
    n_states: int
    pairs_of: tuple[tuple[int, int], ...]
    index_of: dict[tuple[int, int], int]
    init: int
    lifted_pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]  # (L_P, K_P)
    pi_states: frozenset[int]
    model: LabeledMdp
    q_next: tuple[int, ...]

    @property
    def states(self) -> range:
        return range(self.n_states)

    def available(self, i: int):
        return self.model.available[i]

    def as_mdp(self) -> LabeledMdp:
        return self.model

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
    model = LabeledMdp(
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
        model=model,
        q_next=tuple(q_next),
    )


class ExecutablePolicy:
    """Controller for the original MDP that tracks the automaton state
    online.  Stationary on the product, generally non-stationary on the
    MDP.  `act` returns the control for the current MDP state and
    advances the tracked automaton state.  Tables: `index` maps s * n_q + q
    to the product state of (s, q); `choice` and `q_next` are per product state."""

    def __init__(self, product: ProductMdp, policy_on_product: StationaryPolicy):
        self.product = product
        self.policy = policy_on_product
        self.n_q = n_q = product.dra.n_states
        self.index = {s * n_q + q: i for (s, q), i in product.index_of.items()}
        self.choice = [policy_on_product.action(i) for i in product.states]
        self.q_next = product.q_next
        self.q = product.dra.start

    def reset(self):
        self.q = self.product.dra.start

    def current_product_state(self, s: int) -> int:
        i = self.index.get(s * self.n_q + self.q)
        if i is None:
            raise UntrackedState(
                f"run left the pruned product at MDP state {s}, automaton state "
                f"{self.q}; the model and policy do not match")
        return i

    def act(self, s: int) -> int:
        i = self.current_product_state(s)
        self.q = self.q_next[i]
        return self.choice[i]


def project_policy(product: ProductMdp, policy_on_product: StationaryPolicy) -> ExecutablePolicy:
    for i in product.states:
        if i not in policy_on_product.choice:
            raise UntrackedState(f"policy undefined at product state {product.state_name(i)}")
    return ExecutablePolicy(product, policy_on_product)
