"""Product of a labeled MDP with a deterministic Rabin automaton:
reachable-state construction, lifted acceptance sets / cycle set /
costs, and projection of product policies back onto the MDP.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .dra import Dra
from .errors import AlphabetMismatch, PiUnused, UntrackedState
from .mdp import EMPTY_LABEL, LabeledMdp, StationaryPolicy


@dataclass(frozen=True)
class ProductMdp:
    """Synchronized MDP x DRA restricted to states reachable from the
    initial pair, indexed densely in breadth-first order: `pairs_of` maps
    an index to its (mdp state, dra state) pair, `index` maps
    s * dra.n_states + q to the index of (s, q).  `model` is the product's
    labeled MDP: state i's rows are its MDP state's, with the product
    successors in the same order; only the optimizing proposition is
    labeled.  `q_next[i]` is the automaton state after reading i's label."""

    mdp: LabeledMdp
    dra: Dra
    pi: str
    n_states: int
    pairs_of: tuple[tuple[int, int], ...]
    index: dict[int, int]
    init: int
    lifted_pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]  # (L_P, K_P)
    pi_states: frozenset[int]
    model: LabeledMdp
    q_next: tuple[int, ...]

    @property
    def states(self) -> range:
        return range(self.n_states)

    @cached_property
    def index_of(self) -> dict[tuple[int, int], int]:
        """The index of each (mdp state, dra state) pair, built on first use."""
        return {pair: i for i, pair in enumerate(self.pairs_of)}

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

    n_q = dra.n_states
    index = {mdp.init * n_q + dra.start: 0}
    pairs_of = [(mdp.init, dra.start)]
    q_next, col = [], []
    # a state's entries are contiguous: those of its first row to its last
    m_col, m_ptr = mdp.col.tolist(), mdp.entry_ptr[mdp.row_ptr].tolist()
    for s, q in pairs_of:  # breadth first: pairs_of is the queue, appended to as it goes
        q2 = dra.step(q, mdp.label[s])
        q_next.append(q2)
        succ = m_col[m_ptr[s]:m_ptr[s + 1]]
        for j in sorted(set(succ)):
            if j * n_q + q2 not in index:
                index[j * n_q + q2] = len(pairs_of)
                pairs_of.append((j, q2))
        col.extend([index[j * n_q + q2] for j in succ])

    lifted = []
    for pair in dra.pairs:
        L = frozenset(i for i, (_s, q) in enumerate(pairs_of) if q in pair.L)
        K = frozenset(i for i, (_s, q) in enumerate(pairs_of) if q in pair.K)
        lifted.append((L, K))
    pi_states = frozenset(i for i, (s, _q) in enumerate(pairs_of) if pi in mdp.label[s])
    marked = frozenset([pi])
    model = mdp.take(*mdp.rows_at([s for s, _q in pairs_of]), lambda _mdp_col: col,
                     [marked if i in pi_states else EMPTY_LABEL for i in range(len(pairs_of))],
                     marked)
    return ProductMdp(
        mdp=mdp,
        dra=dra,
        pi=pi,
        n_states=len(pairs_of),
        pairs_of=tuple(pairs_of),
        index=index,
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
    advances the tracked automaton state.  Tables: the product's `index`,
    and per product state `choice` and `q_next`."""

    def __init__(self, product: ProductMdp, policy_on_product: StationaryPolicy):
        self.product = product
        self.n_q = product.dra.n_states
        self.index = product.index
        self.choice = policy_on_product.choice[:product.n_states]
        first = (*self.choice, -1).index(-1)  # the first undefined state, or past the end
        if first < product.n_states:
            raise UntrackedState(f"policy undefined at product state {product.state_name(first)}")
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
    """The controller of a total product policy (UntrackedState otherwise)."""
    return ExecutablePolicy(product, policy_on_product)
