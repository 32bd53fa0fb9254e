"""Seeded Monte Carlo execution of policies, empirical average cost per
cycle and finite-prefix acceptance evidence.

The generator is random.Random (Mersenne Twister), recorded in each
report; identical seeds give byte-identical reports on the same build.
A cycle completes on each arrival into the cycle set; the cycle index
starts at 1 at the initial state whether or not it lies in the set.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from itertools import accumulate
from random import Random

from .mdp import LabeledMdp, StationaryPolicy
from .product import ExecutablePolicy, ProductMdp

RNG_NAME = "python-random-mt19937"


@dataclass(frozen=True)
class PairEvidence:
    count_L: int
    count_K: int
    count_L_after_entry: int | None = None


@dataclass(frozen=True)
class SimReport:
    stages: int
    total_cost: float
    cycles: int
    seed: int
    rng: str = RNG_NAME
    pair_counters: tuple[PairEvidence, ...] = ()
    amec_entry_stage: int | None = None
    cycle_costs: tuple[float, ...] = field(default=(), repr=False)

    @property
    def empirical_acpc(self) -> float:
        return self.total_cost / self.cycles

    def to_json_dict(self) -> dict:
        out = {
            "stages": self.stages,
            "totalCost": self.total_cost,
            "cycles": self.cycles,
            "empiricalAcpc": self.empirical_acpc,
            "seed": self.seed,
            "rng": self.rng,
        }
        if self.pair_counters:
            out["pairs"] = [
                {"countL": p.count_L, "countK": p.count_K,
                 **({"countLAfterEntry": p.count_L_after_entry}
                    if p.count_L_after_entry is not None else {})}
                for p in self.pair_counters
            ]
        if self.amec_entry_stage is not None:
            out["amecEntryStage"] = self.amec_entry_stage
        return out


def _row(views, r: int) -> tuple[list[float], list[int], float]:
    """(cumulative probabilities, successors, cost) of row r, read from list
    views of a model's entry_ptr, col, prob and cost."""
    ptr, col, prob, cost = views
    cum = list(accumulate(prob[ptr[r]:ptr[r + 1]]))
    cum[-1] = 1.0  # guard against roundoff at the top end
    return cum, col[ptr[r]:ptr[r + 1]], cost[r]


def _policy_rows(mdp: LabeledMdp, policy: StationaryPolicy) -> list:
    """Each state's row under policy, ready for _run."""
    views = mdp.entry_ptr.tolist(), mdp.col.tolist(), mdp.prob.tolist(), mdp.cost.tolist()
    return [_row(views, r) for r in mdp.rows_of([policy.action(i) for i in mdp.states]).tolist()]


def _run(row_of, state: int, n_states: int, n_stages: int, seed: int, pi_states,
         collect_cycle_costs: bool = False, amec_states=None):
    """The stepping loop of every simulator.  `row_of(state)` returns
    (cum, successors, cost) for the action taken at state.  Returns the
    report, the visits per state, and the visits before the first entry
    into amec_states (None if the run never enters it; the entry visit
    itself counts as after entry)."""
    if n_stages < 1:
        raise ValueError(f"the stage count must be positive, got {n_stages}")
    uniform = Random(seed).random
    pi_set = frozenset(pi_states)
    until = frozenset(amec_states or ())
    hits = [0] * n_states
    hits[state] = 1
    entry_stage = before = None
    if state in until:
        entry_stage, before, until = 0, [0] * n_states, frozenset()
    total = 0.0
    cycles = 1
    cycle_cost = 0.0
    per_cycle: list[float] = []
    for stage in range(n_stages):
        cum, succ, cost = row_of(state)
        total += cost
        cycle_cost += cost
        state = succ[bisect_left(cum, uniform())]
        hits[state] += 1
        if state in pi_set:
            cycles += 1
            if collect_cycle_costs:
                per_cycle.append(cycle_cost)
            cycle_cost = 0.0
        if state in until:
            entry_stage, before, until = stage + 1, hits.copy(), frozenset()
            before[state] -= 1
    report = SimReport(stages=n_stages, total_cost=total, cycles=cycles, seed=seed,
                       amec_entry_stage=entry_stage, cycle_costs=tuple(per_cycle))
    return report, hits, before


def simulate(mdp: LabeledMdp, policy: StationaryPolicy, n_stages: int, seed: int,
             pi_states, collect_cycle_costs: bool = False) -> SimReport:
    """Run a stationary policy on an MDP for n_stages steps."""
    return _run(_policy_rows(mdp, policy).__getitem__, mdp.init, mdp.n_states, n_stages,
                seed, pi_states, collect_cycle_costs)[0]


def simulate_product(product: ProductMdp, policy: StationaryPolicy, n_stages: int,
                     seed: int, amec_states=None,
                     collect_cycle_costs: bool = False) -> SimReport:
    """Run a stationary product policy, counting cycles on the lifted
    cycle set and acceptance visits per Rabin pair.

    The product rows hold the MDP rows' probabilities in their order, so
    a run here consumes the same random draws as the projected controller
    on the plain MDP under the same seed.
    """
    report, hits, before = _run(_policy_rows(product.model, policy).__getitem__, product.init,
                                product.n_states, n_stages, seed, product.pi_states,
                                collect_cycle_costs, amec_states)
    if before is None:
        before = hits  # never entered: every visit came before entry
    pairs = tuple(
        PairEvidence(count_L=sum(hits[i] for i in L), count_K=sum(hits[i] for i in K),
                     count_L_after_entry=(None if amec_states is None
                                          else sum(hits[i] - before[i] for i in L)))
        for L, K in product.lifted_pairs)
    return replace(report, pair_counters=pairs)


class _Rows(dict):
    """Values built by `build` on first lookup; a hit is the dict's own lookup."""

    def __init__(self, build):
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _Untracked(int):
    """A spare state past the product's for a pair (s, q) the controller
    does not track (the second, n + 1, if s is a cycle state); its row raises."""


def simulate_executable(mdp: LabeledMdp, controller: ExecutablePolicy, n_stages: int,
                        seed: int, pi_states) -> SimReport:
    """Run a product-tracking controller on the MDP through the tracked
    product states.  At a state's first visit the controller acts once,
    and the state's row is its MDP row's sampler with the successors
    mapped through the controller's `index`; the product's rows are never
    read.  The draws are simulate_product's, so costs agree exactly."""
    index, n_q, pairs_of = controller.index, controller.n_q, controller.product.pairs_of
    n = len(pairs_of)
    pi_set = frozenset(pi_states)
    views = mdp.entry_ptr.tolist(), mdp.col.tolist(), mdp.prob.tolist(), mdp.cost.tolist()
    ptr, action = mdp.row_ptr.tolist(), mdp.action.tolist()
    samplers = _Rows(lambda r: _row(views, r))  # one per MDP row

    def tracked(s, q):
        i = index.get(s * n_q + q)
        if i is None:
            i = _Untracked(n + (s in pi_set))
            i.s, i.q = s, q
        return i

    def build(i):
        s, controller.q = (i.s, i.q) if isinstance(i, _Untracked) else pairs_of[i]
        # UntrackedState if untracked
        cum, succ, cost = samplers[action.index(controller.act(s), ptr[s], ptr[s + 1])]
        return cum, tuple(tracked(s2, controller.q) for s2 in succ), cost

    cycle = {tracked(s, q) for s in pi_set for q in range(n_q)}
    start = tracked(mdp.init, controller.product.dra.start)
    return _run(_Rows(build).__getitem__, start, n + 2, n_stages, seed, cycle)[0]
