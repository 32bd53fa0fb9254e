"""Seeded Monte Carlo execution of policies, empirical average cost per
cycle and finite-prefix acceptance evidence.

The generator is random.Random (Mersenne Twister), recorded in each
report; identical seeds give byte-identical reports on the same build.
A cycle completes on each arrival into the cycle set; the cycle index
starts at 1 at the initial state whether or not it lies in the set.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from random import Random

import numpy as np

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


def _cum_row(row: np.ndarray) -> tuple[list[float], list[int]]:
    support = np.flatnonzero(row > 0.0)
    cum = np.cumsum(row[support])
    cum[-1] = 1.0  # guard against roundoff at the top end
    return cum.tolist(), support.tolist()


def simulate(mdp: LabeledMdp, policy: StationaryPolicy, n_stages: int, seed: int,
             pi_states, collect_cycle_costs: bool = False) -> SimReport:
    """Run a stationary policy on an MDP for n_stages steps."""
    pi_set = frozenset(pi_states)
    sampler = {}
    for i in mdp.states:
        a = policy.action(i)
        cum, support = _cum_row(mdp.trans[(i, a)])
        sampler[i] = (cum, support, mdp.cost[(i, a)])
    rng = Random(seed)
    uniform = rng.random
    s = mdp.init
    total = 0.0
    cycles = 1
    cycle_cost = 0.0
    per_cycle: list[float] = []
    for _ in range(n_stages):
        cum, support, cost = sampler[s]
        total += cost
        cycle_cost += cost
        s = support[bisect_left(cum, uniform())]
        if s in pi_set:
            cycles += 1
            if collect_cycle_costs:
                per_cycle.append(cycle_cost)
            cycle_cost = 0.0
    return SimReport(stages=n_stages, total_cost=total, cycles=cycles, seed=seed,
                     cycle_costs=tuple(per_cycle))


def simulate_product(product: ProductMdp, policy: StationaryPolicy, n_stages: int,
                     seed: int, amec_states=None,
                     collect_cycle_costs: bool = False) -> SimReport:
    """Run a stationary product policy, counting cycles on the lifted
    cycle set and acceptance visits per Rabin pair.

    Successors are sampled from the underlying MDP rows, so a run here
    consumes the same random draws as the projected controller on the
    plain MDP under the same seed.
    """
    sampler = {}
    for i in product.states:
        s = product.pairs_of[i][0]
        a = policy.action(i)
        cum, _support = _cum_row(product.mdp.trans[(s, a)])
        sampler[i] = (cum, product.succ[(i, a)], product.mdp.cost[(s, a)])
    amec_set = frozenset(amec_states) if amec_states is not None else None
    n_pairs = len(product.lifted_pairs)
    count_L = [0] * n_pairs
    count_K = [0] * n_pairs
    count_L_after = [0] * n_pairs
    entry_stage = None

    rng = Random(seed)
    uniform = rng.random
    state = product.init
    total = 0.0
    cycles = 1
    cycle_cost = 0.0
    per_cycle: list[float] = []

    def visit(i, stage):
        nonlocal entry_stage
        if amec_set is not None and entry_stage is None and i in amec_set:
            entry_stage = stage
        for k, (L, K) in enumerate(product.lifted_pairs):
            if i in L:
                count_L[k] += 1
                if entry_stage is not None:
                    count_L_after[k] += 1
            if i in K:
                count_K[k] += 1

    visit(state, 0)
    for stage in range(n_stages):
        cum, succ, cost = sampler[state]
        total += cost
        cycle_cost += cost
        state = succ[bisect_left(cum, uniform())]
        visit(state, stage + 1)
        if state in product.pi_states:
            cycles += 1
            if collect_cycle_costs:
                per_cycle.append(cycle_cost)
            cycle_cost = 0.0
    pairs = tuple(
        PairEvidence(count_L=count_L[k], count_K=count_K[k],
                     count_L_after_entry=(count_L_after[k] if amec_set is not None else None))
        for k in range(n_pairs))
    return SimReport(stages=n_stages, total_cost=total, cycles=cycles, seed=seed,
                     pair_counters=pairs, amec_entry_stage=entry_stage,
                     cycle_costs=tuple(per_cycle))


def simulate_executable(mdp: LabeledMdp, controller: ExecutablePolicy, n_stages: int,
                        seed: int, pi_states) -> SimReport:
    """Run a product-tracking controller directly on the MDP.  Uses the
    same sampling scheme as simulate_product, so costs agree exactly for
    the same seed."""
    pi_set = frozenset(pi_states)
    sampler = {}
    controller.reset()
    rng = Random(seed)
    uniform = rng.random
    s = mdp.init
    total = 0.0
    cycles = 1
    for _ in range(n_stages):
        a = controller.act(s)
        total += mdp.cost[(s, a)]
        row = sampler.get((s, a))
        if row is None:
            row = sampler[(s, a)] = _cum_row(mdp.trans[(s, a)])
        cum, support = row
        s = support[bisect_left(cum, uniform())]
        if s in pi_set:
            cycles += 1
    return SimReport(stages=n_stages, total_cost=total, cycles=cycles, seed=seed)
