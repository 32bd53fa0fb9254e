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
from itertools import repeat
from random import Random

import numpy as np

from . import numerics
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


CHUNK = 4096  # stages stepped between two rounds of numpy bookkeeping
def _cumulative(entry_ptr: np.ndarray, prob: np.ndarray) -> list[float]:
    """Each row's cumulative probabilities, its last set to 1.0 to guard
    against roundoff at the top end."""
    cum = numerics._running_sums(prob, entry_ptr[:-1])
    cum[entry_ptr[1:] - 1] = 1.0
    return cum.tolist()


def _policy_rows(mdp: LabeledMdp, policy: StationaryPolicy) -> tuple[list, np.ndarray]:
    """Each state's (cumulative probabilities, successors) under policy,
    ready for _run, and the cost of each state's row."""
    rows = mdp.rows_of(policy.choice)
    ptr, col, prob = mdp.chain(rows)
    cum, col, ptr = _cumulative(ptr, prob), col.tolist(), ptr.tolist()
    return [(cum[a:b], col[a:b]) for a, b in zip(ptr, ptr[1:])], mdp.cost[rows]


def _mask(states, n: int, what: str) -> np.ndarray:
    """`states` as a mask over the states 0..n-1, each read as an int (a
    numpy bool index would mark them all); ValueError names a state that
    is not an integer or lies outside them."""
    mask = np.zeros(n, dtype=bool)
    for i in states:
        if not (isinstance(i, (int, np.integer)) and 0 <= i < n):
            raise ValueError(f"{what} state {i!r} is not a state of the model (0..{n - 1})")
        mask[int(i)] = True
    return mask


def _run(rows, cost: np.ndarray, state: int, n_stages: int, seed: int, pi_states,
         collect_cycle_costs: bool = False, amec_states=None):
    """The stepping loop of every simulator.  `rows[state]` is the
    (cumulative probabilities, successors) of the action taken at state,
    and cost[state] its cost by the time the lookup returns; len(cost) is
    the number of states.  Each chunk of stages is stepped bare (draw,
    pick, record) and then counted with numpy.  Returns the report, the
    visits per state, and the visits before the first entry into
    amec_states (None if the run never enters it; the entry visit itself
    counts as after entry)."""
    if n_stages < 1:
        raise ValueError(f"the stage count must be positive, got {n_stages}")
    n = len(cost)
    uniform = Random(seed).random
    arrival = _mask(pi_states, n, "cycle-set")
    until = None if amec_states is None else _mask(amec_states, n, "component")
    hits = np.zeros(n, dtype=np.int64)
    hits[state] = 1
    entry_stage = before = None
    if until is not None and until[state]:
        entry_stage, before, until = 0, np.zeros(n, dtype=np.int64), None
    total = 0.0
    cycles = 1
    cycle_cost = 0.0
    per_cycle: list[float] = []
    for done in range(0, n_stages, CHUNK):
        size = min(CHUNK, n_stages - done)
        path = [state]
        step = path.append
        for _ in repeat(None, size):
            cum, succ = rows[state]
            state = succ[bisect_left(cum, uniform())]
            step(state)
        visited = np.fromiter(path, np.intp, size + 1)
        came, went = visited[:-1], visited[1:]
        paid = cost[came]
        total = np.cumsum(np.append(total, paid))[-1]  # total += cost, stage by stage
        ends = np.flatnonzero(arrival[went])
        cycles += len(ends)
        if collect_cycle_costs:
            # the chunk's cycles, the first carrying the open cycle's cost in
            sums = numerics._running_sums(np.append(cycle_cost, paid), np.append(0, ends + 2))
            per_cycle.extend(sums[ends + 1].tolist())
            cycle_cost = 0.0 if len(ends) and ends[-1] == size - 1 else sums[-1]
        if until is not None and len(entered := np.flatnonzero(until[went])):
            j = int(entered[0])
            entry_stage, until = done + j + 1, None
            before = hits + np.bincount(went[:j], minlength=n)
        hits += np.bincount(went, minlength=n)
    report = SimReport(stages=n_stages, total_cost=float(total), cycles=cycles, seed=seed,
                       amec_entry_stage=entry_stage, cycle_costs=tuple(per_cycle))
    return report, hits.tolist(), None if before is None else before.tolist()


def simulate(mdp: LabeledMdp, policy: StationaryPolicy, n_stages: int, seed: int,
             pi_states, collect_cycle_costs: bool = False) -> SimReport:
    """Run a stationary policy on an MDP for n_stages steps."""
    return _run(*_policy_rows(mdp, policy), mdp.init, n_stages, seed, pi_states,
                collect_cycle_costs)[0]


def simulate_product(product: ProductMdp, policy: StationaryPolicy, n_stages: int,
                     seed: int, amec_states=None,
                     collect_cycle_costs: bool = False) -> SimReport:
    """Run a stationary product policy, counting cycles on the lifted
    cycle set and acceptance visits per Rabin pair.

    The product rows hold the MDP rows' probabilities in their order, so
    a run here consumes the same random draws as the projected controller
    on the plain MDP under the same seed.
    """
    report, hits, before = _run(*_policy_rows(product.model, policy), product.init, n_stages,
                                seed, product.pi_states, collect_cycle_costs, amec_states)
    if before is None:
        before = hits  # never entered: every visit came before entry
    pairs = tuple(
        PairEvidence(count_L=sum(hits[i] for i in L), count_K=sum(hits[i] for i in K),
                     count_L_after_entry=(None if amec_states is None
                                          else sum(hits[i] - before[i] for i in L)))
        for L, K in product.lifted_pairs)
    return replace(report, pair_counters=pairs)


class _Untracked:
    """The row of a spare state that stands for a pair (s, q) the
    controller does not track: unpacking it makes the controller act
    there, so a run raises UntrackedState on the stage that would leave
    the pair."""

    def __init__(self, controller: ExecutablePolicy, s: int, q: int):
        self.controller, self.s, self.q = controller, s, q

    def __iter__(self):
        self.controller.q = self.q
        return self.controller.act(self.s)  # raises: (s, q) is not tracked


def simulate_executable(mdp: LabeledMdp, controller: ExecutablePolicy, n_stages: int,
                        seed: int, pi_states) -> SimReport:
    """Run a product-tracking controller on the MDP through the tracked
    product states.  The rows are built once per run, before it starts,
    for the pairs (MDP state, automaton state) the controller reaches from
    the start, breadth first: the controller acts once at each tracked
    pair, whose row is the chosen MDP row's cumulative probabilities with
    the successor pairs numbered in order of discovery, and each untracked
    pair gets a spare state with an _Untracked row.  The product's rows
    are never read.  The draws are simulate_product's, so costs agree
    exactly."""
    if n_stages < 1:
        raise ValueError(f"the stage count must be positive, got {n_stages}")
    index, n_q = controller.index, controller.n_q
    in_pi = _mask(pi_states, mdp.n_states, "cycle-set")
    ptr, action, first, col = (mdp.row_ptr.tolist(), mdp.action.tolist(),
                               mdp.entry_ptr.tolist(), mdp.col.tolist())
    pairs = [(mdp.init, controller.product.dra.start)]
    found = {mdp.init * n_q + pairs[0][1]: 0}  # s * n_q + q -> its place in pairs
    rows, tracked, chosen = [], [], []
    for s, q in pairs:  # breadth first: pairs is the queue, appended to as it goes
        if s * n_q + q not in index:
            rows.append(_Untracked(controller, s, q))
            continue
        controller.q = q
        r = action.index(controller.act(s), ptr[s], ptr[s + 1])
        q, succ = controller.q, []
        for j in col[first[r]:first[r + 1]]:
            k = found.setdefault(j * n_q + q, len(pairs))
            if k == len(pairs):
                pairs.append((j, q))
            succ.append(k)
        tracked.append(len(rows))
        chosen.append(r)
        rows.append(succ)
    entry_ptr, _col, prob = mdp.chain(np.array(chosen, dtype=np.int64))
    cum, at = _cumulative(entry_ptr, prob), entry_ptr.tolist()
    for i, a, b in zip(tracked, at, at[1:]):
        rows[i] = cum[a:b], rows[i]
    cost = np.zeros(len(pairs))
    cost[tracked] = mdp.cost[chosen]
    cycle = [i for i, (s, _q) in enumerate(pairs) if in_pi[s]]
    return _run(rows, cost, 0, n_stages, seed, cycle)[0]
