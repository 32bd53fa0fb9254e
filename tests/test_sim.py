import dataclasses
import json
import re
import tracemalloc
from bisect import bisect_left
from functools import cache
from itertools import accumulate, islice
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    always_accepting_dra,
    keyed_rows,
    make_mdp,
    pickup_delivery_dra,
    pickup_delivery_mdp,
    random_cycle_problem,
    random_dra,
    single_policy,
    with_row,
)
from cyclesynth import acpc, sim
from cyclesynth.acpc import CycleProblem
from cyclesynth.dra import Dra, RabinPair
from cyclesynth.errors import UntrackedState
from cyclesynth.mdp import StationaryPolicy
from cyclesynth.product import ExecutablePolicy, build_product, project_policy
from cyclesynth.synth import synthesize


def detour_product():
    """State 0 (labeled bad) lingers before moving on to the 1 <-> 2
    cycle; "stay" never leaves it.  The automaton remembers whether the
    last label was bad: L = {bad seen}, K = {not seen}.  Returns the
    product, the always-"go" policy, the always-"stay" policy and the
    accepting component {(1, 0), (2, 0)}."""
    mdp = make_mdp(
        3, ["go", "stay"],
        rows={(0, "go"): [(0, 0.8), (1, 0.2)], (0, "stay"): [(0, 1.0)],
              (1, "go"): [(2, 1.0)], (2, "go"): [(1, 1.0)]},
        costs={(0, "go"): 1.0, (0, "stay"): 1.0, (1, "go"): 2.0, (2, "go"): 3.0},
        labels={0: ["bad"], 1: ["pi"]})
    symbols = [frozenset(), frozenset({"bad"}), frozenset({"pi"}),
               frozenset({"bad", "pi"})]
    dra = Dra(n_states=2, ap=("bad", "pi"), start=0,
              pairs=(RabinPair(L=frozenset({1}), K=frozenset({0})),),
              delta={(q, sym): int("bad" in sym) for q in range(2) for sym in symbols})
    product = build_product(mdp, dra, "pi")
    go = StationaryPolicy({i: 0 for i in product.states})
    stay = StationaryPolicy({i: 1 if product.pairs_of[i][0] == 0 else 0
                             for i in product.states})
    component = frozenset(product.index_of[(s, 0)] for s in (1, 2))
    return product, go, stay, component


def controller_steps(mdp, controller, seed, pi_states):
    """Reference for simulate_executable: the controller acts at every
    step, and the MDP row is sampled with simulate's draws.  Yields
    (total cost, cycles) after each stage, for as long as it is asked."""
    uniform = Random(seed).random
    controller.reset()
    s, total, cycles = mdp.init, 0.0, 1
    rows = keyed_rows(mdp)
    while True:
        succ, prob, cost = rows[(s, controller.act(s))]
        cum = list(accumulate(prob))
        cum[-1] = 1.0
        total += cost
        s = succ[bisect_left(cum, uniform())]
        cycles += s in pi_states
        yield total, cycles


def _golden_runs():
    problem, _k = random_cycle_problem(7)
    mdp = problem.mdp
    yield "simulate", sim.simulate(mdp, single_policy(mdp), 3000, seed=1,
                                   pi_states=problem.pi_states,
                                   collect_cycle_costs=True)
    pd = pickup_delivery_mdp()
    result = synthesize(pd, pickup_delivery_dra(), "pickup")
    product, policy = result.product, result.stitched_policy
    yield "product", sim.simulate_product(product, policy, 5000, seed=5)
    yield "product_amec", sim.simulate_product(
        product, policy, 5000, seed=5, amec_states=result.winning_states(),
        collect_cycle_costs=True)
    yield "executable", sim.simulate_executable(pd, result.executable(), 5000, seed=5,
                                                pi_states=pd.pi_states("pickup"))
    detour, go, _stay, _component = detour_product()
    yield "detour", sim.simulate_product(
        detour, go, 300, seed=3, amec_states={detour.index_of[(1, 1)]},
        collect_cycle_costs=True)


# (total cost, cycles, (count_L, count_K, count_L_after_entry) per pair,
#  component entry stage, first four cycle costs)
GOLDEN = {
    "simulate": (14350.758452032489, 759, (), None,
                 (125.39152293574342, 2.5165554561493138, 37.02882862116534,
                  19.772692038657325)),
    "product": (15048.0, 331, ((0, 331, None),), None, ()),
    "product_amec": (15048.0, 331, ((0, 331, 0),), 0, (40.0, 49.0, 41.0, 48.0)),
    "executable": (15048.0, 331, (), None, ()),
    "detour": (738.0, 148, ((8, 293, 1),), 8, (8.0, 5.0, 5.0, 5.0)),
}


def test_seeded_reports_are_pinned():
    for name, report in _golden_runs():
        pairs = tuple((p.count_L, p.count_K, p.count_L_after_entry)
                      for p in report.pair_counters)
        got = (report.total_cost, report.cycles, pairs, report.amec_entry_stage,
               report.cycle_costs[:4])
        assert got == GOLDEN[name], name


class TestSimulate:
    def test_deterministic_chain_counts(self, toy_a):
        # 10 stages on the 2-cycle: 5 arrivals back into {s0}, plus the
        # initial cycle index of 1
        report = sim.simulate(toy_a, single_policy(toy_a), 10, seed=0,
                              pi_states={0})
        assert report.stages == 10
        assert report.total_cost == 10.0
        assert report.cycles == 6
        assert report.empirical_acpc == pytest.approx(10.0 / 6.0)

    def test_seed_reproducibility(self, toy_c):
        a = sim.simulate(toy_c, single_policy(toy_c), 5000, seed=42, pi_states={0})
        b = sim.simulate(toy_c, single_policy(toy_c), 5000, seed=42, pi_states={0})
        assert a == b
        c = sim.simulate(toy_c, single_policy(toy_c), 5000, seed=43, pi_states={0})
        assert c.total_cost != a.total_cost or c.cycles != a.cycles

    def test_empirical_matches_analytic(self, toy_c):
        problem = CycleProblem(mdp=toy_c, pi_states=frozenset({0}))
        lam = acpc.acpc_evaluate(problem, single_policy(toy_c)).lam
        report = sim.simulate(toy_c, single_policy(toy_c), 200_000, seed=7,
                              pi_states={0})
        assert report.empirical_acpc == pytest.approx(lam, rel=0.01)

    def test_cycle_costs_partition_total(self, toy_c):
        report = sim.simulate(toy_c, single_policy(toy_c), 1000, seed=1,
                              pi_states={0}, collect_cycle_costs=True)
        assert len(report.cycle_costs) == report.cycles - 1
        assert sum(report.cycle_costs) <= report.total_cost

    @pytest.mark.parametrize("stages", [0, -5])
    def test_non_positive_stage_count_rejected(self, toy_a, stages):
        with pytest.raises(ValueError, match="stage count"):
            sim.simulate(toy_a, single_policy(toy_a), stages, seed=0, pi_states={0})

    @pytest.mark.parametrize("state", [5, -1, 1.5])
    def test_cycle_set_outside_the_model_rejected(self, toy_a, state):
        with pytest.raises(ValueError, match=f"cycle-set state {state} is not a state"):
            sim.simulate(toy_a, single_policy(toy_a), 10, seed=0, pi_states={0, state})

    def test_cycle_set_of_numpy_and_bool_states(self, toy_a):
        """Integer-valued states of any integer type name the same state:
        True is state 1, as it is in a set of ints."""
        plain = sim.simulate(toy_a, single_policy(toy_a), 10, seed=0, pi_states={1})
        assert sim.simulate(toy_a, single_policy(toy_a), 10, seed=0,
                            pi_states={True}) == plain
        assert sim.simulate(toy_a, single_policy(toy_a), 10, seed=0,
                            pi_states=np.array([1])) == plain

    def test_report_json_shape(self, toy_a):
        report = sim.simulate(toy_a, single_policy(toy_a), 10, seed=0, pi_states={0})
        data = report.to_json_dict()
        assert data == {
            "stages": 10, "totalCost": 10.0, "cycles": 6,
            "empiricalAcpc": 10.0 / 6.0, "seed": 0,
            "rng": "python-random-mt19937",
        }
        json.dumps(data)  # serializable


class TestSimulateProduct:
    def _solved(self):
        mdp = pickup_delivery_mdp()
        dra = pickup_delivery_dra()
        result = synthesize(mdp, dra, "pickup")
        return mdp, dra, result

    def test_projection_agrees_exactly(self):
        mdp, _dra, result = self._solved()
        product = result.product
        report_p = sim.simulate_product(product, result.stitched_policy,
                                        20_000, seed=5)
        controller = result.executable()
        report_e = sim.simulate_executable(mdp, controller, 20_000, seed=5,
                                           pi_states=mdp.pi_states("pickup"))
        assert report_p.total_cost == report_e.total_cost
        assert report_p.cycles == report_e.cycles

    def test_executable_acts_once_per_visited_state(self):
        """The controller acts once per reachable state, when the
        run's rows are built."""
        mdp, _dra, result = self._solved()
        controller = result.executable()
        pairs, act = [], controller.act

        def counting(s):
            pairs.append((s, controller.q))
            return act(s)

        controller.act = counting
        sim.simulate_executable(mdp, controller, 5_000, seed=5,
                                pi_states=mdp.pi_states("pickup"))
        assert pairs
        assert len(pairs) == len(set(pairs))
        assert set(pairs) <= set(result.product.pairs_of)

    @pytest.mark.parametrize("stages", [0, -5])
    def test_non_positive_stage_count_rejected(self, stages):
        mdp, _dra, result = self._solved()
        with pytest.raises(ValueError, match="stage count"):
            sim.simulate_product(result.product, result.stitched_policy, stages, seed=5)
        with pytest.raises(ValueError, match="stage count"):
            sim.simulate_executable(mdp, result.executable(), stages, seed=5,
                                    pi_states=mdp.pi_states("pickup"))

    @pytest.mark.parametrize("past_end", [True, False])
    def test_states_outside_the_model_rejected(self, past_end):
        mdp, _dra, result = self._solved()
        product = result.product
        outside = product.n_states if past_end else -1
        with pytest.raises(ValueError, match=f"component state {outside} is not a state"):
            sim.simulate_product(product, result.stitched_policy, 10, seed=5,
                                 amec_states={0, outside})
        outside = mdp.n_states if past_end else -1
        with pytest.raises(ValueError, match=f"cycle-set state {outside} is not a state"):
            sim.simulate_executable(mdp, result.executable(), 10, seed=5,
                                    pi_states={0, outside})

    def test_acceptance_evidence(self):
        _mdp, _dra, result = self._solved()
        report = sim.simulate_product(result.product, result.stitched_policy,
                                      50_000, seed=11,
                                      amec_states=result.winning_states())
        pair = report.pair_counters[0]
        assert pair.count_L == 0  # never trapped
        assert pair.count_K > 0   # picked up over and over
        assert pair.count_L_after_entry == 0
        assert report.amec_entry_stage == 0  # the initial state is inside

    def test_l_visited_before_entry(self):
        product, go, _stay, component = detour_product()
        report = sim.simulate_product(product, go, 300, seed=3,
                                      amec_states=component)
        pair = report.pair_counters[0]
        # every stage from 1 up to entry lingers in L; none after it does
        assert report.amec_entry_stage > 2
        assert pair.count_L == report.amec_entry_stage - 1
        assert pair.count_L_after_entry == 0 < pair.count_L

    def test_never_entering(self):
        product, _go, stay, component = detour_product()
        report = sim.simulate_product(product, stay, 300, seed=3,
                                      amec_states=component)
        pair = report.pair_counters[0]
        assert report.amec_entry_stage is None
        assert pair.count_L == 300
        assert pair.count_L_after_entry == 0

    def test_empirical_acpc_near_lambda(self):
        _mdp, _dra, result = self._solved()
        report = sim.simulate_product(result.product, result.stitched_policy,
                                      500_000, seed=3)
        assert report.empirical_acpc == pytest.approx(result.optimal_cost, rel=0.01)

    def test_trivial_product_matches_plain_simulation(self, toy_b):
        product = build_product(toy_b, always_accepting_dra(), "pi")
        mu = StationaryPolicy({0: 1, 1: 0})
        plain = sim.simulate(toy_b, mu, 1000, seed=9, pi_states={0})
        lifted = sim.simulate_product(product, mu, 1000, seed=9)
        assert plain.total_cost == lifted.total_cost
        assert plain.cycles == lifted.cycles

    def test_untracked_pair_raises_when_reached(self):
        """Cell 5 reads dropoff, so the automaton is idle on leaving it; an
        extra edge from cell 5 to cell 1 reaches (1, idle), which the
        product never tracks.  The run raises when it gets there, and a
        run that never samples the edge finishes."""
        mdp, _dra, result = self._solved()
        alpha = mdp.actions.index("alpha")
        leaky = with_row(mdp, 5, alpha, (1, 5, 6), (0.05, 0.1, 0.85))
        pi = mdp.pi_states("pickup")
        controller = result.executable()
        message = ("run left the pruned product at MDP state 1, automaton state 0; "
                   "the model and policy do not match")

        def completed(seed, n_stages):
            """The per-step loop's reports until the controller cannot act."""
            done = []
            try:
                done.extend(islice(controller_steps(leaky, controller, seed, pi), n_stages))
            except UntrackedState as err:
                assert str(err) == message
            return done

        done = completed(1, 10_000)
        stage = len(done)  # the first stage at which the controller cannot act
        assert 0 < stage < 10_000
        report = sim.simulate_executable(leaky, controller, stage, seed=1, pi_states=pi)
        assert (report.total_cost, report.cycles) == done[-1]
        with pytest.raises(UntrackedState, match=re.escape(message)):
            sim.simulate_executable(leaky, controller, stage + 1, seed=1, pi_states=pi)

        seed = next(seed for seed in range(2, 100) if len(completed(seed, stage + 1)) > stage)
        done = completed(seed, stage + 1)
        report = sim.simulate_executable(leaky, controller, stage + 1, seed, pi_states=pi)
        assert (report.total_cost, report.cycles) == done[-1]

    def test_product_rows_are_not_read(self):
        """The executable run is built from the controller's tables and
        the MDP: a product whose own model has no rows gives the same
        report as simulate_product on the real product."""
        mdp, _dra, result = self._solved()
        product, policy = result.product, result.stitched_policy
        empty = np.empty(0, dtype=np.int64)
        hollow = dataclasses.replace(product, model=dataclasses.replace(
            product.model, row_ptr=np.zeros(product.n_states + 1, dtype=np.int64),
            action=empty, cost=np.empty(0), entry_ptr=np.zeros(1, dtype=np.int64), col=empty,
            prob=np.empty(0)))
        executable = sim.simulate_executable(mdp, ExecutablePolicy(hollow, policy), 20_000,
                                             seed=8, pi_states=mdp.pi_states("pickup"))
        reference = sim.simulate_product(product, policy, 20_000, seed=8)
        assert executable == dataclasses.replace(reference, pair_counters=())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(0, 2 ** 31 - 1))
def test_executable_matches_per_step_controller_and_product(seed, run_seed):
    """On a random cycle problem relabeled over a random automaton's
    propositions, under a random product policy, the per-step controller
    loop, simulate_executable and simulate_product give the same cost and
    cycle count for the same seed."""
    problem, _k = random_cycle_problem(seed)
    dra = random_dra(seed)
    rng = Random(seed)
    pi = dra.ap[0]
    label = tuple(frozenset([pi] * (s in problem.pi_states)
                            + [a for a in dra.ap[1:] if rng.random() < 0.5])
                  for s in problem.mdp.states)
    mdp = dataclasses.replace(problem.mdp, label=label, props=frozenset(dra.ap))
    product = build_product(mdp, dra, pi)
    policy = StationaryPolicy({i: rng.choice(product.available(i)) for i in product.states})
    controller = project_policy(product, policy)
    pi_states = mdp.pi_states(pi)
    *_, expected = islice(controller_steps(mdp, controller, run_seed, pi_states), 300)
    executable = sim.simulate_executable(mdp, controller, 300, run_seed, pi_states)
    lifted = sim.simulate_product(product, policy, 300, run_seed)
    assert (executable.total_cost, executable.cycles) == expected
    assert (lifted.total_cost, lifted.cycles) == expected


def test_long_run_memory_is_one_chunk():
    """A run holds one chunk of its path at a time: the traced peak of a
    10^6-stage product run stays far below the 8 MB a list of the whole
    path would take (about 0.2 MB measured)."""
    result = synthesize(pickup_delivery_mdp(), pickup_delivery_dra(), "pickup")
    product, policy = result.product, result.stitched_policy
    tracemalloc.start()
    try:
        report = sim.simulate_product(product, policy, 10 ** 6, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.stages == 10 ** 6
    assert peak < 2 ** 20


def reference_run(row_of, state: int, n_states: int, n_stages: int, seed: int, pi_states,
                  collect_cycle_costs: bool = False, amec_states=None):
    """The stepping loop as one Python loop that counts as it steps, kept
    as the oracle of sim._run.  `row_of(state)` returns (cum, successors,
    cost) for the action taken at state.  Returns the report, the visits
    per state, and the visits before the first entry into amec_states
    (None if the run never enters it; the entry visit itself counts as
    after entry)."""
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
    report = sim.SimReport(stages=n_stages, total_cost=total, cycles=cycles, seed=seed,
                           amec_entry_stage=entry_stage, cycle_costs=tuple(per_cycle))
    return report, hits, before


CHUNK = sim.CHUNK
STAGE_COUNTS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)
PROBABILITIES = st.one_of(st.floats(1e-12, 1.0), st.sampled_from([1e-12, 1e-9, 0.5, 1.0]))
COSTS = st.one_of(st.floats(1e-3, 1e7), st.sampled_from([0.0, 1e-3, 0.1, 1.0, 1e7]))


@st.composite
def chains_with_entry(draw):
    """A random chain of 1-30 states, 1-4 successors each, behind a
    deterministic line of `lead` states, so that the first entry into
    the component {lead} falls at stage `lead`: at stage 0, mid-chunk, at
    the last stage of the first chunk or the first of the second.  The
    component is None or empty when the run never enters one; the cycle
    set is a random one or every state, so that a chunk can end on an
    arrival.  Returns the rows as (cum, successors, cost), the cycle set
    and the component."""
    where = draw(st.sampled_from(["start", "mid", "chunk end", "chunk start", "none", "never"]))
    lead = {"start": 0, "mid": draw(st.integers(1, CHUNK - 2)), "chunk end": CHUNK,
            "chunk start": CHUNK + 1}.get(where, draw(st.integers(0, 3)))
    line_costs = draw(st.lists(COSTS, min_size=1, max_size=8))
    rows = [([1.0], [i + 1], line_costs[i % len(line_costs)]) for i in range(lead)]
    m = draw(st.integers(1, 30))
    for _ in range(m):
        k = draw(st.integers(1, 4))
        succ = draw(st.lists(st.integers(lead, lead + m - 1), min_size=k, max_size=k))
        weights = draw(st.lists(PROBABILITIES, min_size=k, max_size=k))
        cum = list(accumulate(w / sum(weights) for w in weights))
        cum[-1] = 1.0
        rows.append((cum, succ, draw(COSTS)))
    pi = draw(st.one_of(st.sets(st.integers(0, lead + m - 1)), st.just(range(lead + m))))
    component = {"none": None, "never": set()}.get(where, {lead})
    return rows, pi, component


@settings(max_examples=80, deadline=None)
@given(chains_with_entry(), st.sampled_from(STAGE_COUNTS), st.integers(0, 2 ** 31 - 1),
       st.booleans())
@example(([([1.0], [1], 1.5), ([0.5, 1.0], [0, 1], 0.25)], {0, 1}, None), CHUNK + 1, 3, True)
def test_run_matches_the_per_stage_loop(chain, n_stages, seed, collect):
    """sim._run, stepping a chunk bare and counting it with numpy, gives
    the per-stage loop's report, visits and visits before entry, bit for
    bit, at stage counts around the chunk size.  The explicit example
    ends the first chunk on an arrival, so the next chunk's first cycle
    must start from 0.0."""
    rows, pi, component = chain
    samplers = [(cum, succ) for cum, succ, _cost in rows]
    cost = np.array([c for _cum, _succ, c in rows])
    got = sim._run(samplers, cost, 0, n_stages, seed, pi, collect, component)
    assert got == reference_run(rows.__getitem__, 0, len(rows), n_stages, seed, pi, collect,
                                component)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1e-12, 1e-4, 1e-3, 0.05]), st.sampled_from(STAGE_COUNTS),
       st.integers(0, 2 ** 31 - 1))
def test_executable_raises_where_the_per_step_controller_does(leak, n_stages, seed):
    """With an edge out of the tracked product taken with probability
    `leak`, simulate_executable raises UntrackedState at the stage at
    which the per-step controller loop cannot act, and otherwise gives
    its cost and cycle count."""
    mdp, controller = leaky_pickup_delivery(leak)
    pi = mdp.pi_states("pickup")
    done = []
    try:
        done.extend(islice(controller_steps(mdp, controller, seed, pi), n_stages))
    except UntrackedState:
        pass
    if len(done) == n_stages:
        report = sim.simulate_executable(mdp, controller, n_stages, seed, pi_states=pi)
        assert (report.total_cost, report.cycles) == done[-1]
        return
    if done:
        report = sim.simulate_executable(mdp, controller, len(done), seed, pi_states=pi)
        assert (report.total_cost, report.cycles) == done[-1]
    with pytest.raises(UntrackedState):
        sim.simulate_executable(mdp, controller, len(done) + 1, seed, pi_states=pi)


@cache
def leaky_pickup_delivery(leak):
    """The pickup-delivery MDP with an edge from cell 5 to cell 1 (see
    test_untracked_pair_raises_when_reached), and its controller."""
    mdp = pickup_delivery_mdp()
    result = synthesize(mdp, pickup_delivery_dra(), "pickup")
    leaky = with_row(mdp, 5, mdp.actions.index("alpha"), (1, 5, 6), (leak, 0.1, 0.9 - leak))
    return leaky, result.executable()
