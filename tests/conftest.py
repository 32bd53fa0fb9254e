"""Shared fixtures: tiny hand-built MDPs, a pickup-delivery workflow
fixture, and seeded random communicating cycle problems."""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import settings

from cyclesynth.acpc import CycleProblem
from cyclesynth.dra import Dra, RabinPair
from cyclesynth.mdp import LabeledMdp, StationaryPolicy, from_rows


# every failing Hypothesis example prints the @reproduce_failure line that
# replays it, so a failure seen once can be run again
settings.register_profile("cyclesynth", print_blob=True)
settings.load_profile("cyclesynth")

# pass/fail lines recorded by the acceptance gate, echoed after the run
acceptance_verdicts: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_verdicts:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)


def make_mdp(n, actions, rows, costs, labels=None, init=0):
    """Compact constructor over mdp.from_rows.

    rows: {(state, action name): [(successor, prob), ...]}
    costs: {(state, action name): cost}
    labels: {state: [prop, ...]}
    """
    act_idx = {a: k for k, a in enumerate(actions)}
    keyed, available = [], [set() for _ in range(n)]
    for (i, a), entries in rows.items():
        row = {}
        for j, p in entries:
            row[j] = row.get(j, 0.0) + p
        keyed.append(((i, act_idx[a]), [(j, float(row[j])) for j in sorted(row)]))
        available[i].add(act_idx[a])
    labels = labels or {}
    return from_rows(actions, [tuple(sorted(acts)) for acts in available], keyed,
                     [((i, act_idx[a]), float(costs[(i, a)])) for i, a in rows], init,
                     [frozenset(labels.get(i, ())) for i in range(n)])


def keyed_rows(mdp) -> dict:
    """{(state, action index): (successors, probabilities, cost)}, read
    from the model's arrays: the form test oracles compare against."""
    col, prob, ptr = mdp.col.tolist(), mdp.prob.tolist(), mdp.entry_ptr.tolist()
    return {(i, a): (tuple(col[lo:hi]), tuple(prob[lo:hi]), c)
            for i, a, c, lo, hi in zip(mdp.row_state.tolist(), mdp.action.tolist(),
                                       mdp.cost.tolist(), ptr, ptr[1:])}


def assert_same_model(a, b):
    """a and b hold the same arrays, element for element and in the same
    dtypes, and the same states, actions, labels and initial state."""
    for name in ("row_ptr", "action", "cost", "entry_ptr", "col", "prob"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert (a.n_states, a.actions, a.init, a.label, a.props) == (
        b.n_states, b.actions, b.init, b.label, b.props)


def action_rows(mdp, actions) -> tuple[int, ...]:
    """The rows, ascending, that take the actions of {state: action
    indices}."""
    row = {key: r for r, key in enumerate(keyed_rows(mdp))}
    return tuple(sorted(row[(i, a)] for i, acts in actions.items() for a in acts))


def successor_table(mdp) -> dict:
    """{(state, action index): successors}, read from the model's arrays."""
    return {key: row[0] for key, row in keyed_rows(mdp).items()}


def with_row(mdp, i, a, succ, prob):
    """mdp rebuilt through mdp.from_rows with state i's row for action a
    replaced."""
    rows = keyed_rows(mdp)
    rows[(i, a)] = (succ, prob, rows[(i, a)][2])
    return from_rows(mdp.actions, mdp.available,
                     [(key, list(zip(s, p))) for key, (s, p, _c) in rows.items()],
                     [(key, c) for key, (_s, _p, c) in rows.items()], mdp.init, mdp.label)


def row_of(mdp, i, a):
    """(successors, probabilities, cost) of state i's row for action a."""
    return keyed_rows(mdp)[(i, a)]


@pytest.fixture
def toy_a():
    """Deterministic 2-cycle, unit costs, cycle set {s0}."""
    return make_mdp(
        2, ["a"],
        rows={(0, "a"): [(1, 1.0)], (1, "a"): [(0, 1.0)]},
        costs={(0, "a"): 1.0, (1, "a"): 1.0},
        labels={0: ["pi"]},
    )


@pytest.fixture
def toy_b():
    """s0 chooses between an expensive self-loop and a cheap 2-cycle."""
    return make_mdp(
        2, ["a", "b"],
        rows={
            (0, "a"): [(0, 1.0)],
            (0, "b"): [(1, 1.0)],
            (1, "a"): [(0, 1.0)],
        },
        costs={(0, "a"): 5.0, (0, "b"): 1.0, (1, "a"): 1.0},
        labels={0: ["pi"]},
    )


@pytest.fixture
def toy_c():
    """Geometric holding at s0 before visiting s1 and returning."""
    return make_mdp(
        2, ["a"],
        rows={(0, "a"): [(0, 0.5), (1, 0.5)], (1, "a"): [(0, 1.0)]},
        costs={(0, "a"): 1.0, (1, "a"): 1.0},
        labels={0: ["pi"]},
    )


def single_policy(mdp) -> StationaryPolicy:
    """The unique policy of a single-action-per-state MDP (first action
    otherwise)."""
    return StationaryPolicy({i: mdp.available[i][0] for i in mdp.states})


def always_accepting_dra(ap=("pi",)) -> Dra:
    """One state, every symbol self-loops, K = {0}, L empty."""
    symbols = []
    for bits in range(2 ** len(ap)):
        symbols.append(frozenset(a for b, a in enumerate(ap) if (bits >> b) & 1))
    delta = {(0, sym): 0 for sym in symbols}
    return Dra(n_states=1, ap=tuple(ap), start=0,
               pairs=(RabinPair(L=frozenset(), K=frozenset({0})),), delta=delta)


def pickup_delivery_dra() -> Dra:
    """Automaton for: pick up infinitely often, and never pick up again
    before dropping off.  States: 0 idle, 1 just picked up, 2 carrying,
    3 violation trap.  Pair: L = {3}, K = {1}."""
    ap = ("pickup", "dropoff")

    def step(q, sym):
        if q == 3:
            return 3
        pickup = "pickup" in sym
        dropoff = "dropoff" in sym
        if q == 0:
            return 1 if pickup else 0
        # carrying (1 or 2)
        if dropoff:
            return 1 if pickup else 0
        return 3 if pickup else 2

    symbols = [frozenset(), frozenset({"pickup"}), frozenset({"dropoff"}),
               frozenset({"pickup", "dropoff"})]
    delta = {(q, sym): step(q, sym) for q in range(4) for sym in symbols}
    return Dra(n_states=4, ap=ap, start=0,
               pairs=(RabinPair(L=frozenset({3}), K=frozenset({1})),), delta=delta)


def pickup_delivery_mdp() -> LabeledMdp:
    """Ten-state ring robot: alpha advances (cost 5), beta jumps two
    (cost 10), gamma crawls cheaply (cost 1).  Pickup at state 0,
    dropoff at state 5."""
    n = 10
    rows = {}
    costs = {}
    for i in range(n):
        if i == 0:
            # leaving the pickup state is deterministic: lingering would
            # read pickup twice in a row and violate the task
            rows[(i, "alpha")] = [(1, 1.0)]
        else:
            rows[(i, "alpha")] = [((i + 1) % n, 0.9), (i, 0.1)]
        costs[(i, "alpha")] = 5.0
    for i in (1, 4, 8):
        rows[(i, "beta")] = [((i + 2) % n, 0.8), ((i + 1) % n, 0.2)]
        costs[(i, "beta")] = 10.0
    for i in (2, 6, 9):
        rows[(i, "gamma")] = [(i, 0.6), ((i + 1) % n, 0.4)]
        costs[(i, "gamma")] = 1.0
    return make_mdp(n, ["alpha", "beta", "gamma"], rows, costs,
                    labels={0: ["pickup"], 5: ["dropoff"]}, init=0)


def ring_mdp(n: int) -> LabeledMdp:
    """The ring family that generalizes the pickup-delivery fixture:
    alpha advances (cost 5) and is deterministic at the pickup state 0,
    beta at i%3==1 jumps two (cost 10), gamma at i%3==2 crawls cheaply
    (cost 1).  Pickup at state 0, dropoff at state n//2."""
    rows = {}
    costs = {}
    for i in range(n):
        nxt = (i + 1) % n
        rows[(i, "alpha")] = [(nxt, 1.0)] if i == 0 else [(nxt, 0.9), (i, 0.1)]
        costs[(i, "alpha")] = 5.0
        if i % 3 == 1:
            rows[(i, "beta")] = [((i + 2) % n, 0.8), (nxt, 0.2)]
            costs[(i, "beta")] = 10.0
        if i % 3 == 2:
            rows[(i, "gamma")] = [(i, 0.6), (nxt, 0.4)]
            costs[(i, "gamma")] = 1.0
    return make_mdp(n, ["alpha", "beta", "gamma"], rows, costs,
                    labels={0: ["pickup"], n // 2: ["dropoff"]}, init=0)


def two_amec_mdp() -> LabeledMdp:
    """Initial branch into one of two disjoint cycles with different
    per-cycle costs (3 for the left cycle, 2 for the right)."""
    rows = {
        (0, "left"): [(1, 1.0)],
        (0, "right"): [(3, 1.0)],
        (1, "go"): [(2, 1.0)],
        (2, "go"): [(1, 1.0)],
        (3, "go"): [(4, 1.0)],
        (4, "go"): [(3, 1.0)],
    }
    costs = {
        (0, "left"): 1.0, (0, "right"): 1.0,
        (1, "go"): 1.0, (2, "go"): 2.0,
        (3, "go"): 1.0, (4, "go"): 1.0,
    }
    return make_mdp(5, ["left", "right", "go"], rows, costs,
                    labels={1: ["pi"], 3: ["pi"]}, init=0)


def rooms_mdp(n_rooms: int) -> LabeledMdp:
    """Chain of two-state rooms 2r, 2r+1: "go" swaps the two states at
    cost n_rooms - r, and "exit" at 2r+1 moves one way into the next
    room.  Each room is its own end component, every room is reached
    with probability 1, and the last room has the cheapest cycle."""
    rows, costs = {}, {}
    for r in range(n_rooms):
        a, b = 2 * r, 2 * r + 1
        rows[(a, "go")], rows[(b, "go")] = [(b, 1.0)], [(a, 1.0)]
        costs[(a, "go")] = costs[(b, "go")] = float(n_rooms - r)
        if r + 1 < n_rooms:
            rows[(b, "exit")] = [(b + 1, 1.0)]
            costs[(b, "exit")] = 1.0
    return make_mdp(2 * n_rooms, ["go", "exit"], rows, costs,
                    labels={2 * r: ["pi"] for r in range(n_rooms)})


def random_cycle_problem(seed, n_max=6, max_actions=3):
    """Seeded random communicating cycle problem with a K set.

    A deterministic ring under the first action guarantees the union
    digraph is strongly connected."""
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    actions = [f"u{k}" for k in range(max_actions)]
    rows = {}
    costs = {}
    for i in range(n):
        n_act = rng.randint(1, max_actions)
        for k in range(n_act):
            support = {rng.randrange(n) for _ in range(rng.randint(1, 3))}
            if k == 0:
                support.add((i + 1) % n)
            support = sorted(support)
            weights = [rng.random() + 0.05 for _ in support]
            total = sum(weights)
            rows[(i, actions[k])] = [(j, w / total) for j, w in zip(support, weights)]
            costs[(i, actions[k])] = rng.uniform(0.1, 10.0)
    pi_states = frozenset(rng.sample(range(n), rng.randint(1, n)))
    k_states = frozenset(rng.sample(range(n), rng.randint(1, n)))
    labels = {i: ["pi"] for i in pi_states}
    mdp = make_mdp(n, actions, rows, costs, labels=labels)
    return CycleProblem(mdp=mdp, pi_states=pi_states), k_states


def k_labelled_mdp(seed) -> LabeledMdp:
    """The MDP of random_cycle_problem(seed) with its K states labelled
    'k': with k_tracking_dra() the product's accepting states are K."""
    problem, k_states = random_cycle_problem(seed)
    mdp = problem.mdp
    label = tuple(lab | {"k"} if i in k_states else lab for i, lab in enumerate(mdp.label))
    return dataclasses.replace(mdp, label=label, props=mdp.props | {"k"})


def k_tracking_dra() -> Dra:
    """Two states over ("pi", "k"): every symbol holding k goes to state
    1, every other to state 0; one pair, K = {1}, L empty."""
    ap = ("pi", "k")
    symbols = [frozenset(), frozenset({"pi"}), frozenset({"k"}), frozenset({"pi", "k"})]
    delta = {(q, sym): int("k" in sym) for q in range(2) for sym in symbols}
    return Dra(n_states=2, ap=ap, start=0,
               pairs=(RabinPair(L=frozenset(), K=frozenset({1})),), delta=delta)


def write_ltl2dstar(dra, comment=None) -> str:
    """Serialize an automaton in the v2 explicit text format (test-side
    inverse of the package parser, used for round-trip checks)."""
    lines = ["DRA v2 explicit"]
    if comment:
        lines.append(f'Comment: "{comment}"')
    lines.append(f"States: {dra.n_states}")
    lines.append(f"Acceptance-Pairs: {len(dra.pairs)}")
    lines.append(f"Start: {dra.start}")
    lines.append(f"AP: {len(dra.ap)} " + " ".join(f'"{a}"' for a in dra.ap))
    lines.append("---")
    for q in range(dra.n_states):
        lines.append(f"State: {q}")
        marks = []
        for k, pair in enumerate(dra.pairs):
            if q in pair.L:
                marks.append(f"-{k}")
            if q in pair.K:
                marks.append(f"+{k}")
        lines.append("Acc-Sig:" + (" " + " ".join(marks) if marks else ""))
        for sym in dra.symbols():
            lines.append(str(dra.delta[(q, sym)]))
    return "\n".join(lines) + "\n"


def random_dra(seed) -> Dra:
    """Seeded random total automaton with 1-2 acceptance pairs."""
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    ap = tuple(f"p{k}" for k in range(rng.randint(1, 3)))
    symbols = []
    for bits in range(2 ** len(ap)):
        symbols.append(frozenset(a for b, a in enumerate(ap) if (bits >> b) & 1))
    delta = {(q, sym): rng.randrange(n) for q in range(n) for sym in symbols}
    pairs = []
    for _ in range(rng.randint(1, 2)):
        K = frozenset(rng.sample(range(n), rng.randint(1, n)))
        L = frozenset(rng.sample(range(n), rng.randint(0, n)))
        pairs.append(RabinPair(L=L, K=K))
    return Dra(n_states=n, ap=ap, start=rng.randrange(n),
               pairs=tuple(pairs), delta=delta)


def all_policies(mdp):
    """Iterate every stationary policy as a StationaryPolicy."""
    import itertools

    for choice in itertools.product(*[mdp.available[i] for i in mdp.states]):
        yield StationaryPolicy(dict(enumerate(choice)))
