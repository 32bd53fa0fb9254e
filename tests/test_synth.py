import dataclasses
import gc
import hashlib
import json
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    always_accepting_dra,
    k_labelled_mdp,
    k_tracking_dra,
    keyed_rows,
    make_mdp,
    pickup_delivery_dra,
    pickup_delivery_mdp,
    ring_mdp,
    rooms_mdp,
    two_amec_mdp,
)
from cyclesynth import acpc, sim, synth
from cyclesynth import dra as dra_mod
from cyclesynth import mdp as mdp_mod
from cyclesynth.acpc import PolicyIterationStatus
from cyclesynth.dra import Dra, RabinPair
from cyclesynth.errors import InvariantViolation, NoReachableAmec, NotReachableAlmostSurely
from cyclesynth.synth import amec_cycle_problem, synthesize
from cyclesynth import amec as amec_mod
from cyclesynth.product import build_product


class TestAmecCycleProblem:
    def test_renumbering_round_trip(self):
        product = build_product(pickup_delivery_mdp(), pickup_delivery_dra(),
                                "pickup")
        comp = amec_mod.accepting_amecs(product)[0]
        problem, k_local, local, ordered = amec_cycle_problem(product, comp)
        assert problem.mdp.n_states == len(comp.states)
        assert sorted(local[g] for g in ordered) == list(range(len(ordered)))
        model = product.model
        rows = list(comp.rows)
        assert problem.mdp.action.tolist() == model.action[rows].tolist()
        assert [ordered[k] for k in problem.mdp.row_state] == model.row_state[rows].tolist()
        assert {ordered[i] for i in problem.pi_states} == comp.pi_states
        assert {ordered[i] for i in k_local} == comp.k_states

    def test_rows_renumbered(self):
        product = build_product(pickup_delivery_mdp(), pickup_delivery_dra(),
                                "pickup")
        comp = amec_mod.accepting_amecs(product)[0]
        problem, _k, local, ordered = amec_cycle_problem(product, comp)
        sub, model = keyed_rows(problem.mdp), keyed_rows(product.as_mdp())
        assert mdp_mod.validate(problem.mdp).ok
        assert len(sub) == len(comp.rows)
        keys = list(model)  # in row order
        for r in comp.rows:
            g, a = keys[r]
            succ, prob, cost = model[(g, a)]
            assert sub[(local[g], a)] == (tuple(local[j] for j in succ), prob, cost)


class TestSparseRows:
    def test_product_and_component_rows_stay_small(self):
        """The product's labeled MDP is built once by build_product, and a
        component keeps its sparse rows: neither allocates n-length rows
        (at 1201 states, dense rows took about 20 MB each)."""
        product = build_product(ring_mdp(800), pickup_delivery_dra(), "pickup")
        assert product.n_states == 1201
        component = max(amec_mod.accepting_amecs(product), key=lambda c: len(c.states))
        for build in (product.as_mdp, lambda: amec_cycle_problem(product, component)):
            tracemalloc.start()
            try:
                kept = build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert kept
            assert peak <= 2 * 2 ** 20


def bench_problem(monkeypatch, kind: str, size: int):
    """(mdp, dra, pi) of the bench generator's problem at seed 0."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    from cyclebench import workloads

    text = workloads.GENERATORS[kind](size, 0)
    return (mdp_mod.from_json_dict(json.loads(text.mdp_json)),
            dra_mod.parse_json(text.dra_json), text.pi)


class TestSynthesize:
    def test_toy_b_lifted(self, toy_b):
        result = synthesize(toy_b, always_accepting_dra(), "pi")
        assert result.optimal
        assert result.optimal_cost == pytest.approx(2.0, abs=1e-10)
        # the policy takes the cheap 2-cycle at s0
        assert result.policy_json_dict()["choices"]["0:0"] == "b"

    def test_picks_cheaper_component(self):
        result = synthesize(two_amec_mdp(), always_accepting_dra(), "pi")
        assert len(result.lambda_per_amec) == 2
        lams = sorted(sol.lam for sol in result.lambda_per_amec)
        assert lams == [pytest.approx(2.0), pytest.approx(3.0)]
        assert result.optimal_cost == pytest.approx(2.0)
        # the winning component is the right cycle {3, 4}; the stitched
        # policy steers there from the initial state
        winner_cells = {result.product.pairs_of[i][0]
                        for i in result.winning_states()}
        assert winner_cells == {3, 4}
        i0 = result.product.index_of[(0, 0)]
        assert result.product.mdp.actions[
            result.stitched_policy.choice[i0]] == "right"

    def test_pickup_delivery(self):
        mdp = pickup_delivery_mdp()
        result = synthesize(mdp, pickup_delivery_dra(), "pickup")
        assert result.optimal
        assert all(sol.status is PolicyIterationStatus.OPTIMAL
                   for sol in result.lambda_per_amec)
        # independent reference: brute force over the component problem
        product = result.product
        comp = amec_mod.accepting_amecs(product)[0]
        problem, k_local, _, _ = amec_cycle_problem(product, comp)
        _, ref = acpc.brute_force_acpc(problem, k_local)
        assert result.optimal_cost == pytest.approx(ref, abs=1e-8)

    def test_stitched_policy_total(self):
        result = synthesize(pickup_delivery_mdp(), pickup_delivery_dra(),
                            "pickup")
        assert len(result.stitched_policy.choice) == result.product.n_states
        for i, a in enumerate(result.stitched_policy.choice):
            assert a in result.product.available(i)

    @pytest.mark.parametrize("name, text_digest, keys_digest", [
        ("pickup_delivery", "c3242c81da1eb946f6a120ca0a8090fa711a1d3573c97be6ab457946131322be",
         "a6d5928dda29c077c4691569ad091a4e4adeff5a4e7748fe44a5a81dcf1c93e5"),
        ("rooms20", "6ab38e426decdd1796d1e70258b1a6907c239013cd302c5c417818c493ddd9fc",
         "f709592d8009c9dad68dd11ec19b4ca0bc93bac7b6b6361275a95741f02e44ee"),
    ])
    def test_policy_json_pinned(self, name, text_digest, keys_digest, monkeypatch):
        """The policy document, as `synthesize --out` writes it, is the
        same byte for byte, and its "choices" keep their order (product
        state order): SHA-256 digests of the text and of the keys, one a
        line, recorded from the dict-backed policy."""
        if name == "pickup_delivery":
            problem = pickup_delivery_mdp(), pickup_delivery_dra(), "pickup"
        else:
            problem = bench_problem(monkeypatch, "rooms", 20)
        doc = synthesize(*problem).policy_json_dict()
        dumped = json.dumps(doc, indent=2, sort_keys=True)
        assert hashlib.sha256(dumped.encode()).hexdigest() == text_digest
        assert hashlib.sha256("\n".join(doc["choices"]).encode()).hexdigest() == keys_digest

    def test_bench_policy_compares_to_a_bool(self, monkeypatch):
        """The bench compares stitched policies with != and needs a plain
        bool: on ring 600, the largest ring_pi problem, the stitched policy
        is a tuple of one int per product state, none of them -1."""
        result = synthesize(*bench_problem(monkeypatch, "ring", 600))
        choice = result.stitched_policy.choice
        assert type(choice) is tuple and len(choice) == result.product.n_states
        assert {type(a) for a in choice} == {int} and -1 not in choice
        again = synthesize(*bench_problem(monkeypatch, "ring", 600)).stitched_policy.choice
        assert (choice != again) is False

    def test_phase_dependent_choice(self):
        """The synthesized controller may act differently at the same cell
        depending on the automaton phase: jumping from cell 8 is fine on
        the way back but carrying must not skip the dropoff at cell 4."""
        result = synthesize(pickup_delivery_mdp(), pickup_delivery_dra(),
                            "pickup")
        product = result.product
        choice = result.stitched_policy.choice
        a_carry4 = product.mdp.actions[choice[product.index_of[(4, 2)]]]
        assert a_carry4 != "beta"

    def test_jobs_agree(self):
        """jobs has no effect: one loop solves every component."""
        seq = synthesize(two_amec_mdp(), always_accepting_dra(), "pi")
        par = synthesize(two_amec_mdp(), always_accepting_dra(), "pi", jobs=4)
        assert seq.optimal_cost == par.optimal_cost
        assert seq.stitched_policy.choice == par.stitched_policy.choice

    def test_threads_build_the_predecessor_list_whole(self):
        """The product's predecessor list, whose build takes milliseconds
        behind a long corridor, is first used by the reach check after the
        component interiors are solved.  Worker threads once raced on that
        first build; jobs=8 with a thread switch every few bytecodes must
        give the answer of a plain run, as jobs has no effect."""
        corridor, rooms = 5000, rooms_mdp(8)
        rows = {(k, "go"): [(k + 1, 1.0)] for k in range(corridor)}
        for (i, a), (row, _prob, _cost) in keyed_rows(rooms).items():
            rows[(corridor + i, rooms.actions[a])] = [(corridor + j, 1.0) for j in row]
        costs = {key: 1.0 + key[0] % 3 for key in rows}
        mdp = make_mdp(corridor + rooms.n_states, rooms.actions, rows, costs,
                       labels={corridor + i: ["pi"] for i in rooms.pi_states("pi")})
        seq = synthesize(mdp, always_accepting_dra(), "pi")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            par = synthesize(mdp, always_accepting_dra(), "pi", jobs=8)
        finally:
            sys.setswitchinterval(interval)
        assert len(seq.lambda_per_amec) == 8
        assert par.diagnostics == seq.diagnostics
        assert par.stitched_policy.choice == seq.stitched_policy.choice

    def test_no_reachable_amec(self):
        # every run is eventually trapped: pickup twice in a row is forced
        forced = make_mdp(
            2, ["a"],
            rows={(0, "a"): [(0, 0.5), (1, 0.5)], (1, "a"): [(0, 1.0)]},
            costs={(0, "a"): 1.0, (1, "a"): 1.0},
            labels={0: ["pickup"], 1: ["dropoff"]},
        )
        with pytest.raises(NoReachableAmec):
            synthesize(forced, pickup_delivery_dra(), "pickup")

    def test_coin_flip_start_has_no_almost_sure_component(self):
        coin = make_mdp(
            5, ["flip", "go"],
            rows={(0, "flip"): [(1, 0.5), (3, 0.5)],
                  (1, "go"): [(2, 1.0)], (2, "go"): [(1, 1.0)],
                  (3, "go"): [(4, 1.0)], (4, "go"): [(3, 1.0)]},
            costs={(0, "flip"): 1.0, (1, "go"): 1.0, (2, "go"): 2.0,
                   (3, "go"): 1.0, (4, "go"): 1.0},
            labels={1: ["pi"], 3: ["pi"]},
        )
        with pytest.raises(NoReachableAmec):
            synthesize(coin, always_accepting_dra(), "pi")

    @pytest.mark.parametrize("scale", [1.0, 1e7])
    def test_large_costs_certified_optimal(self, scale):
        """The optimality certificate is relative to the gain: scaling every
        cost scales lambda and must not turn an optimal answer into
        notOptimal."""
        mdp = pickup_delivery_mdp()
        scaled = dataclasses.replace(mdp, cost=mdp.cost * scale)
        base = synthesize(mdp, pickup_delivery_dra(), "pickup").optimal_cost
        result = synthesize(scaled, pickup_delivery_dra(), "pickup")
        assert result.optimal
        assert result.optimal_cost == pytest.approx(scale * base, rel=1e-9)

    def test_diagnostics(self):
        result = synthesize(pickup_delivery_mdp(), pickup_delivery_dra(),
                            "pickup")
        d = result.diagnostics
        assert d["rawProductStates"] == 40
        assert d["productStates"] == result.product.n_states
        assert d["amecs"] == 1
        assert d["amecSizes"] == [12]
        assert d["skipped"] == []

    def test_interiors_solved_before_one_reach_check(self, monkeypatch):
        """One policy-iteration loop solves every component's interior
        before the first reach policy; on rooms 5, where the cheapest room
        is reached almost surely, the almost-sure set is computed once."""
        events = []
        for module, name in ((acpc, "block_policy_iteration"), (amec_mod, "reach_policy"),
                             (amec_mod, "almost_sure_reach_set")):
            monkeypatch.setattr(module, name, recording(events, name, getattr(module, name)))
        result = synthesize(rooms_mdp(5), always_accepting_dra(), "pi")
        assert result.winning_amec_index == 4 and len(result.lambda_per_amec) == 5
        assert [name for name, _args in events] == (
            ["block_policy_iteration", "reach_policy", "almost_sure_reach_set"])
        assert len(events[0][1][0].starts) == 5

    def test_only_the_best_reach_policy_kept(self, monkeypatch):
        """One reach policy is built on rooms 5, for the winning room, and
        none exists while the component interiors are solved."""
        made, alive = [], []
        reach_policy, policy_iteration = amec_mod.reach_policy, acpc.block_policy_iteration

        def tracked_reach(product, component):
            policy = reach_policy(product, component)
            made.append((component.states, weakref.ref(policy)))
            return policy

        def counting_iteration(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for _states, ref in made))
            return policy_iteration(*args, **kwargs)

        monkeypatch.setattr(amec_mod, "reach_policy", tracked_reach)
        monkeypatch.setattr(acpc, "block_policy_iteration", counting_iteration)
        result = synthesize(rooms_mdp(5), always_accepting_dra(), "pi")
        assert result.winning_amec_index == 4 and len(result.lambda_per_amec) == 5
        assert alive == [0]
        assert [states for states, _ref in made] == [result.winning_states()]

    def test_cheapest_reached_by_a_coin_flip_loses(self, monkeypatch):
        """The cheapest room is entered with probability 1/2 only: it is
        reach-checked first, skipped, and the dearer room reached almost
        surely wins."""
        calls = []
        monkeypatch.setattr(amec_mod, "almost_sure_reach_set",
                            recording(calls, "reach_set", amec_mod.almost_sure_reach_set))
        result = synthesize(coin_or_walk_mdp(), always_accepting_dra(), "pi")
        product = result.product

        def cells(states):
            return {product.pairs_of[i][0] for i in states}

        assert [cells(args[1]) for _name, args in calls] == [{3, 4}, {1, 2}]
        assert result.winning_amec_index == 0 and cells(result.winning_states()) == {1, 2}
        assert result.optimal_cost == pytest.approx(10.0) and result.optimal
        assert [sol.amec_index for sol in result.lambda_per_amec] == [0]
        assert result.diagnostics["skipped"] == [
            {"amec": 1, "reason": "not reachable almost surely"}]
        i0 = product.index_of[(0, 0)]
        assert product.mdp.actions[result.stitched_policy.choice[i0]] == "walk"

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            synthesize(two_amec_mdp(), always_accepting_dra(), "pi", retries=-4)

    @pytest.mark.parametrize("seed, retries, optimal, lam", [
        (31, 0, False, 5.931407), (31, 5, True, 0.871238),
        (14, 0, False, 5.354200), (14, 5, False, 1.505766)])
    def test_retries_from_random_initial_policies(self, seed, retries, optimal, lam):
        """Policy iteration from the tree policy stops short of optimal
        on these problems; restarts from random initial policies keep the
        best result, and on seed 31 one of them certifies the optimum."""
        result = synthesize(k_labelled_mdp(seed), k_tracking_dra(), "pi", retries=retries)
        assert result.optimal is optimal
        assert result.optimal_cost == pytest.approx(lam, abs=1e-6)

    def test_invalid_model_rejected_with_validate_messages(self):
        """0 -a-> 1 -a-> 2 with 'a' listed twice at 0, built in code: the
        end-component decomposition died on it with a bare KeyError."""
        mdp = make_mdp(3, ["a", "b"],
                       rows={(0, "a"): [(1, 1.0)], (0, "b"): [(0, 1.0)],
                             (1, "a"): [(2, 1.0)], (2, "a"): [(2, 1.0)]},
                       costs={(0, "a"): 1.0, (0, "b"): 1.0, (1, "a"): 1.0, (2, "a"): 1.0},
                       labels={0: ["pi"], 2: ["bad"]})
        mdp = dataclasses.replace(mdp, action=np.array([0, 0, 0, 0]))
        assert mdp.available == ((0, 0), (0,), (0,))
        symbols = [frozenset(), frozenset({"pi"}), frozenset({"bad"}), frozenset({"pi", "bad"})]
        dra = Dra(n_states=2, ap=("pi", "bad"), start=0,
                  pairs=(RabinPair(L=frozenset({1}), K=frozenset({0})),),
                  delta={(q, s): int(q == 1 or "bad" in s) for q in range(2) for s in symbols})
        assert mdp_mod.validate(mdp).violations == ("repeated action at state 0",)
        with pytest.raises(InvariantViolation, match="^repeated action at state 0$"):
            synthesize(mdp, dra, "pi")

    def test_validated_once_per_model(self, monkeypatch):
        calls = []
        monkeypatch.setattr(mdp_mod, "validate", recording(calls, "validate", mdp_mod.validate))
        mdp = mdp_mod.from_json_dict(mdp_mod.to_json_dict(two_amec_mdp()))
        for _ in range(2):
            synthesize(mdp, always_accepting_dra(), "pi")
        assert len(calls) == 1


def recording(log, name, fn):
    """fn, appending (name, positional arguments) to log on each call."""
    def wrapper(*args, **kwargs):
        log.append((name, args))
        return fn(*args, **kwargs)
    return wrapper


def coin_or_walk_mdp():
    """State 0 either flips a coin between the dear room {1, 2} (cost 5
    a step, 10 a cycle) and the cheap room {3, 4} (2 a cycle), or walks
    surely into the dear room."""
    return make_mdp(
        5, ["flip", "walk", "go"],
        rows={(0, "flip"): [(1, 0.5), (3, 0.5)], (0, "walk"): [(1, 1.0)],
              (1, "go"): [(2, 1.0)], (2, "go"): [(1, 1.0)],
              (3, "go"): [(4, 1.0)], (4, "go"): [(3, 1.0)]},
        costs={(0, "flip"): 1.0, (0, "walk"): 1.0, (1, "go"): 5.0, (2, "go"): 5.0,
               (3, "go"): 1.0, (4, "go"): 1.0},
        labels={1: ["pi"], 3: ["pi"]},
    )


def per_component_selection(mdp, dra, pi):
    """Reference selection, one component at a time: reach-check every
    component, solve the interior of each one reached almost surely that
    has cycle states, keep the least (lambda, index).  Returns (lambda,
    winner, stitched choice), or None where no component qualifies."""
    product = build_product(mdp, dra, pi)
    best = None
    for idx, component in enumerate(amec_mod.accepting_amecs(product)):
        try:
            reach = amec_mod.reach_policy(product, component)
        except NotReachableAlmostSurely:
            continue
        if not component.pi_states:
            continue
        problem, k_local, local, ordered = amec_cycle_problem(product, component)
        result = acpc.policy_iteration(problem, k_local)
        if best is None or result.gain_bias.lam < best[0]:
            choice = list(reach.choice)
            for g in ordered:
                choice[g] = result.policy.choice[local[g]]
            best = (result.gain_bias.lam, idx, tuple(choice))
    return best


@st.composite
def room_products(draw):
    """Random MDPs of closed rooms and entry states under the
    always-accepting or the pickup-delivery automaton.  Each room is a
    ring under "stay", starting at a pickup state, and may have a drawn
    "leave" row to any state; an entry state's rows go to later states
    only.  So some rooms are reached almost
    surely, some with positive probability only and some not at all.
    Costs are drawn integers, so gains can tie."""
    n_entry = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    n = n_entry + sum(sizes)

    def row(first):
        succ = draw(st.lists(st.integers(first, n - 1), min_size=1, max_size=3, unique=True))
        weights = [draw(st.integers(1, 3)) for _ in succ]
        return [(j, w / sum(weights)) for j, w in zip(succ, weights)]

    rows = {(i, a): row(i + 1) for i in range(n_entry)
            for a in ("a", "b")[:draw(st.integers(1, 2))]}
    starts = [n_entry + sum(sizes[:r]) for r in range(len(sizes))]
    for start, size in zip(starts, sizes):
        for k in range(size):
            rows[(start + k, "stay")] = [(start + (k + 1) % size, 1.0)]
            if draw(st.booleans()):
                rows[(start + k, "leave")] = row(0)
    costs = {key: draw(st.integers(1, 9)) for key in rows}
    labels = {i: draw(st.sampled_from([[], ["pickup"], ["dropoff"]])) for i in range(n)}
    labels.update((i, ["pickup"]) for i in starts)
    mdp = make_mdp(n, ["stay", "leave", "a", "b"], rows, costs, labels=labels)
    dra = draw(st.sampled_from([always_accepting_dra(("pickup", "dropoff")),
                                pickup_delivery_dra()]))
    return mdp, dra


class TestAgainstPerComponentSelection:
    @settings(max_examples=200, deadline=None)
    @given(room_products())
    def test_same_answer(self, problem):
        mdp, dra = problem
        expected = per_component_selection(mdp, dra, "pickup")
        try:
            result = synthesize(mdp, dra, "pickup")
        except NoReachableAmec:
            assert expected is None
            return
        assert expected is not None
        lam, winner, choice = expected
        assert repr(result.optimal_cost) == repr(lam)
        assert result.winning_amec_index == winner
        assert result.stitched_policy.choice == choice


def parted_mdp(parts):
    """An entry state 0 whose one action moves with equal chances to the
    first state of each part, then the parts side by side: for each
    (seed, scale), k_labelled_mdp(seed) with its costs times scale.
    Under k_tracking_dra each part gives components of its own."""
    rows, costs, labels = {(0, "u0"): []}, {(0, "u0"): 1.0}, {}
    base = 1
    for seed, scale in parts:
        part = k_labelled_mdp(seed)
        for (i, a), (succ, prob, cost) in keyed_rows(part).items():
            rows[(base + i, part.actions[a])] = [(base + j, p) for j, p in zip(succ, prob)]
            costs[(base + i, part.actions[a])] = cost * scale
        labels.update((base + i, sorted(label)) for i, label in enumerate(part.label))
        rows[(0, "u0")].append((base, 1.0 / len(parts)))
        base += part.n_states
    return make_mdp(base, ["u0", "u1", "u2"], rows, costs, labels=labels)


def each_block_as_alone(mdp, dra, pi):
    """Check that the one policy-iteration loop over every component with
    cycle states gives each component what policy_iteration gives it
    alone (status, iterations and interior policy equal, lambda within
    1e-12 relative), and so does every AmecSolution of synthesize.
    Returns the results alone, by component index."""
    product = build_product(mdp, dra, pi)
    solvable = [(idx, c) for idx, c in enumerate(amec_mod.accepting_amecs(product))
                if c.pi_states]
    alone = {}
    for idx, component in solvable:
        problem, k_local, _local, _ordered = amec_cycle_problem(product, component)
        alone[idx] = acpc.policy_iteration(problem, k_local)
    for batch in synth._unions(solvable):
        problem, k_local, _ordered = synth.union_cycle_problem(product, [c for _idx, c in batch])
        union = acpc.block_policy_iteration(problem, k_local)
        for (idx, _c), got in zip(batch, union, strict=True):
            want = alone[idx]
            assert (got.status, got.iterations, got.policy) == (want.status, want.iterations,
                                                                want.policy)
            assert got.gain_bias.lam == pytest.approx(want.gain_bias.lam, rel=1e-12, abs=0.0)
    try:
        result = synthesize(mdp, dra, pi)
    except NoReachableAmec:
        return alone
    for solution in result.lambda_per_amec:
        want = alone[solution.amec_index]
        assert (solution.status, solution.iterations, solution.interior_policy) == (
            want.status, want.iterations, want.policy)
        assert solution.lam == pytest.approx(want.gain_bias.lam, rel=1e-12, abs=0.0)
    return alone


class TestUnionAgainstAlone:
    """synthesize solves every component in one loop over their disjoint
    union; each must come out as policy_iteration makes it alone."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 399), min_size=2, max_size=6))
    def test_products_of_several_parts(self, seeds):
        """The parts' components span several widths, each solved in the
        union of its width."""
        alone = each_block_as_alone(parted_mdp([(seed, 1.0) for seed in seeds]),
                                    k_tracking_dra(), "pi")
        assert len(alone) >= 2

    def test_a_component_not_optimal_changes_no_other(self):
        """The components of parts 14 and 21 end notOptimal (their
        constrained selection fails); part 7's, of their width 2 and so in
        their union, and part 3's, of width 3, still get their own answers."""
        mdp = parted_mdp([(3, 1.0), (14, 1.0), (21, 1.0), (7, 1.0)])
        alone = each_block_as_alone(mdp, k_tracking_dra(), "pi")
        components = amec_mod.accepting_amecs(build_product(mdp, k_tracking_dra(), "pi"))
        assert [(len(components[idx].pi_states), result.status.value)
                for idx, result in sorted(alone.items())] == [
            (2, "notOptimal"), (2, "notOptimal"), (2, "optimal"), (3, "optimal")]

    def test_unions_by_width(self, monkeypatch):
        """Components are batched by width, in index order within a width,
        each batch within UNION_STATES states unless one component alone
        is larger."""
        monkeypatch.setattr(synth, "UNION_STATES", 10)
        shapes = [(4, 1), (3, 2), (5, 1), (2, 1), (12, 2), (6, 2), (3, 1)]
        solvable = [(idx, SimpleNamespace(states=frozenset(range(size)),
                                          pi_states=frozenset(range(width))))
                    for idx, (size, width) in enumerate(shapes)]
        assert [[idx for idx, _c in batch] for batch in synth._unions(solvable)] == [
            [0, 2], [3, 6], [1], [4], [5]]

    def test_cheap_next_to_dear(self):
        """A part with gains near 1 next to the same part with costs a
        million times larger: each block's tolerances scale with its own
        gain, not the dearer block's."""
        alone = each_block_as_alone(parted_mdp([(5, 0.5), (5, 5e5)]), k_tracking_dra(), "pi")
        gains = sorted(result.gain_bias.lam for result in alone.values())
        assert gains[0] < 10.0 and gains[-1] > 1e5

    @pytest.mark.parametrize("seed", range(5))
    def test_bench_rooms(self, seed, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        from cyclebench import workloads

        text = workloads.rooms(20, seed)
        alone = each_block_as_alone(mdp_mod.from_json_dict(json.loads(text.mdp_json)),
                                    dra_mod.parse_json(text.dra_json), text.pi)
        assert len(alone) == 20


class TestSuccessorTable:
    def test_automaton_stepped_once_per_product_state(self, monkeypatch):
        """build_product steps the automaton once per product state and
        records the successors and the next automaton state; synthesis,
        product simulation and the executable controller read that record."""
        callers = []
        step = Dra.step

        def counting(self, q, label):
            callers.append(sys._getframe(1).f_code.co_name)
            return step(self, q, label)

        monkeypatch.setattr(Dra, "step", counting)
        mdp = pickup_delivery_mdp()
        result = synthesize(mdp, pickup_delivery_dra(), "pickup")
        sim.simulate_product(result.product, result.stitched_policy, 1000, seed=1)
        sim.simulate_executable(mdp, result.executable(), 1000, seed=1,
                                pi_states=mdp.pi_states("pickup"))
        assert callers == ["build_product"] * result.product.n_states

    def test_almost_sure_set_once_per_component(self, monkeypatch):
        """The almost-sure set is computed at most once per component, and
        only for components reach-checked: on two_amec the cheaper right
        cycle is checked first and wins, so the left one is never checked."""
        calls = []
        reach_set = amec_mod.almost_sure_reach_set

        def counting(product, target):
            calls.append(frozenset(target))
            return reach_set(product, target)

        monkeypatch.setattr(amec_mod, "almost_sure_reach_set", counting)
        result = synthesize(two_amec_mdp(), always_accepting_dra(), "pi")
        assert len(result.lambda_per_amec) == 2
        assert calls == [result.winning_states()]
        assert result.optimal_cost == pytest.approx(2.0)


def test_synthesize_does_not_import_scipy(tmp_path):
    """The solver stays numpy-only: importing scipy would add tens of MB
    to the peak resident memory of every run."""
    root = Path(__file__).resolve().parent.parent
    fixtures = root / "tests" / "fixtures"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(root / 'src')!r})\n"
        "from cyclesynth import dra, mdp, synthesize\n"
        f"result = synthesize(mdp.load({str(fixtures / 'pickup_delivery_mdp.json')!r}),\n"
        f"                    dra.load({str(fixtures / 'pickup_delivery_dra.json')!r}), 'pickup')\n"
        "assert result.optimal\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
