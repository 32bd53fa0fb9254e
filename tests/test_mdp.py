import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_model, keyed_rows, make_mdp, row_of
from cyclesynth import mdp as mdp_mod
from cyclesynth import numerics
from cyclesynth.errors import InvariantViolation, ParseError, PolicyIncomplete
from cyclesynth.mdp import StationaryPolicy, is_communicating, is_proper


def toy_b_json():
    return {
        "states": [{"id": 0, "label": ["pi"]}, {"id": 1, "label": []}],
        "actions": ["a", "b"],
        "available": {"0": ["a", "b"], "1": ["a"]},
        "trans": {
            "0,a": [[0, 1.0]],
            "0,b": [[1, 1.0]],
            "1,a": [[0, 1.0]],
        },
        "cost": {"0,a": 5.0, "0,b": 1.0, "1,a": 1.0},
        "init": 0,
    }


def toy_b_rows(available=((0, 1), (0,)), rows=None, costs=None, init=0):
    """toy_b through mdp.from_rows, which checks no more than the arrays
    need.  rows and costs override toy_b's by (state, action index); an
    override of None leaves the pair out."""
    keyed = {(0, 0): [(0, 1.0)], (0, 1): [(1, 1.0)], (1, 0): [(0, 1.0)], **(rows or {})}
    priced = {(0, 0): 5.0, (0, 1): 1.0, (1, 0): 1.0, **(costs or {})}
    return mdp_mod.from_rows(
        ("a", "b"), available, [(pair, row) for pair, row in keyed.items() if row],
        [(pair, c) for pair, c in priced.items() if c is not None], init,
        [frozenset({"pi"}), frozenset()])


NAN = float("nan")


# (build, rejected by the constructor, message): every malformed input
# either fails to build or builds and is reported by validate
MALFORMED = {
    "init-out-of-range": (lambda: toy_b_rows(init=5), False,
                          "init 5 is not a valid state index"),
    "no-action": (lambda: toy_b_rows(available=((0, 1), ()), rows={(1, 0): None},
                                     costs={(1, 0): None}), False,
                  "no available action at state 1"),
    "repeated-action": (lambda: dataclasses.replace(toy_b_rows(), action=np.array([0, 0, 0])),
                        False, "repeated action at state 0"),
    "missing-row": (lambda: toy_b_rows(rows={(0, 1): None}), True,
                    "missing transition row at (0,b)"),
    "row-for-unavailable-pair": (lambda: toy_b_rows(rows={(1, 1): [(0, 1.0)]}), True,
                                 "transition row stored for unavailable pair (1,1)"),
    "repeated-successor": (lambda: toy_b_rows(rows={(0, 1): [(1, 0.5), (1, 0.5)]}), False,
                           "repeated successor at (0,b)"),
    "successor-out-of-range": (lambda: toy_b_rows(rows={(0, 1): [(2, 1.0)]}), False,
                               "successor out of range at (0,b)"),
    "non-finite-probability": (lambda: toy_b_rows(rows={(0, 1): [(1, NAN)]}), False,
                               "non-finite probability at (0,b)"),
    "zero-probability": (lambda: toy_b_rows(rows={(0, 1): [(0, 0.0), (1, 1.0)]}), False,
                         "probability outside (0,1] at (0,b)"),
    "probability-above-one": (lambda: toy_b_rows(rows={(0, 1): [(0, 1.5), (1, -0.5)]}), False,
                              "probability outside (0,1] at (0,b)"),
    "row-sum-off-one": (lambda: toy_b_rows(rows={(0, 1): [(1, 0.9)]}), False,
                        "row sum 0.9 != 1 at (0,b)"),
    "missing-cost": (lambda: toy_b_rows(costs={(0, 1): None}), True, "missing cost at (0,b)"),
    "cost-for-unavailable-pair": (lambda: toy_b_rows(costs={(1, 1): 1.0}), True,
                                  "cost stored for unavailable pair (1,1)"),
    "non-finite-cost": (lambda: toy_b_rows(costs={(0, 1): NAN}), False,
                        "non-finite cost at (0,b)"),
    "non-positive-cost": (lambda: toy_b_rows(costs={(0, 1): 0.0}), False,
                          "non-positive cost at (0,b)"),
}
# arrays that do not fit together, which the constructor rejects
for name, field, value, message in [
    ("fewer-probabilities-than-successors", "prob", np.array([1.0, 1.0]),
     "prob has 2 entries, expected 3"),
    ("fewer-costs-than-rows", "cost", np.array([5.0, 1.0]), "cost has 2 entries, expected 3"),
    ("label-short", "label", (frozenset({"pi"}),), "label has 1 entries, expected 2"),
    ("row-pointer-short", "row_ptr", np.array([0, 2]), "row_ptr has 2 entries, expected 3"),
    ("row-pointer-not-from-0", "row_ptr", np.array([1, 2, 3]),
     "row_ptr does not run from 0 up to 3"),
    ("entry-pointer-decreasing", "entry_ptr", np.array([0, 2, 1, 3]),
     "entry_ptr does not run from 0 up to 3"),
    ("entry-pointer-past-the-entries", "entry_ptr", np.array([0, 1, 2, 4]),
     "entry_ptr does not run from 0 up to 3"),
    ("action-out-of-range", "action", np.array([0, 2, 0]), "action index out of range"),
]:
    MALFORMED[name] = (lambda field=field, value=value: dataclasses.replace(
        toy_b_rows(), **{field: value}), True, message)


@pytest.mark.parametrize("build, rejected, message", MALFORMED.values(), ids=MALFORMED)
def test_every_malformed_input_is_rejected_or_reported(build, rejected, message):
    """What the arrays cannot hold, the constructor rejects; everything
    else validate reports.  Saved and loaded again, the model is refused,
    or repaired where the loader sums repeated successors and drops zero
    entries."""
    if rejected:
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            build()
        return
    model = build()
    assert message in mdp_mod.validate(model).violations
    try:
        again = mdp_mod.from_json_dict(mdp_mod.to_json_dict(model))
    except (InvariantViolation, ParseError):
        return
    assert mdp_mod.validate(again).ok


class TestModel:
    def test_validate_ok(self, toy_b):
        assert mdp_mod.validate(toy_b).ok

    def test_validate_collects_violations(self, toy_b):
        cost = toy_b.cost.copy()
        cost[0] = -1.0  # the row of (0, a)
        bad = dataclasses.replace(toy_b, cost=cost, init=5)
        report = mdp_mod.validate(bad)
        assert not report.ok
        text = " ".join(report.violations)
        assert "init" in text and "cost" in text

    def test_policy_matrices(self, toy_b):
        mu = StationaryPolicy({0: 1, 1: 0})
        P, g = toy_b.policy_matrices(mu)
        np.testing.assert_allclose(P, [[0, 1], [1, 0]])
        np.testing.assert_allclose(g, [1.0, 1.0])

    def test_partial_policy_raises(self, toy_b):
        with pytest.raises(PolicyIncomplete):
            toy_b.policy_matrices(StationaryPolicy({0: 0}))

    def test_rows_of_names_the_undefined_state(self, toy_b):
        with pytest.raises(PolicyIncomplete, match=r"^policy undefined at state 1$"):
            toy_b.rows_of((1, -1))
        with pytest.raises(PolicyIncomplete, match=r"^action 1 is not available at state 1$"):
            toy_b.rows_of((0, 1))

    def test_pi_states(self, toy_b):
        assert toy_b.pi_states("pi") == frozenset({0})
        assert toy_b.pi_states("other") == frozenset()

    def test_predecessor_list_stored_only_when_whole(self, toy_b, monkeypatch):
        """Worker threads may ask for pred at the same time: the list is
        stored on the model only after the entries have been sorted, so a
        reader either builds its own or reads a complete one."""
        argsort = np.argsort

        def watched(*args, **kwargs):
            assert "pred" not in model.__dict__
            return argsort(*args, **kwargs)

        model = dataclasses.replace(toy_b)
        monkeypatch.setattr(np, "argsort", watched)
        assert model.pred is model.pred
        # rows 0, 1, 2 are (0, a), (0, b), (1, a)
        assert model.pred == ([0, 2], [1])


class TestStationaryPolicy:
    def test_dict_and_sequence_build_equal_hashable_policies(self):
        """A {state: action} dict and the sequence of its actions build the
        same policy, held as a tuple with -1 at each omitted state."""
        assert StationaryPolicy({0: 1, 1: 0}) == StationaryPolicy([1, 0])
        assert StationaryPolicy([1, 0]).choice == (1, 0)
        assert StationaryPolicy({2: 0, 0: 1}).choice == (1, -1, 0)
        assert StationaryPolicy({}).choice == ()
        assert len({StationaryPolicy({0: 1, 1: 0}), StationaryPolicy([1, 0])}) == 1
        assert hash(StationaryPolicy({1: 0})) == hash(StationaryPolicy((-1, 0)))

    @pytest.mark.parametrize("state", [1, 3, -1])
    def test_action_raises_where_undefined(self, state):
        mu = StationaryPolicy({0: 1, 2: 0})
        assert (mu.action(0), mu.action(2)) == (1, 0)
        with pytest.raises(PolicyIncomplete, match=rf"^policy undefined at state {state}$"):
            mu.action(state)


@st.composite
def policies_with_targets(draw):
    """Random MDPs, not necessarily communicating, with a policy and a
    nonempty target set."""
    n = draw(st.integers(1, 10))
    actions = ["a", "b", "c"]
    rows = {}
    for i in range(n):
        for a in draw(st.lists(st.sampled_from(actions), min_size=1, max_size=3,
                               unique=True)):
            support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3,
                                    unique=True))
            rows[(i, a)] = [(j, 1.0 / len(support)) for j in support]
    mdp = make_mdp(n, actions, rows, {key: 1.0 for key in rows})
    mu = StationaryPolicy({i: draw(st.sampled_from(mdp.available[i])) for i in mdp.states})
    return mdp, mu, draw(st.frozensets(st.integers(0, n - 1), min_size=1))


def oracle_is_proper(mdp, mu, target):
    """Backward breadth-first search from the target over the edges of
    mu's chain: proper iff it reaches every state."""
    pred = [[] for _ in mdp.states]
    rows = keyed_rows(mdp)
    for i in mdp.states:
        for j in rows[(i, mu.action(i))][0]:
            pred[j].append(i)
    can_reach = set(target)
    frontier = list(target)
    while frontier:
        frontier = [w for v in frontier for w in pred[v] if w not in can_reach]
        can_reach.update(frontier)
    return len(can_reach) == mdp.n_states


class TestChainAnalysis:
    def test_induced_chain_self_loop(self, toy_b):
        P, _g = toy_b.policy_matrices(StationaryPolicy({0: 0, 1: 0}))
        classes, transient = numerics.recurrent_classes(P)
        assert classes == [[0]]
        assert transient == [1]

    def test_is_proper(self, toy_b):
        loop = StationaryPolicy({0: 0, 1: 0})
        swap = StationaryPolicy({0: 1, 1: 0})
        assert is_proper(toy_b, swap, {0})
        assert is_proper(toy_b, loop, {0})   # state 1 still reaches 0
        assert not is_proper(toy_b, loop, {1})  # state 0 never leaves itself

    @settings(max_examples=300, deadline=None)
    @given(policies_with_targets())
    def test_is_proper_matches_backward_search(self, problem):
        mdp, mu, target = problem
        assert is_proper(mdp, mu, target) == oracle_is_proper(mdp, mu, target)

    def test_is_communicating(self, toy_b):
        assert is_communicating(toy_b)
        two_islands = make_mdp(
            2, ["a"],
            rows={(0, "a"): [(0, 1.0)], (1, "a"): [(1, 1.0)]},
            costs={(0, "a"): 1.0, (1, "a"): 1.0},
        )
        assert not is_communicating(two_islands)


class TestJsonRoundTrip:
    def test_load_toy_b(self, tmp_path):
        path = tmp_path / "toy_b.json"
        path.write_text(json.dumps(toy_b_json()))
        mdp = mdp_mod.load(path)
        assert mdp.n_states == 2
        assert mdp.actions == ("a", "b")
        assert mdp.available == ((0, 1), (0,))
        assert mdp.label[0] == frozenset({"pi"})
        assert row_of(mdp, 0, 1) == ((1,), (1.0,), 1.0)
        assert row_of(mdp, 0, 0)[2] == 5.0

    def test_round_trip(self, toy_b):
        again = mdp_mod.from_json_dict(mdp_mod.to_json_dict(toy_b))
        assert again.available == toy_b.available
        assert_same_model(again, toy_b)

    def test_unknown_top_level_key(self):
        data = toy_b_json()
        data["extra"] = 1
        with pytest.raises(ParseError, match="unknown keys"):
            mdp_mod.from_json_dict(data)

    def test_missing_key(self):
        data = toy_b_json()
        del data["cost"]
        with pytest.raises(ParseError, match="missing keys"):
            mdp_mod.from_json_dict(data)

    def test_row_sum_rejected(self):
        data = toy_b_json()
        data["trans"]["0,b"] = [[1, 0.9]]
        with pytest.raises(ParseError, match="row sum"):
            mdp_mod.from_json_dict(data)

    def test_row_renormalized_within_tolerance(self):
        data = toy_b_json()
        data["trans"]["0,b"] = [[1, 1.0 + 5e-10]]
        mdp = mdp_mod.from_json_dict(data)
        assert row_of(mdp, 0, 1)[1] == (1.0,)

    def test_bad_action_key(self):
        data = toy_b_json()
        data["trans"]["0,z"] = [[1, 1.0]]
        with pytest.raises(ParseError, match="unknown action"):
            mdp_mod.from_json_dict(data)

    def test_state_ids_must_be_dense(self):
        data = toy_b_json()
        data["states"][1]["id"] = 7
        with pytest.raises(ParseError, match="0..n-1"):
            mdp_mod.from_json_dict(data)

    def test_nonpositive_cost_rejected(self):
        data = toy_b_json()
        data["cost"]["1,a"] = 0.0
        with pytest.raises(InvariantViolation, match="cost"):
            mdp_mod.from_json_dict(data)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"states\": [\n")
        with pytest.raises(ParseError) as err:
            mdp_mod.load(path)
        assert err.value.line is not None


class TestRejectedInput:
    """Non-finite numbers and malformed containers raise typed errors."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_probability_at_load(self, tmp_path, value):
        data = toy_b_json()
        data["trans"]["0,b"] = [[0, value], [1, 1.0]]
        path = tmp_path / "mdp.json"
        path.write_text(json.dumps(data))  # written as NaN / Infinity
        with pytest.raises(ParseError, match="non-finite probability"):
            mdp_mod.load(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_cost_at_load(self, value):
        data = toy_b_json()
        data["cost"]["1,a"] = value
        with pytest.raises(ParseError, match="non-finite cost"):
            mdp_mod.from_json_dict(data)

    @pytest.mark.parametrize("succ, prob, message", [
        ((1,), (float("nan"),), "non-finite probability"),
        ((1,), (float("inf"),), "non-finite probability"),
        ((0, 1), (0.0, 1.0), "probability outside (0,1]"),
        ((2,), (1.0,), "successor out of range"),
        ((1, 1), (0.5, 0.5), "repeated successor"),
    ])
    def test_validate_rows(self, succ, prob, message):
        bad = toy_b_rows(rows={(0, 1): list(zip(succ, prob))})
        report = mdp_mod.validate(bad)
        assert [v for v in report.violations if message in v] == [f"{message} at (0,b)"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_validate_cost(self, toy_b, value):
        cost = toy_b.cost.copy()
        cost[1] = value  # the row of (0, b)
        bad = dataclasses.replace(toy_b, cost=cost)
        assert mdp_mod.validate(bad).violations == ("non-finite cost at (0,b)",)

    @pytest.mark.parametrize("name, value", [
        ("trans", []), ("available", ["a"]), ("cost", 5), ("actions", "ab"),
    ])
    def test_container_of_wrong_type(self, name, value):
        data = toy_b_json()
        data[name] = value
        with pytest.raises(ParseError, match=f"key '{name}'"):
            mdp_mod.from_json_dict(data)

    @pytest.mark.parametrize("data", [5, None, [], "states"])
    def test_document_not_an_object(self, data):
        with pytest.raises(ParseError, match="^expected an object, got "):
            mdp_mod.from_json_dict(data)

    @pytest.mark.parametrize("init", [[0], None, "start", 0.9, True, 1.5])
    def test_init_not_an_index(self, init):
        data = toy_b_json()
        data["init"] = init
        with pytest.raises(ParseError, match="not a state index"):
            mdp_mod.from_json_dict(data)

    @pytest.mark.parametrize("state_id", [1.9, "x", "1", False])
    def test_state_id_not_integral(self, state_id):
        data = toy_b_json()
        data["states"][1]["id"] = state_id
        with pytest.raises(ParseError, match="state id .* is not a state index"):
            mdp_mod.from_json_dict(data)

    @pytest.mark.parametrize("name, value, message", [
        ("trans", [[1, "1.0"]], "probability '1.0' is not a number"),
        ("trans", [[1, True]], "probability True is not a number"),
        ("trans", [[0, 0.5], [1, False]], "probability False is not a number"),
        ("cost", "2", "cost '2' is not a number"),
        ("cost", True, "cost True is not a number"),
    ])
    def test_number_not_a_json_number(self, name, value, message):
        """Strings and booleans never load as probabilities or costs."""
        data = toy_b_json()
        data[name]["0,b"] = value
        with pytest.raises(ParseError, match=re.escape(f"{message} (key '0,b')")):
            mdp_mod.from_json_dict(data)

    @pytest.mark.parametrize("name, value, what", [
        ("trans", [[1, 10 ** 400]], "probability"),
        ("cost", 10 ** 400, "cost"),
    ], ids=["probability", "cost"])
    def test_integer_beyond_float_range(self, tmp_path, name, value, what):
        """A JSON integer too large for a float is a parse error, not an
        OverflowError from the conversion."""
        data = toy_b_json()
        data[name]["0,b"] = value
        path = tmp_path / "mdp.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=re.escape(f"{what} beyond the float range (key '0,b')")):
            mdp_mod.load(path)

    def test_integral_floats_accepted(self):
        data = toy_b_json()
        data["states"][1]["id"] = 1.0
        data["trans"]["0,b"] = [[1.0, 1.0]]
        data["init"] = 0.0
        mdp = mdp_mod.from_json_dict(data)
        assert_same_model(mdp, mdp_mod.from_json_dict(toy_b_json()))
        assert type(mdp.init) is int and row_of(mdp, 0, 1)[0] == (1,)

    def test_label_not_a_list(self):
        data = toy_b_json()
        data["states"][0]["label"] = 5
        with pytest.raises(ParseError, match="key 'label'"):
            mdp_mod.from_json_dict(data)

    @pytest.mark.parametrize("name, key, value", [
        ("trans", "0,b", 5),
        ("trans", "0,b", [5]),
        ("trans", "0,b", [[1, 1.0, 0]]),
        ("trans", "0,b", [["one", 1.0]]),
        ("trans", "0,b", [[1, None]]),
        ("available", "1", 5),
        ("cost", "0,b", [1.0]),
        ("cost", "0,b", "cheap"),
        ("trans", "0,b", [[1.7, 1.0]]),
        ("trans", "0,b", [[True, 1.0]]),
        ("trans", "0,b", [["1", 1.0]]),
    ])
    def test_entry_of_wrong_shape(self, name, key, value):
        data = toy_b_json()
        data[name][key] = value
        with pytest.raises(ParseError, match=f"key '{key}'"):
            mdp_mod.from_json_dict(data)


    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["states"][0].update(label=[1]),
         "proposition 1 is not a string (key 'label')"),
        (lambda d: d["states"][1].update(label=[None]),
         "proposition None is not a string (key 'label')"),
        (lambda d: d["states"][0].update(label=["pi", ["pi"]]),
         "proposition ['pi'] is not a string (key 'label')"),
        (lambda d: d.update(actions=["a", ["b"]]),
         "action name ['b'] is not a string (key 'actions')"),
        (lambda d: d["available"].update({"1": [["a"]]}),
         "action ['a'] is not a string (key '1')"),
        (lambda d: d.update(actions=["a", "b", "a"]),
         "repeated action name (key 'actions')"),
    ], ids=["label-number", "label-null", "label-array", "action-name-array",
            "available-array", "repeated-action-name"])
    def test_name_not_a_string(self, edit, message):
        """Names are strings, and an action name is listed once: a label
        [1] loaded and broke sorting the propositions, and an array
        raised a bare TypeError."""
        data = toy_b_json()
        edit(data)
        with pytest.raises(ParseError, match=re.escape(message)):
            mdp_mod.from_json_dict(data)


class TestAliasedKeys:
    """int() reads " 1", "+1" and "0_1" as integers, so two keys of one
    object can name one entry.  The load names both keys instead of
    letting the later one replace the earlier one's entry."""

    @pytest.mark.parametrize("name, first, second", [
        ("trans", "1,a", " 1,a"),
        ("cost", "1,a", "+1,a"),
        ("available", "1", "+1"),
        ("available", "1", "0_1"),
    ])
    def test_aliased_keys_rejected(self, name, first, second):
        data = toy_b_json()
        data[name][second] = data[name][first]
        with pytest.raises(ParseError, match=re.escape(
                f"keys {first!r} and {second!r} name the same entry (key {second!r})")):
            mdp_mod.from_json_dict(data)

    def test_later_row_and_cost_never_replace_earlier(self):
        """The reproduction: state 1's row and cost 7.0 came from the
        second key of each object."""
        data = toy_b_json()
        data["trans"][" 1,a"] = [[1, 1.0]]
        data["cost"]["+1,a"] = 7.0
        with pytest.raises(ParseError, match="name the same entry"):
            mdp_mod.from_json_dict(data)
        del data["trans"][" 1,a"]
        with pytest.raises(ParseError, match=re.escape("keys '1,a' and '+1,a'")):
            mdp_mod.from_json_dict(data)

    def test_repeated_action_rejected_at_load(self):
        data = toy_b_json()
        data["available"]["0"] = ["a", "a", "b"]
        with pytest.raises(ParseError, match=re.escape("repeated action at state 0 (key '0')")):
            mdp_mod.from_json_dict(data)

    def test_validate_reports_repeated_action(self, toy_b):
        bad = dataclasses.replace(toy_b, action=np.array([0, 0, 0]))
        assert bad.available == ((0, 0), (0,))
        assert mdp_mod.validate(bad).violations == ("repeated action at state 0",)
