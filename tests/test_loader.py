"""Differential check of the array-pass JSON loader against the per-entry
loader it replaced: on random documents the two build the same arrays
byte for byte, and on documents with faults they raise the same error
with the same message."""

import copy
import json
import math
import sys
from itertools import accumulate
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclesynth import mdp as mdp_mod
from cyclesynth.errors import InvariantViolation, ParseError
from cyclesynth.mdp import (
    _MDP_KEYS,
    ROW_SUM_TOL,
    _check_unaliased,
    _json_number,
    _names,
    _of_kind,
    _parse_pair_key,
    _parse_state_key,
    from_rows,
    json_index,
)
from cyclesynth.product import build_product
from conftest import pickup_delivery_dra, pickup_delivery_mdp


def oracle_from_json_dict(data: dict):
    """The per-entry loader: each entry through the scalar helpers, the
    rows keyed by (state, action) and placed by from_rows."""
    unknown = set(_of_kind(data, dict, None)) - _MDP_KEYS
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}")
    missing = _MDP_KEYS - set(data)
    if missing:
        raise ParseError(f"missing keys {sorted(missing)}")
    try:
        state_entries = data["states"]
        ids = [json_index(s["id"], "state id") for s in state_entries]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"malformed states entry: {exc}") from exc
    if sorted(ids) != list(range(len(ids))):
        raise ParseError("state ids must be 0..n-1")
    n = len(ids)
    labels = [frozenset()] * n
    for i, s in zip(ids, state_entries):
        extra = set(s) - {"id", "label"}
        if extra:
            raise ParseError(f"unknown keys {sorted(extra)} in state {i}")
        labels[i] = frozenset(_names(s.get("label", []), "proposition", "label"))
    actions = tuple(_names(data["actions"], "action name", "actions"))
    act_idx = {a: k for k, a in enumerate(actions)}
    if len(act_idx) != len(actions):
        raise ParseError("repeated action name", key="actions")
    listed: dict[int, tuple[int, ...]] = {}
    for key, acts in _of_kind(data["available"], dict, "available").items():
        i = _parse_state_key(key, n)
        try:
            listed[i] = tuple(act_idx[a] for a in _names(acts, "action", key))
        except KeyError as exc:
            raise ParseError(f"unknown action {exc} at state {i}", key=key) from exc
        if len(set(listed[i])) != len(listed[i]):
            raise ParseError(f"repeated action at state {i}", key=key)
    _check_unaliased(data["available"], listed, lambda k: _parse_state_key(k, n))
    rows = []
    for key, entries in _of_kind(data["trans"], dict, "trans").items():
        row: dict[int, float] = {}
        for entry in _of_kind(entries, list, key):
            try:
                j, p = entry
            except (TypeError, ValueError):
                raise ParseError("transition entries must be [state, prob] pairs",
                                 key=key) from None
            j = json_index(j, "successor", key=key)
            p = _json_number(p, "probability", key)
            if not 0 <= j < n:
                raise ParseError(f"successor {j} out of range", key=key)
            row[j] = row.get(j, 0.0) + p
        support = sorted(j for j, p in row.items() if p != 0.0)
        s = 0.0
        for j in support:
            s += row[j]
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise ParseError(f"row sum {s:.10g} != 1", key=key)
        scaled = abs(s - 1.0) > len(support) * sys.float_info.epsilon or len(support) == 1
        scale = s if scaled else 1.0
        rows.append((_parse_pair_key(key, n, act_idx), [(j, row[j] / scale) for j in support]))
    _check_unaliased(data["trans"], {pair for pair, _row in rows},
                     lambda k: _parse_pair_key(k, n, act_idx))
    costs = [(_parse_pair_key(key, n, act_idx), _json_number(c, "cost", key))
             for key, c in _of_kind(data["cost"], dict, "cost").items()]
    _check_unaliased(data["cost"], {pair for pair, _c in costs},
                     lambda k: _parse_pair_key(k, n, act_idx))
    init = json_index(data["init"], "init")
    mdp = from_rows(actions, [listed.get(i, ()) for i in range(n)], rows, costs, init, labels)
    if mdp.violations:
        raise InvariantViolation("; ".join(mdp.violations))
    return mdp


ACTIONS = ["a", "b", "c"]


@st.composite
def documents(draw):
    """MDP documents the loader accepts, in every form it reads: states,
    trans keys and cost keys each in a drawn order, labels missing or
    empty, integral floats for ids, successors and init, successors
    listed several times, zero entries, and row sums off 1 within
    ROW_SUM_TOL.  The draws fix the shape; a seeded generator fills in
    the bulk, which keeps the 20-state documents cheap to draw."""
    n = draw(st.integers(1, 6) | st.just(20))  # 20: rows longer than numerics._SHORT
    floats = draw(st.booleans())  # else every index is an int: the bulk path
    repeats = draw(st.sampled_from([1, 4, 40]))  # most entries of one successor in a row
    shuffle = draw(st.integers(0, 2))  # 0 keeps key order, 1 shuffles trans, 2 cost apart
    rng = Random(draw(st.integers(0, 2 ** 32 - 1)))

    def index(i):
        return float(i) if floats and rng.random() < 0.5 else i

    states = []
    for i in range(n):
        states.append({"id": index(i)})
        label = rng.choice([None, [], ["pi"], ["pi", "q"], ["q"]])
        if label is not None:
            states[-1]["label"] = label
    available, trans, cost = {}, {}, {}
    for i in range(n):
        available[str(i)] = rng.sample(ACTIONS, rng.randint(1, 3))
        for a in available[str(i)]:
            support = rng.sample(range(n), rng.randint(1, min(n, 3 if n < 20 else 20)))
            weights = [rng.randint(1, 9) for _ in support]
            off = rng.choice([0.0, 0.0, 1e-12, -3e-10, 8e-10])
            entries = []
            for j, w in zip(support, weights):
                shares = [rng.randint(1, 5) for _ in range(rng.randint(1, repeats))]
                entries += [[index(j), w / sum(weights) * (1.0 + off) * share / sum(shares)]
                            for share in shares]
                if rng.random() < 0.3:
                    entries.append([j, rng.choice([0.0, 0, -0.0])])
            if entries == [[0, 1.0]] and rng.random() < 0.5:
                entries = [[0, 1]]  # an integer probability
            rng.shuffle(entries)
            trans[f"{i},{a}"] = entries
            cost[f"{i},{a}"] = rng.choice([1, 0.5, 2.25, 1e-3, 7.0])
    keys = list(trans)
    if shuffle:
        rng.shuffle(keys)
    cost_keys = rng.sample(keys, len(keys)) if shuffle == 2 else keys
    listed = list(available.items())
    rng.shuffle(listed)
    rng.shuffle(states)
    return {
        "states": states,
        "actions": ACTIONS,
        "available": dict(listed),
        "trans": {key: trans[key] for key in keys},
        "cost": {key: cost[key] for key in cost_keys},
        "init": index(rng.randrange(n)),
    }


def outcome(load, data):
    """The model's arrays, byte for byte, and the rest of its fields, or
    the type and message of the error the load raises."""
    try:
        mdp = load(copy.deepcopy(data))
    except (ParseError, InvariantViolation) as exc:
        return type(exc).__name__, str(exc)
    return ([(name, getattr(mdp, name).dtype.str, getattr(mdp, name).tobytes())
             for name in ("row_ptr", "action", "cost", "entry_ptr", "col", "prob")],
            mdp.n_states, mdp.actions, mdp.label, mdp.props, mdp.init, type(mdp.init))


@settings(max_examples=300, deadline=None)
@given(documents())
def test_same_arrays_as_the_per_entry_loader(data):
    assert outcome(mdp_mod.from_json_dict, data) == outcome(oracle_from_json_dict, data)


def test_one_successor_summing_just_above_one():
    """Eight parts of one successor add up to 1 + 2**-52, well within
    ROW_SUM_TOL: the row is divided by its sum and loads as probability 1."""
    parts = (0.18487394957983194, 0.20168067226890757, 0.10084033613445378,
             0.025210084033613446, 0.12605042016806722, 0.18487394957983194,
             0.14285714285714285, 0.03361344537815126)
    assert [*accumulate(parts)][-1] == 1.0 + 2 ** -52  # added left to right
    data = {"states": [{"id": 0, "label": ["pi"]}], "actions": ["a"],
            "available": {"0": ["a"]}, "trans": {"0,a": [[0, p] for p in parts]},
            "cost": {"0,a": 1.0}, "init": 0}
    assert mdp_mod.from_json_dict(copy.deepcopy(data)).prob.tolist() == [1.0]
    assert outcome(mdp_mod.from_json_dict, data) == outcome(oracle_from_json_dict, data)


def _entry(data, key, value):
    """Append value to trans[key]'s entries."""
    entries = data["trans"][key]
    data["trans"][key] = (entries if isinstance(entries, list) else []) + [value]


def _alias(name, prefix):
    """Add prefix + key to the object, naming key's entry again: the
    state key i in available, the pair key k elsewhere."""
    def edit(d, k, i):
        key = i if name == "available" else k
        if key in d[name]:
            d[name][prefix + key] = d[name][key]
    return edit


def _state(d, last=False):
    """The first (or last) states entry that is an object."""
    return [s for s in d["states"] if isinstance(s, dict)][-1 if last else 0]


def _drop_action(d, k):
    """Take k's action off its state's available actions; an entry that
    is not a list, left by an earlier fault, stays as it is."""
    state, action = k.split(",")[:2]
    listed = d["available"].get(state, [])
    if isinstance(listed, list):
        d["available"][state] = [a for a in listed if a != action]


# one fault each, as tests/test_mdp.py covers them; k is a trans key of
# the document and i a state key
FAULTS = {
    "unknown-top-level-key": lambda d, k, i: d.update(extra=1),
    "missing-key": lambda d, k, i: d.pop("cost"),
    "row-sum": lambda d, k, i: d["trans"].update({k: [[0, 0.9]]}),
    "row-sum-empty": lambda d, k, i: d["trans"].update({k: []}),
    "row-sum-zero-entries": lambda d, k, i: d["trans"].update({k: [[0, 0.0], [0, 0]]}),
    "row-sum-within-tolerance": lambda d, k, i: d["trans"].update({k: [[0, 1.0 + 5e-10]]}),
    "unknown-action-key": lambda d, k, i: d["trans"].update({i + ",z": [[0, 1.0]]}),
    "pair-key-without-comma": lambda d, k, i: d["cost"].update({i: 1.0}),
    "pair-key-two-commas": lambda d, k, i: d["trans"].update({k + ",a": [[0, 1.0]]}),
    "state-key-not-integer": lambda d, k, i: d["cost"].update({"x," + k.split(",")[1]: 1.0}),
    "state-key-superscript": lambda d, k, i: d["trans"].update({"²," + k.split(",")[1]: []}),
    "state-key-out-of-range": lambda d, k, i: d["available"].update({"99": ["a"]}),
    "state-ids-not-dense": lambda d, k, i: _state(d, last=True).update(id=7),
    "state-id-missing": lambda d, k, i: _state(d, last=True).pop("id", None),
    "state-id-not-integral": lambda d, k, i: _state(d).update(id=1.9),
    "state-id-string": lambda d, k, i: _state(d, last=True).update(id="1"),
    "state-id-bool": lambda d, k, i: _state(d).update(id=False),
    "state-not-an-object": lambda d, k, i: d["states"].insert(1, 5),
    "state-unknown-key": lambda d, k, i: _state(d).update(colour="red"),
    "label-not-a-list": lambda d, k, i: _state(d).update(label=5),
    "label-number": lambda d, k, i: _state(d, last=True).update(label=["pi", 1]),
    "label-array": lambda d, k, i: _state(d).update(label=[["pi"]]),
    "nonpositive-cost": lambda d, k, i: d["cost"].update({k: 0.0}),
    "negative-cost": lambda d, k, i: d["cost"].update({k: -1}),
    "non-finite-probability": lambda d, k, i: _entry(d, k, [0, math.nan]),
    "infinite-probability": lambda d, k, i: _entry(d, k, [0, math.inf]),
    "non-finite-cost": lambda d, k, i: d["cost"].update({k: math.inf}),
    "probability-string": lambda d, k, i: _entry(d, k, [0, "1.0"]),
    "probability-bool": lambda d, k, i: _entry(d, k, [0, True]),
    "probability-null": lambda d, k, i: _entry(d, k, [0, None]),
    "probability-beyond-float-range": lambda d, k, i: _entry(d, k, [0, 10 ** 400]),
    "probability-above-one": lambda d, k, i: d["trans"].update({k: [[0, 1.5], [1, -0.5]]}),
    "cost-string": lambda d, k, i: d["cost"].update({k: "2"}),
    "cost-bool": lambda d, k, i: d["cost"].update({k: True}),
    "cost-array": lambda d, k, i: d["cost"].update({k: [1.0]}),
    "cost-beyond-float-range": lambda d, k, i: d["cost"].update({k: 10 ** 400}),
    "successor-out-of-range": lambda d, k, i: _entry(d, k, [99, 0.0]),
    "successor-negative": lambda d, k, i: _entry(d, k, [-1, 0.0]),
    "successor-not-integral": lambda d, k, i: _entry(d, k, [1.7, 0.0]),
    "successor-bool": lambda d, k, i: _entry(d, k, [True, 0.0]),
    "successor-string": lambda d, k, i: _entry(d, k, ["1", 0.0]),
    "entry-not-a-pair": lambda d, k, i: _entry(d, k, [1, 0.0, 0]),
    "entry-not-a-list": lambda d, k, i: _entry(d, k, 5),
    "entries-not-a-list": lambda d, k, i: d["trans"].update({k: 5}),
    "trans-not-an-object": lambda d, k, i: d.update(trans=[]),
    "available-not-an-object": lambda d, k, i: d.update(available=["a"]),
    "available-not-a-list": lambda d, k, i: d["available"].update({i: 5}),
    "available-array": lambda d, k, i: d["available"].update({i: [["a"]]}),
    "available-unknown-action": lambda d, k, i: d["available"].update({i: ["z"]}),
    "repeated-action": lambda d, k, i: d["available"].update({i: ["a", "a", "b"]}),
    "cost-not-an-object": lambda d, k, i: d.update(cost=5),
    "actions-string": lambda d, k, i: d.update(actions="ab"),
    "action-name-array": lambda d, k, i: d.update(actions=["a", ["b"]]),
    "repeated-action-name": lambda d, k, i: d.update(actions=["a", "b", "a"]),
    "init-not-an-index": lambda d, k, i: d.update(init=0.9),
    "init-string": lambda d, k, i: d.update(init="start"),
    "init-out-of-range": lambda d, k, i: d.update(init=99),
    "missing-row": lambda d, k, i: d["trans"].pop(k),
    "missing-cost": lambda d, k, i: d["cost"].pop(k, None),
    "row-for-unavailable-pair": lambda d, k, i: _drop_action(d, k),
    "no-available-action": lambda d, k, i: d["available"].update({i: []}),
    "aliased-trans-key": _alias("trans", " "),
    "aliased-cost-key": _alias("cost", "+"),
    "aliased-available-key": _alias("available", "0"),
    "aliased-available-underscore": _alias("available", "0_"),
}


def _editable(d) -> bool:
    """Every container a fault edits is still there, of its kind."""
    return (all(isinstance(d.get(name), dict) and d[name] for name in ("trans", "available"))
            and isinstance(d.get("cost"), dict))


@settings(max_examples=400, deadline=None)
@given(documents(), st.lists(st.sampled_from(sorted(FAULTS)), min_size=1, max_size=3),
       st.data())
def test_same_error_as_the_per_entry_loader(data, faults, draw):
    """One to three faults at drawn keys: both loaders raise the same
    error for the first in their order of checks, or, where the faults
    cancel out, build the same arrays."""
    for fault in faults:
        if _editable(data):
            key = draw.draw(st.sampled_from(sorted(data["trans"])))
            state = draw.draw(st.sampled_from(sorted(data["available"])))
            FAULTS[fault](data, key, state)
    assert outcome(mdp_mod.from_json_dict, data) == outcome(oracle_from_json_dict, data)


def test_unavailable_pair_after_available_not_a_list():
    """Two faults at one state: its available entry is no list, then its
    row's action is dropped; the first fault is what both loaders raise."""
    data = {"states": [{"id": 0, "label": ["pi"]}, {"id": 1}], "actions": ["a", "b"],
            "available": {"0": ["a", "b"], "1": ["a"]},
            "trans": {"0,a": [[0, 1.0]], "0,b": [[1, 1.0]], "1,a": [[0, 1.0]]},
            "cost": {"0,a": 5.0, "0,b": 1.0, "1,a": 1.0}, "init": 0}
    for fault in ("available-not-a-list", "row-for-unavailable-pair"):
        FAULTS[fault](data, "0,b", "0")
    assert data["available"]["0"] == 5
    expected = outcome(oracle_from_json_dict, data)
    assert expected[0] == "ParseError"
    assert outcome(mdp_mod.from_json_dict, data) == expected


def test_every_fault_is_raised_alone():
    """Each fault on its own makes the per-entry loader raise, so the
    property above compares errors, not only arrays."""
    base = {"states": [{"id": 0, "label": ["pi"]}, {"id": 1}], "actions": ["a", "b"],
            "available": {"0": ["a", "b"], "1": ["a"]},
            "trans": {"0,a": [[0, 1.0]], "0,b": [[1, 1.0]], "1,a": [[0, 1.0]]},
            "cost": {"0,a": 5.0, "0,b": 1.0, "1,a": 1.0}, "init": 0}
    accepted = []
    for name, fault in FAULTS.items():
        data = copy.deepcopy(base)
        fault(data, "0,b", "1")
        expected = outcome(oracle_from_json_dict, data)
        if not isinstance(expected[0], str):
            accepted.append(name)
        assert outcome(mdp_mod.from_json_dict, data) == expected, name
    assert accepted == ["row-sum-within-tolerance"]


@pytest.mark.parametrize("data", [5, None, [], "states"])
def test_document_not_an_object(data):
    assert outcome(mdp_mod.from_json_dict, data) == outcome(oracle_from_json_dict, data)


def test_saved_models_load_back_alike():
    """The bench-shaped fixture, saved and loaded by both loaders."""
    data = json.loads(json.dumps(mdp_mod.to_json_dict(pickup_delivery_mdp())))
    assert outcome(mdp_mod.from_json_dict, data) == outcome(oracle_from_json_dict, data)


def test_unlabeled_states_share_one_empty_label():
    """The loader and the product give every unlabeled state the same
    empty frozenset, not a new one each."""
    mdp = pickup_delivery_mdp()
    data = mdp_mod.to_json_dict(mdp)
    loaded = mdp_mod.from_json_dict(data)
    product = build_product(loaded, pickup_delivery_dra(), "pickup")
    for model in (loaded, product.model):
        empty = [label for label in model.label if not label]
        assert empty and all(label is mdp_mod.EMPTY_LABEL for label in empty)
