"""Labeled MDP data model, JSON loading, validation, graph checks of
induced chains, the backward search over the rows and the choice matrix
that flattens them.

States are indexed 0..n-1 and actions are indexed into a global action
alphabet; action names are only used at the I/O boundary.  All types are
immutable after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numerics
from .errors import EmptyTarget, InvariantViolation, ParseError, PolicyIncomplete

ROW_SUM_TOL = 1e-9

_MDP_KEYS = {"states", "actions", "available", "trans", "cost", "init"}


@dataclass(frozen=True)
class StationaryPolicy:
    """Maps each state to an action index; may be partial (e.g. a reach
    policy defined only outside an end component)."""

    choice: dict[int, int]

    def action(self, state: int) -> int:
        try:
            return self.choice[state]
        except KeyError:
            raise PolicyIncomplete(f"policy undefined at state {state}") from None

    def defined_on(self, states) -> bool:
        return all(s in self.choice for s in states)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class LabeledMdp:
    """Finite labeled MDP with strictly positive action costs.

    Transitions are sparse rows keyed by (state, action index), stored
    only for available actions: succ holds the distinct successors and
    prob their positive probabilities in the same order.  The product
    and its component sub-problems are LabeledMdps too, sharing the prob
    tuples of the MDP they come from.  `pred` inverts succ for the
    backward search that almost-sure reachability, the reach policy and
    the initial policy of policy iteration share, and for the pruning of
    the maximal end component decomposition.  `choices` flattens the
    rows into the arrays that policy iteration computes with.
    """

    n_states: int
    actions: tuple[str, ...]
    available: tuple[tuple[int, ...], ...]
    succ: dict[tuple[int, int], tuple[int, ...]]
    prob: dict[tuple[int, int], tuple[float, ...]]
    cost: dict[tuple[int, int], float]
    init: int
    props: frozenset[str]
    label: tuple[frozenset[str], ...]

    @property
    def states(self) -> range:
        return range(self.n_states)

    @cached_property
    def pred(self) -> tuple[list[tuple[int, int]], ...]:
        """pred[j] lists, once each, the rows (i, a) whose successors
        include j.  Built whole on first use and only read afterwards
        (threads racing on the first use each build a complete copy)."""
        pred: list[list[tuple[int, int]]] = [[] for _ in self.states]
        for key, row in self.succ.items():
            for j in row:
                pred[j].append(key)
        return tuple(pred)

    def backward_layers(self, target, within) -> list[list[int]]:
        """Breadth-first layers of the attractor of target inside within
        (Baier & Katoen, Principles of Model Checking, 10.6.1): layers[0]
        is target & within, and layers[d] holds the states not in an
        earlier layer with a row into layers[d-1] whose state and
        successors all lie in within.  A row is read at most once per
        successor."""
        succ, pred = self.succ, self.pred
        layer = [j for j in target if j in within]
        seen = set(layer)
        layers = []
        while layer:
            layers.append(layer)
            nxt = []
            for j in layer:
                for key in pred[j]:
                    i = key[0]
                    if i not in seen and i in within and within.issuperset(succ[key]):
                        seen.add(i)
                        nxt.append(i)
            layer = nxt
        return layers

    def layer_choice(self, layers, within) -> dict[int, int]:
        """Each state of layers[d], d >= 1, takes its first available
        action whose successors stay in within and meet layers[d-1]."""
        succ, choice = self.succ, {}
        for closer, layer in zip(layers, layers[1:]):
            closer = set(closer)
            for i in layer:
                for a in self.available[i]:
                    row = succ[(i, a)]
                    if within.issuperset(row) and not closer.isdisjoint(row):
                        choice[i] = a
                        break
        return choice

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """validate(self).violations, computed on first use and only read
        afterwards: the JSON loader and synthesize both require none."""
        return validate(self).violations

    def pi_states(self, pi: str) -> frozenset[int]:
        return frozenset(i for i in self.states if pi in self.label[i])

    @cached_property
    def choices(self) -> ChoiceMatrix:
        """The rows as one ChoiceMatrix, built on first use and only read
        afterwards."""
        row_ptr, action, cost, entry_ptr, col, prob = [0], [], [], [0], [], []
        for i in self.states:
            if not self.available[i]:
                raise InvariantViolation(f"no available action at state {i}")
            for a in self.available[i]:
                key = (i, a)
                action.append(a)
                cost.append(self.cost[key])
                col.extend(self.succ[key])
                prob.extend(self.prob[key])
                entry_ptr.append(len(col))
            row_ptr.append(len(action))
        return ChoiceMatrix(row_ptr=np.array(row_ptr), action=np.array(action, dtype=np.int64),
                            cost=np.array(cost, dtype=float), entry_ptr=np.array(entry_ptr),
                            col=np.array(col, dtype=np.int64), prob=np.array(prob, dtype=float))

    def policy_matrices(self, mu: StationaryPolicy) -> tuple[np.ndarray, np.ndarray]:
        """Dense transition matrix and cost vector of the chain induced by
        mu, scattered from the choice matrix."""
        cm = self.choices
        rows = cm.rows_of([mu.action(i) for i in self.states])
        indptr, col, prob = cm.chain(rows)
        P = np.zeros((self.n_states, self.n_states))
        P[np.repeat(np.arange(self.n_states), np.diff(indptr)), col] = prob
        return P, cm.cost[rows]


@dataclass(frozen=True, eq=False)
class ChoiceMatrix:
    """The rows of a LabeledMdp in compressed form, as in the sparse
    engines of PRISM and Storm: one row per (state, action) pair, in
    `available` order.  State i owns rows row_ptr[i]:row_ptr[i+1]; row r
    takes action[r] at cost[r] and moves to col[e] with probability
    prob[e] for e in entry_ptr[r]:entry_ptr[r+1].  Every state has a row
    and every row an entry."""

    row_ptr: np.ndarray
    action: np.ndarray
    cost: np.ndarray
    entry_ptr: np.ndarray
    col: np.ndarray
    prob: np.ndarray

    @cached_property
    def row_state(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.row_ptr) - 1), np.diff(self.row_ptr))

    @cached_property
    def entry_row(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.action)), np.diff(self.entry_ptr))

    def expect(self, x) -> np.ndarray:
        """sum_j P(r, j) x[j] for every row r, added up in entry order."""
        return np.bincount(self.entry_row, weights=self.prob * x[self.col],
                           minlength=len(self.action))

    def segment_min(self, values) -> np.ndarray:
        """Per-state minimum of a per-row array."""
        return np.minimum.reduceat(values, self.row_ptr[:-1])

    def rows_of(self, choice) -> np.ndarray:
        """The row of each state's action in choice (one action per
        state); PolicyIncomplete when a state lacks that action."""
        n_rows = len(self.action)
        if len(choice) != len(self.row_ptr) - 1:
            raise PolicyIncomplete("a policy needs one action per state")
        hit = self.action == np.asarray(choice)[self.row_state]
        rows = self.segment_min(np.where(hit, np.arange(n_rows), n_rows))
        if np.any(rows == n_rows):
            i = int(np.argmax(rows == n_rows))
            raise PolicyIncomplete(f"action {choice[i]} is not available at state {i}")
        return rows

    def chain(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compressed rows (indptr, col, prob) of the chain that takes
        row rows[i] at each state i."""
        start = self.entry_ptr[rows]
        counts = self.entry_ptr[rows + 1] - start
        indptr = np.concatenate(([0], np.cumsum(counts)))
        take = np.arange(indptr[-1]) + np.repeat(start - indptr[:-1], counts)
        return indptr, self.col[take], self.prob[take]


def validate(mdp: LabeledMdp) -> ValidationReport:
    """Collect every violated structural invariant (report-style)."""
    bad: list[str] = []
    if not (0 <= mdp.init < mdp.n_states):
        bad.append(f"init {mdp.init} is not a valid state index")
    if len(mdp.available) != mdp.n_states:
        bad.append("available must list an action set per state")
    for i in mdp.states:
        if i < len(mdp.available) and not mdp.available[i]:
            bad.append(f"no available action at state {i}")
        elif i < len(mdp.available) and len(set(mdp.available[i])) != len(mdp.available[i]):
            bad.append(f"repeated action at state {i}")
    for i in mdp.states:
        for a in mdp.available[i] if i < len(mdp.available) else ():
            key = (i, a)
            at = f"at ({i},{mdp.actions[a]})"
            if key not in mdp.succ or key not in mdp.prob:
                bad.append(f"missing transition row {at}")
                continue
            succ, prob = mdp.succ[key], mdp.prob[key]
            if len(succ) != len(prob):
                bad.append(f"{len(succ)} successors but {len(prob)} probabilities {at}")
            if len(set(succ)) != len(succ):
                bad.append(f"repeated successor {at}")
            if not all(0 <= j < mdp.n_states for j in succ):
                bad.append(f"successor out of range {at}")
            if not all(math.isfinite(p) for p in prob):
                bad.append(f"non-finite probability {at}")
            elif not all(0.0 < p <= 1.0 for p in prob):
                bad.append(f"probability outside (0,1] {at}")
            elif abs(math.fsum(prob) - 1.0) > ROW_SUM_TOL:
                bad.append(f"row sum {math.fsum(prob):.10g} != 1 {at}")
            if key not in mdp.cost:
                bad.append(f"missing cost {at}")
            elif not math.isfinite(mdp.cost[key]):
                bad.append(f"non-finite cost {at}")
            elif not mdp.cost[key] > 0.0:
                bad.append(f"non-positive cost {at}")
    for (i, a) in mdp.succ.keys() | mdp.prob.keys():
        if i >= mdp.n_states or a not in mdp.available[i]:
            bad.append(f"transition row stored for unavailable pair ({i},{a})")
    return ValidationReport(tuple(bad))


def is_proper(mdp: LabeledMdp, mu: StationaryPolicy, target) -> bool:
    """True iff every state reaches the target set with positive
    probability under mu, that is, iff every recurrent class of mu's
    chain meets the target: a closed class never leaves itself, and every
    other state reaches some closed class."""
    target = frozenset(target)
    if not target:
        raise EmptyTarget("target set is empty")
    classes, _ = numerics._bottom_classes([mdp.succ[(i, mu.action(i))] for i in mdp.states])
    return all(not target.isdisjoint(c) for c in classes)


def is_communicating(mdp: LabeledMdp) -> bool:
    """True iff the union digraph over all available actions is strongly
    connected (every pair connected under some policy)."""
    succ = [sorted({j for a in mdp.available[i] for j in mdp.succ[(i, a)]})
            for i in mdp.states]
    return len(numerics._tarjan_scc(mdp.n_states, succ)) <= 1


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def from_json_dict(data: dict) -> LabeledMdp:
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
        labels[i] = frozenset(_of_kind(s.get("label", []), list, "label"))
    actions = tuple(_of_kind(data["actions"], list, "actions"))
    act_idx = {a: k for k, a in enumerate(actions)}
    listed: dict[int, tuple[int, ...]] = {}
    for key, acts in _of_kind(data["available"], dict, "available").items():
        i = _parse_state_key(key, n)
        try:
            listed[i] = tuple(act_idx[a] for a in _of_kind(acts, list, key))
        except KeyError as exc:
            raise ParseError(f"unknown action {exc} at state {i}", key=key) from exc
        if len(set(listed[i])) != len(listed[i]):
            raise ParseError(f"repeated action at state {i}", key=key)
    _check_unaliased(data["available"], listed, lambda k: _parse_state_key(k, n))
    available = [listed.get(i, ()) for i in range(n)]
    succ, prob = {}, {}
    for key, entries in _of_kind(data["trans"], dict, "trans").items():
        i, a = _parse_pair_key(key, n, act_idx)
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
        for j in support:  # left to right: builtin sum() rounds differently from 3.12 on
            s += row[j]
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise ParseError(f"row sum {s:.10g} != 1", key=key)
        succ[(i, a)] = tuple(support)
        prob[(i, a)] = tuple(row[j] / s for j in support)  # renormalized once at load
    _check_unaliased(data["trans"], succ, lambda k: _parse_pair_key(k, n, act_idx))
    cost = {}
    for key, c in _of_kind(data["cost"], dict, "cost").items():
        i, a = _parse_pair_key(key, n, act_idx)
        cost[(i, a)] = _json_number(c, "cost", key)
    _check_unaliased(data["cost"], cost, lambda k: _parse_pair_key(k, n, act_idx))
    init = json_index(data["init"], "init")
    props = frozenset().union(*labels) if labels else frozenset()
    mdp = LabeledMdp(
        n_states=n,
        actions=actions,
        available=tuple(available),
        succ=succ,
        prob=prob,
        cost=cost,
        init=init,
        props=props,
        label=tuple(labels),
    )
    if mdp.violations:
        raise InvariantViolation("; ".join(mdp.violations))
    return mdp


def load(path) -> LabeledMdp:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    return from_json_dict(data)


def to_json_dict(mdp: LabeledMdp) -> dict:
    return {
        "states": [{"id": i, "label": sorted(mdp.label[i])} for i in mdp.states],
        "actions": list(mdp.actions),
        "available": {str(i): [mdp.actions[a] for a in mdp.available[i]] for i in mdp.states},
        "trans": {
            f"{i},{mdp.actions[a]}": [[j, p] for j, p in zip(succ, mdp.prob[(i, a)])]
            for (i, a), succ in sorted(mdp.succ.items())
        },
        "cost": {f"{i},{mdp.actions[a]}": float(c) for (i, a), c in sorted(mdp.cost.items())},
        "init": mdp.init,
    }


def json_index(value, what: str, key=None, expected: str = "a state index") -> int:
    """value as an int, if it is a JSON integer or a float with an
    integral value; ParseError otherwise (booleans, strings, 1.7)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ParseError(f"{what} {value!r} is not {expected}", key=key)


def _json_number(value, what: str, key: str) -> float:
    """value as a float, if it is a finite JSON number; ParseError
    otherwise (booleans, strings, NaN, infinities, integers beyond the
    float range)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ParseError(f"{what} {value!r} is not a number", key=key)
    try:
        number = float(value)
    except OverflowError:
        raise ParseError(f"{what} beyond the float range", key=key) from None
    if not math.isfinite(number):
        raise ParseError(f"non-finite {what} {value}", key=key)
    return number


def _of_kind(value, kind: type, key: str | None):
    """value itself, or ParseError if it is not a JSON object (dict) or
    array (list) as kind asks."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "an array"
        raise ParseError(f"expected {expected}, got {type(value).__name__}", key=key)
    return value


def _check_unaliased(keys, parsed, parse):
    """ParseError when two of keys name one entry, that is when parsed,
    which holds one item per parsed key, is the shorter; the error names
    the first such pair.  int() reads " 1", "+1" and "1_0" as numbers
    too, so distinct keys of one JSON object can name one entry, and the
    later would silently replace the earlier."""
    if len(parsed) == len(keys):
        return
    first = {}
    for key in keys:
        entry = parse(key)
        if entry in first:
            raise ParseError(f"keys {first[entry]!r} and {key!r} name the same entry", key=key)
        first[entry] = key


def _parse_state_key(key: str, n: int) -> int:
    try:
        i = int(key)
    except ValueError:
        raise ParseError(f"state key {key!r} is not an integer", key=key) from None
    if not 0 <= i < n:
        raise ParseError(f"state key {i} out of range", key=key)
    return i


def _parse_pair_key(key: str, n: int, act_idx: dict) -> tuple[int, int]:
    parts = key.split(",")
    if len(parts) != 2:
        raise ParseError("expected 'state,action' key", key=key)
    i = _parse_state_key(parts[0], n)
    if parts[1] not in act_idx:
        raise ParseError(f"unknown action {parts[1]!r}", key=key)
    return i, act_idx[parts[1]]
