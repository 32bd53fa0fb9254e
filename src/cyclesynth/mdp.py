"""Labeled MDP data model in compressed rows, the one constructor from
keyed rows, JSON loading, validation, graph checks of induced chains and
the backward search over the rows.

States are indexed 0..n-1 and actions are indexed into a global action
alphabet; action names are only used at the I/O boundary.  All types are
immutable after construction.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain

import numpy as np

from . import numerics
from .errors import EmptyTarget, InvariantViolation, ParseError, PolicyIncomplete

ROW_SUM_TOL = 1e-9

_MDP_KEYS = {"states", "actions", "available", "trans", "cost", "init"}
# the label of every unlabeled state: CPython 3.11 makes a new object at
# each frozenset() call
EMPTY_LABEL: frozenset[str] = frozenset()


@dataclass(frozen=True)
class StationaryPolicy:
    """One action index per state, -1 where undefined (a reach policy
    inside its end component); built from it or from a {state: action} dict."""

    choice: tuple[int, ...]

    def __init__(self, choice):
        if isinstance(choice, dict):
            choice = [choice.get(i, -1) for i in range(max(choice, default=-1) + 1)]
        object.__setattr__(self, "choice", tuple(choice))

    def action(self, state: int) -> int:
        if not 0 <= state < len(self.choice) or self.choice[state] < 0:
            raise PolicyIncomplete(f"policy undefined at state {state}")
        return self.choice[state]


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True, eq=False)
class LabeledMdp:
    """Finite labeled MDP with strictly positive action costs, in
    compressed rows as in the sparse engines of PRISM and Storm: state i
    owns rows row_ptr[i]:row_ptr[i+1], one per available action in order;
    row r takes action[r] at cost[r] and moves to col[e] with probability
    prob[e] for e in entry_ptr[r]:entry_ptr[r+1].  The product and its
    component sub-problems are LabeledMdps too.  The Python loops read
    row indices over list views taken once per call; `pred` inverts the
    rows for the backward search and the end component pruning."""

    n_states: int
    actions: tuple[str, ...]
    row_ptr: np.ndarray
    action: np.ndarray
    cost: np.ndarray
    entry_ptr: np.ndarray
    col: np.ndarray
    prob: np.ndarray
    init: int
    props: frozenset[str]
    label: tuple[frozenset[str], ...]

    def __post_init__(self):
        """InvariantViolation unless the arrays fit together: each has its
        length, and each pointer array runs from 0, never decreasing, to
        the length of the arrays it points into."""
        n_rows, n_entries = len(self.action), len(self.col)
        bad = [f"{name} has {len(values)} entries, expected {size}" for name, values, size in (
            ("row_ptr", self.row_ptr, self.n_states + 1), ("cost", self.cost, n_rows),
            ("entry_ptr", self.entry_ptr, n_rows + 1), ("prob", self.prob, n_entries),
            ("label", self.label, self.n_states)) if len(values) != size]
        bad += [f"{name} does not run from 0 up to {end}" for name, ptr, end in (
            ("row_ptr", self.row_ptr, n_rows), ("entry_ptr", self.entry_ptr, n_entries))
            if len(ptr) == 0 or ptr[0] != 0 or ptr[-1] != end or np.any(np.diff(ptr) < 0)]
        if np.any((self.action < 0) | (self.action >= len(self.actions))):
            bad.append("action index out of range")
        if bad:
            raise InvariantViolation("; ".join(bad))

    @property
    def states(self) -> range:
        return range(self.n_states)

    @cached_property
    def available(self) -> tuple[tuple[int, ...], ...]:
        """Each state's actions, in row order."""
        action, ptr = self.action.tolist(), self.row_ptr.tolist()
        return tuple(tuple(action[lo:hi]) for lo, hi in zip(ptr, ptr[1:]))

    @cached_property
    def row_state(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_states), np.diff(self.row_ptr))

    @cached_property
    def entry_row(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.action)), np.diff(self.entry_ptr))

    def successor_lists(self) -> tuple[list[int], list[int]]:
        """List views (col, entry_ptr): row r's successors are col[ptr[r]:ptr[r+1]]."""
        return self.col.tolist(), self.entry_ptr.tolist()

    @cached_property
    def pred(self) -> tuple[list[int], ...]:
        """pred[j] lists, in row order, the rows whose successors include
        j (a stable sort of the entries by successor), built whole on first
        use: threads racing on the first use each build a complete copy."""
        rows = self.entry_row[np.argsort(self.col, kind="stable")].tolist()
        ptr = np.cumsum(np.bincount(self.col, minlength=self.n_states)).tolist()
        return tuple(rows[lo:hi] for lo, hi in zip([0, *ptr], ptr))

    def backward_layers(self, target, within) -> tuple[list[list[int]], np.ndarray]:
        """Breadth-first layers of the attractor of target inside within
        (Baier & Katoen, Principles of Model Checking, 10.6.1), and a
        choice: layers[0] is target & within, and layers[d] holds the states
        not in an earlier layer with a row into layers[d-1] whose state and
        successors all lie in within; each such state chooses its least
        such row, every other state -1.  A row is read at most once per successor."""
        (col, ptr), state, pred = self.successor_lists(), self.row_state.tolist(), self.pred
        layer = [j for j in target if j in within]
        seen, layers = dict.fromkeys(layer, -1), []  # state -> its least row, -1 in layers[0]
        while layer:
            layers.append(layer)
            nxt: dict[int, int] = {}  # state -> its least row into layer
            for j in layer:
                for r in pred[j]:
                    i = state[r]
                    if i not in seen and r < nxt.get(i, r + 1) and i in within \
                            and within.issuperset(col[ptr[r]:ptr[r + 1]]):
                        nxt[i] = r
            seen.update(nxt)
            layer = list(nxt)
        least = np.full(self.n_states, -1, dtype=np.int64)
        least[list(seen)] = list(seen.values())
        return layers, least

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """validate(self).violations, computed on first use and only read
        afterwards: the JSON loader and synthesize both require none."""
        return validate(self).violations

    def pi_states(self, pi: str) -> frozenset[int]:
        return frozenset(i for i in self.states if pi in self.label[i])

    def expect(self, x) -> np.ndarray:
        """sum_j P(r, j) x[j] for every row r, added up in entry order."""
        return np.bincount(self.entry_row, weights=self.prob * x[self.col],
                           minlength=len(self.action))

    def segment_min(self, values) -> np.ndarray:
        """Per-state minimum of a per-row array."""
        return np.minimum.reduceat(values, self.row_ptr[:-1])

    def rows_of(self, choice) -> np.ndarray:
        """The row of each state's action in choice (-1 where undefined);
        PolicyIncomplete names the first state lacking its action."""
        n_rows = len(self.action)
        if len(choice) != self.n_states:
            raise PolicyIncomplete("a policy needs one action per state")
        hit = self.action == np.asarray(choice)[self.row_state]
        rows = self.segment_min(np.where(hit, np.arange(n_rows), n_rows))
        if np.any(rows == n_rows):
            i = int(np.argmax(rows == n_rows))
            raise PolicyIncomplete(f"policy undefined at state {i}" if choice[i] < 0
                                   else f"action {choice[i]} is not available at state {i}")
        return rows

    def take(self, row_ptr, rows, successors, label, props) -> LabeledMdp:
        """The model, initial state 0, whose state k owns this one's rows
        rows[row_ptr[k]:row_ptr[k+1]], but with successors(col) in place
        of the successor columns col of those rows' entries (one gather)."""
        entry_ptr, col, prob = self.chain(rows)
        return LabeledMdp(n_states=len(row_ptr) - 1, actions=self.actions, row_ptr=row_ptr,
                          action=self.action[rows], cost=self.cost[rows], entry_ptr=entry_ptr,
                          col=np.asarray(successors(col), dtype=np.int64), prob=prob, init=0,
                          props=props, label=tuple(label))

    def rows_at(self, states) -> tuple[np.ndarray, np.ndarray]:
        """(ptr, rows): rows[ptr[k]:ptr[k+1]] are the rows of states[k]."""
        states = np.asarray(states)
        counts = self.row_ptr[states + 1] - self.row_ptr[states]
        ptr = np.concatenate(([0], np.cumsum(counts)))
        return ptr, np.arange(ptr[-1]) + np.repeat(self.row_ptr[states] - ptr[:-1], counts)

    def chain(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Compressed rows (indptr, col, prob) that take the entries of
        rows[k] as row k."""
        start = self.entry_ptr[rows]
        counts = self.entry_ptr[rows + 1] - start
        indptr = np.concatenate(([0], np.cumsum(counts)))
        take = np.arange(indptr[-1]) + np.repeat(start - indptr[:-1], counts)
        return indptr, self.col[take], self.prob[take]

    def policy_matrices(self, mu: StationaryPolicy) -> tuple[np.ndarray, np.ndarray]:
        """Dense transition matrix and cost vector of the chain induced by
        mu, scattered from the rows."""
        rows = self.rows_of(mu.choice)
        indptr, col, prob = self.chain(rows)
        P = np.zeros((self.n_states, self.n_states))
        P[np.repeat(np.arange(self.n_states), np.diff(indptr)), col] = prob
        return P, self.cost[rows]


def from_rows(actions, available, rows, costs, init: int, label) -> LabeledMdp:
    """The model whose state i takes the actions available[i], in that
    order, from rows ((i, a), [(successor, probability), ...]) and costs
    ((i, a), cost), one of each per available pair.  InvariantViolation
    names every pair without a row or a cost and every row or cost given
    for a pair not available: the arrays cannot hold them."""
    row_ptr = list(accumulate(map(len, available), initial=0))
    action = [a for acts in available for a in acts]
    state = np.repeat(np.arange(len(available)), np.diff(row_ptr)).tolist()
    entries, cost, bad = [None] * len(action), [None] * len(action), []
    for table, what, items in ((entries, "transition row", rows), (cost, "cost", costs)):
        for (i, a), value in items:
            if 0 <= i < len(available) and a in available[i]:
                table[row_ptr[i] + available[i].index(a)] = value
            else:
                bad.append(f"{what} stored for unavailable pair ({i},{a})")
        bad.extend(f"missing {what} at ({state[r]},{actions[action[r]]})"
                   for r, value in enumerate(table) if value is None)
    if bad:
        raise InvariantViolation("; ".join(bad))
    return LabeledMdp(
        n_states=len(available),
        actions=tuple(actions),
        row_ptr=np.array(row_ptr, dtype=np.int64),
        action=np.array(action, dtype=np.int64),
        cost=np.array(cost, dtype=float),
        entry_ptr=np.cumsum([0, *map(len, entries)]),
        col=np.array([j for row in entries for j, _p in row], dtype=np.int64),
        prob=np.array([p for row in entries for _j, p in row], dtype=float),
        init=init,
        props=frozenset().union(*label),
        label=tuple(label),
    )


def validate(mdp: LabeledMdp) -> ValidationReport:
    """Collect every violated structural invariant (report-style): the
    state checks first, then each row's, in row order."""
    n, n_rows = mdp.n_states, len(mdp.action)
    bad = [] if 0 <= mdp.init < n else [f"init {mdp.init} is not a valid state index"]
    state, er, col, prob, cost = mdp.row_state, mdp.entry_row, mdp.col, mdp.prob, mdp.cost
    empty = np.diff(mdp.row_ptr) == 0
    for i in np.flatnonzero(empty | _repeats(state, mdp.action, n)).tolist():
        bad.append(f"no available action at state {i}" if empty[i]
                   else f"repeated action at state {i}")
    non_finite = np.bincount(er[~np.isfinite(prob)], minlength=n_rows) > 0
    outside = np.bincount(er[~((prob > 0.0) & (prob <= 1.0))], minlength=n_rows) > 0  # or NaN
    sums = np.bincount(er, weights=prob, minlength=n_rows)  # added up in entry order
    checks = {
        "repeated successor": _repeats(er, col, n_rows),
        "successor out of range": np.bincount(er[(col < 0) | (col >= n)], minlength=n_rows) > 0,
        "non-finite probability": non_finite,
        "probability outside (0,1]": outside & ~non_finite,
        "row sum": (np.abs(sums - 1.0) > ROW_SUM_TOL) & ~outside,
        "non-finite cost": ~np.isfinite(cost),
        "non-positive cost": np.isfinite(cost) & ~(cost > 0.0),
    }
    for r in np.flatnonzero(np.logical_or.reduce(list(checks.values()))).tolist():
        at = f"at ({state[r]},{mdp.actions[mdp.action[r]]})"
        bad.extend(f"row sum {sums[r]:.10g} != 1 {at}" if what == "row sum" else f"{what} {at}"
                   for what, mask in checks.items() if mask[r])
    return ValidationReport(tuple(bad))


def _repeats(group, key, size: int) -> np.ndarray:
    """Mask over 0..size-1 of the groups in which some key occurs twice."""
    order = np.lexsort((key, group))
    group, key = group[order], key[order]
    return np.bincount(group[1:][(group[1:] == group[:-1]) & (key[1:] == key[:-1])],
                       minlength=size) > 0


def is_proper(mdp: LabeledMdp, mu: StationaryPolicy, target) -> bool:
    """True iff every state reaches the target set with positive
    probability under mu, that is, iff every recurrent class of mu's
    chain meets the target: a closed class never leaves itself, and every
    other state reaches some closed class."""
    target = frozenset(target)
    if not target:
        raise EmptyTarget("target set is empty")
    classes = _chain_classes(mdp, mu.choice)
    return all(not target.isdisjoint(c) for c in classes)


def _chain_classes(mdp: LabeledMdp, choice) -> list[list[int]]:
    """Recurrent classes of the chain taking action choice[i] at state i."""
    col, at = mdp.successor_lists()
    classes, _ = numerics._bottom_classes([col[at[r]:at[r + 1]]
                                           for r in mdp.rows_of(choice).tolist()])
    return classes


def is_communicating(mdp: LabeledMdp) -> bool:
    """True iff the union digraph over all available actions is strongly
    connected (every pair connected under some policy)."""
    return len(_strong_components(mdp)) <= 1


def _strong_components(mdp: LabeledMdp) -> list[list[int]]:
    """Strongly connected components of the union digraph over all
    available actions.  A state's entries are contiguous; a successor
    two of its rows share is read twice, which Tarjan's search allows."""
    col, ptr = mdp.col.tolist(), mdp.entry_ptr[mdp.row_ptr].tolist()
    return numerics._tarjan_scc(mdp.n_states, [col[lo:hi] for lo, hi in zip(ptr, ptr[1:])])


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def from_json_dict(data: dict) -> LabeledMdp:
    """The model of an MDP JSON document.  Each container is read in one
    pass into flat lists and checked as whole lists; numpy sums the rows
    and places them in row order.  Where a bulk check fails, the
    container is read again item by item with the scalar checks, so the
    error raised, and the key it names, are those of the first fault in
    the order states, actions, available, trans, cost, init, and within
    a container in document order."""
    unknown = set(_of_kind(data, dict, None)) - _MDP_KEYS
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}")
    missing = _MDP_KEYS - set(data)
    if missing:
        raise ParseError(f"missing keys {sorted(missing)}")
    labels = _labels(data["states"])
    n = len(labels)
    actions = tuple(_names(data["actions"], "action name", "actions"))
    act_idx = {a: k for k, a in enumerate(actions)}
    if len(act_idx) != len(actions):
        raise ParseError("repeated action name", key="actions")
    listed = _of_kind(data["available"], dict, "available")
    states, counts, acts = (_available(listed, n, act_idx)
                            or _scan_available(listed, n, act_idx))
    _check_unaliased(listed, set(states), lambda k: _parse_state_key(k, n))
    per_state = np.zeros(n, dtype=np.int64)
    per_state[states] = counts
    action = np.array(acts, dtype=np.int64)[np.argsort(np.repeat(states, counts), kind="stable")]
    table = np.repeat(np.arange(n), per_state) * len(actions) + action  # each row's pair code

    trans = _of_kind(data["trans"], dict, "trans")
    keys = list(trans)
    codes, *entries = _trans(trans, keys, n, act_idx) or _scan_trans(trans, n, act_idx)
    row, col, prob = _summed(keys, *entries, n)
    _check_unaliased(trans, set(codes.tolist()), lambda k: _parse_pair_key(k, n, act_idx))
    cost = _of_kind(data["cost"], dict, "cost")
    cost_codes = codes if list(cost) == keys else _pair_codes(list(cost), n, act_idx)
    value = _numbers(list(cost.values()))
    if cost_codes is None or value is None:
        cost_codes, value = _scan_cost(cost, n, act_idx)
    _check_unaliased(cost, set(cost_codes.tolist()), lambda k: _parse_pair_key(k, n, act_idx))
    init = json_index(data["init"], "init")

    rows, bad = _place(codes, table, "transition row", actions)
    cost_rows, also = _place(cost_codes, table, "cost", actions)
    if bad or also:
        raise InvariantViolation("; ".join(bad + also))
    row = rows[row]  # from key order to row order
    order = np.argsort(row, kind="stable")
    row_cost = np.empty(len(table))
    row_cost[cost_rows] = value
    mdp = LabeledMdp(
        n_states=n, actions=actions,
        row_ptr=np.concatenate(([0], np.cumsum(per_state))), action=action, cost=row_cost,
        entry_ptr=np.concatenate(([0], np.cumsum(np.bincount(row, minlength=len(table))))),
        col=col[order], prob=prob[order], init=init,
        props=frozenset().union(*labels), label=labels)
    if mdp.violations:
        raise InvariantViolation("; ".join(mdp.violations))
    return mdp


def _labels(entries) -> tuple[frozenset[str], ...]:
    """Each state's label, by state id: ParseError unless every states
    entry is an object with an integral "id" and at most a "label", an
    array of strings, besides, and the ids are 0..n-1."""
    try:
        ids = [s["id"] for s in entries]
    except (TypeError, KeyError):
        ids = None
    if ids is None or not set(map(type, ids)) <= {int}:
        try:
            ids = [json_index(s["id"], "state id") for s in entries]
        except (TypeError, KeyError) as exc:
            raise ParseError(f"malformed states entry: {exc}") from exc
    if sorted(ids) != list(range(len(ids))):
        raise ParseError("state ids must be 0..n-1")
    names = [s.get("label", []) for s in entries]
    if not (set(chain.from_iterable(entries)) <= {"id", "label"} and set(map(type, names)) <= {list}
            and set(map(type, chain.from_iterable(names))) <= {str}):
        for i, s in zip(ids, entries):
            extra = set(s) - {"id", "label"}
            if extra:
                raise ParseError(f"unknown keys {sorted(extra)} in state {i}")
            _names(s.get("label", []), "proposition", "label")
    labels = [EMPTY_LABEL] * len(ids)
    for i, label in zip(ids, names):
        if label:
            labels[i] = frozenset(label)
    return tuple(labels)


def _available(listed: dict, n: int, act_idx: dict):
    """(state of each key, its action count, the actions of every key in
    order) of the available object, or None where a bulk check fails."""
    states, lists = _state_keys(list(listed), n), list(listed.values())
    if states is None or not set(map(type, lists)) <= {list}:
        return None
    names = list(chain.from_iterable(lists))
    acts = list(map(act_idx.get, names)) if set(map(type, names)) <= {str} else [None]
    counts = list(map(len, lists))
    if None in acts or _repeats(np.repeat(states, counts), np.array(acts), n).any():
        return None
    return states, counts, acts


def _scan_available(listed: dict, n: int, act_idx: dict):
    """_available, read key by key: ParseError at the first fault."""
    states, counts, acts = [], [], []
    for key, names in listed.items():
        i = _parse_state_key(key, n)
        try:
            row = [act_idx[a] for a in _names(names, "action", key)]
        except KeyError as exc:
            raise ParseError(f"unknown action {exc} at state {i}", key=key) from exc
        if len(set(row)) != len(row):
            raise ParseError(f"repeated action at state {i}", key=key)
        states.append(i)
        counts.append(len(row))
        acts += row
    return states, counts, acts


def _trans(trans: dict, keys: list, n: int, act_idx: dict):
    """(pair code of each key, its entry count, successors, probabilities)
    of the trans object, or None where a bulk check fails."""
    codes, lists = _pair_codes(keys, n, act_idx), list(trans.values())
    if codes is None or not set(map(type, lists)) <= {list}:
        return None
    entries = list(chain.from_iterable(lists))
    if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {2}):
        return None
    flat = list(chain.from_iterable(entries))
    col, prob = flat[0::2], _numbers(flat[1::2])
    if prob is None or not set(map(type, col)) <= {int} or (
            col and not 0 <= min(col) <= max(col) < n):
        return None
    return codes, list(map(len, lists)), np.array(col, dtype=np.int64), prob


def _scan_trans(trans: dict, n: int, act_idx: dict):
    """_trans, read key by key: ParseError at the first fault, where the
    sum of a row is checked after its entries and before its key."""
    codes, counts, col, prob = [], [], [], []
    try:
        for key, entries in trans.items():
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
                col.append(j)
                prob.append(p)
            counts.append(len(entries))
            i, a = _parse_pair_key(key, n, act_idx)
            codes.append(i * len(act_idx) + a)
    except ParseError:
        end = sum(counts)  # a row sum off 1 before the fault is raised first
        _summed(list(trans), counts, np.array(col[:end], dtype=np.int64), np.array(prob[:end]), n)
        raise
    return (np.array(codes, dtype=np.int64), counts, np.array(col, dtype=np.int64),
            np.array(prob, dtype=float))


def _scan_cost(cost: dict, n: int, act_idx: dict):
    """(pair code of each key, cost) of the cost object, read key by key:
    ParseError at the first fault."""
    codes, values = [], []
    for key, c in cost.items():
        i, a = _parse_pair_key(key, n, act_idx)
        codes.append(i * len(act_idx) + a)
        values.append(_json_number(c, "cost", key))
    return np.array(codes, dtype=np.int64), np.array(values, dtype=float)


@np.errstate(over="ignore", invalid="ignore")
def _summed(keys, counts, col, prob, n: int):
    """The entries (row, col, prob) of rows whose counts[k] entries are
    listed in order for row k (named keys[k]): repeated successors added
    in entry order, zero sums dropped, successors ascending, and each row
    divided once by its sum, added left to right, unless the sum is 1 up
    to its own rounding, so that a saved model loads back unchanged; a row
    of one successor is always divided, as v / v is exactly 1.  The
    sums are those of a Python loop adding the same way, bit for bit.
    ParseError at the first row whose sum is off 1 by more than
    ROW_SUM_TOL.  Finite entries may add up to an infinity or a NaN, as
    Python floats do, silently."""
    pair = np.repeat(np.arange(len(counts)), counts) * n + col
    order = np.argsort(pair, kind="stable")
    pair, prob = pair[order], prob[order]
    starts = np.flatnonzero(np.diff(pair, prepend=-1))
    value = numerics._running_sums(prob, starts)[np.append(starts, len(prob))[1:] - 1]
    keep = value != 0.0
    pair, value = pair[starts][keep], value[keep]
    row, col = pair // max(n, 1), pair % max(n, 1)
    starts = np.flatnonzero(np.diff(row, prepend=-1))
    total = np.zeros(len(counts))
    total[row[starts]] = numerics._running_sums(value, starts)[np.append(starts, len(value))[1:] - 1]
    off = np.abs(total - 1.0)
    if np.any(off > ROW_SUM_TOL):
        k = int(np.argmax(off > ROW_SUM_TOL))
        raise ParseError(f"row sum {total[k]:.10g} != 1", key=keys[k])
    size = np.bincount(row, minlength=len(counts))
    scaled = (off > size * sys.float_info.epsilon) | (size == 1)
    return row, col, value / np.where(scaled, total, 1.0)[row]


def _place(codes, table, what: str, actions) -> tuple[np.ndarray, list[str]]:
    """The row of each pair code in codes, table holding each row's, and
    what from_rows reports: each code of a pair not available, in order,
    then each row no code names."""
    order = np.argsort(table)
    at = np.searchsorted(table[order], codes)
    hit = np.append(table[order], -1)[at] == codes
    rows = np.append(order, -1)[at]
    named = np.zeros(len(table), dtype=bool)
    named[rows[hit]] = True
    n_act = max(len(actions), 1)
    return rows, ([f"{what} stored for unavailable pair ({c // n_act},{c % n_act})"
                   for c in codes[~hit].tolist()]
                  + [f"missing {what} at ({t // n_act},{actions[t % n_act]})"
                     for t in table[~named].tolist()])


def load(path) -> LabeledMdp:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    return from_json_dict(data)


def to_json_dict(mdp: LabeledMdp) -> dict:
    keys = [f"{i},{mdp.actions[a]}" for i, a in zip(mdp.row_state.tolist(), mdp.action.tolist())]
    col, prob, ptr = mdp.col.tolist(), mdp.prob.tolist(), mdp.entry_ptr.tolist()
    return {
        "states": [{"id": i, "label": sorted(mdp.label[i])} for i in mdp.states],
        "actions": list(mdp.actions),
        "available": {str(i): [mdp.actions[a] for a in mdp.available[i]] for i in mdp.states},
        "trans": {key: [[j, p] for j, p in zip(col[lo:hi], prob[lo:hi])]
                  for key, lo, hi in zip(keys, ptr, ptr[1:])},
        "cost": dict(zip(keys, mdp.cost.tolist())),
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


def _numbers(values: list) -> np.ndarray | None:
    """values as floats, or None unless each is an int or a float (not a
    bool) within the float range and finite."""
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        out = np.array(values, dtype=float)
    except OverflowError:
        return None
    return out if np.all(np.isfinite(out)) else None


def _of_kind(value, kind: type, key: str | None):
    """value itself, or ParseError if it is not a JSON object (dict) or
    array (list) as kind asks."""
    if not isinstance(value, kind):
        expected = "an object" if kind is dict else "an array"
        raise ParseError(f"expected {expected}, got {type(value).__name__}", key=key)
    return value


def _names(value, what: str, key: str) -> list[str]:
    """value itself, or ParseError unless it is a JSON array of strings."""
    for name in _of_kind(value, list, key):
        if not isinstance(name, str):
            raise ParseError(f"{what} {name!r} is not a string", key=key)
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


def _int(text: str, message: str, **where) -> int:
    """int(text), or ParseError(message, **where) if text is not an integer."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(message, **where) from None


def _state_keys(keys, n: int) -> list[int] | None:
    """The state each key names, or None unless every key is ASCII digits
    naming a state: int() also reads " 1", "+1" and "0_1", and
    str.isdigit() accepts "²", so such keys take the scalar checks."""
    if not (keys and set(map(type, keys)) <= {str}):
        return None
    text = "".join(keys)
    if not (all(keys) and text.isascii() and text.isdigit()):
        return None
    states = list(map(int, keys))
    return states if max(states) < n else None


def _pair_codes(keys: list, n: int, act_idx: dict) -> np.ndarray | None:
    """state * len(act_idx) + action of each "state,action" key, or None
    unless each is a key of _state_keys, a comma and a listed action."""
    parts = [key.split(",") for key in keys] if set(map(type, keys)) <= {str} else []
    if set(map(len, parts)) != {2}:
        return None
    heads, names = zip(*parts)
    states, acts = _state_keys(heads, n), list(map(act_idx.get, names))
    if states is None or None in acts:
        return None
    return np.array(states, dtype=np.int64) * len(act_idx) + np.array(acts, dtype=np.int64)


def _parse_state_key(key: str, n: int) -> int:
    i = _int(key, f"state key {key!r} is not an integer", key=key)
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
