"""Labeled MDP data model, JSON loading, validation and graph checks
of induced chains.

States are indexed 0..n-1 and actions are indexed into a global action
alphabet; action names are only used at the I/O boundary.  All types are
immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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

    trans maps (state, action index) to a dense probability row; rows are
    stored only for available actions.
    """

    n_states: int
    actions: tuple[str, ...]
    available: tuple[tuple[int, ...], ...]
    trans: dict[tuple[int, int], np.ndarray]
    cost: dict[tuple[int, int], float]
    init: int
    props: frozenset[str]
    label: tuple[frozenset[str], ...] = field(default=())

    def __post_init__(self):
        if not self.label:
            object.__setattr__(self, "label", tuple(frozenset() for _ in range(self.n_states)))
        for row in self.trans.values():
            row.setflags(write=False)

    @property
    def states(self) -> range:
        return range(self.n_states)

    def successors(self, state: int, action: int) -> np.ndarray:
        return np.flatnonzero(self.trans[(state, action)] > 0.0)

    def pi_states(self, pi: str) -> frozenset[int]:
        return frozenset(i for i in self.states if pi in self.label[i])

    def policy_matrices(self, mu: StationaryPolicy) -> tuple[np.ndarray, np.ndarray]:
        """Transition matrix and cost vector of the chain induced by mu."""
        P = np.zeros((self.n_states, self.n_states))
        g = np.zeros(self.n_states)
        for i in self.states:
            a = mu.action(i)
            P[i] = self.trans[(i, a)]
            g[i] = self.cost[(i, a)]
        return P, g

    def union_successors(self) -> list[set[int]]:
        """Successor sets of the digraph with an edge whenever some
        available action moves i to j with positive probability."""
        succ: list[set[int]] = [set() for _ in self.states]
        for (i, _a), row in self.trans.items():
            succ[i].update(np.flatnonzero(row > 0.0).tolist())
        return succ


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
    for i in mdp.states:
        for a in mdp.available[i] if i < len(mdp.available) else ():
            key = (i, a)
            if key not in mdp.trans:
                bad.append(f"missing transition row at ({i},{mdp.actions[a]})")
                continue
            row = mdp.trans[key]
            if np.any(row < 0.0) or np.any(row > 1.0):
                bad.append(f"probability outside [0,1] at ({i},{mdp.actions[a]})")
            s = float(row.sum())
            if abs(s - 1.0) > ROW_SUM_TOL:
                bad.append(f"row sum {s:.10g} != 1 at ({i},{mdp.actions[a]})")
            if key not in mdp.cost:
                bad.append(f"missing cost at ({i},{mdp.actions[a]})")
            elif not mdp.cost[key] > 0.0:
                bad.append(f"non-positive cost at ({i},{mdp.actions[a]})")
    for (i, a) in mdp.trans:
        if i >= mdp.n_states or a not in mdp.available[i]:
            bad.append(f"transition row stored for unavailable pair ({i},{a})")
    return ValidationReport(tuple(bad))


def is_proper(mdp: LabeledMdp, mu: StationaryPolicy, target) -> bool:
    """True iff every state reaches the target set with positive
    probability under mu (graph reachability on positive edges)."""
    target = frozenset(target)
    if not target:
        raise EmptyTarget("target set is empty")
    P, _ = mdp.policy_matrices(mu)
    succ = [set(np.flatnonzero(P[i] > 0.0).tolist()) for i in mdp.states]
    # backward BFS from the target
    pred: list[set[int]] = [set() for _ in mdp.states]
    for i in mdp.states:
        for j in succ[i]:
            pred[j].add(i)
    can_reach = set(target)
    frontier = list(target)
    while frontier:
        nxt = []
        for v in frontier:
            for w in pred[v]:
                if w not in can_reach:
                    can_reach.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(can_reach) == mdp.n_states


def is_communicating(mdp: LabeledMdp) -> bool:
    """True iff the union digraph over all available actions is strongly
    connected (every pair connected under some policy)."""
    succ = [sorted(s) for s in mdp.union_successors()]
    comp = numerics._tarjan_scc(mdp.n_states, succ)
    return max(comp) == 0 if mdp.n_states else True


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def from_json_dict(data: dict) -> LabeledMdp:
    unknown = set(data) - _MDP_KEYS
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}")
    missing = _MDP_KEYS - set(data)
    if missing:
        raise ParseError(f"missing keys {sorted(missing)}")
    try:
        state_entries = data["states"]
        ids = [int(s["id"]) for s in state_entries]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"malformed states entry: {exc}") from exc
    if sorted(ids) != list(range(len(ids))):
        raise ParseError("state ids must be 0..n-1")
    n = len(ids)
    labels = [frozenset()] * n
    for s in state_entries:
        extra = set(s) - {"id", "label"}
        if extra:
            raise ParseError(f"unknown keys {sorted(extra)} in state {s.get('id')}")
        labels[int(s["id"])] = frozenset(s.get("label", []))
    actions = tuple(data["actions"])
    act_idx = {a: k for k, a in enumerate(actions)}
    available: list[tuple[int, ...]] = [()] * n
    for key, acts in data["available"].items():
        i = _parse_state_key(key, n)
        try:
            available[i] = tuple(act_idx[a] for a in acts)
        except KeyError as exc:
            raise ParseError(f"unknown action {exc} at state {i}", key=key) from exc
    trans: dict[tuple[int, int], np.ndarray] = {}
    for key, entries in data["trans"].items():
        i, a = _parse_pair_key(key, n, act_idx)
        row = np.zeros(n)
        for entry in entries:
            if len(entry) != 2:
                raise ParseError("transition entries must be [state, prob] pairs", key=key)
            j, p = int(entry[0]), float(entry[1])
            if not 0 <= j < n:
                raise ParseError(f"successor {j} out of range", key=key)
            row[j] += p
        s = float(row.sum())
        if abs(s - 1.0) > ROW_SUM_TOL:
            raise ParseError(f"row sum {s:.10g} != 1", key=key)
        trans[(i, a)] = row / s  # renormalized exactly once at load
    cost = {}
    for key, c in data["cost"].items():
        i, a = _parse_pair_key(key, n, act_idx)
        cost[(i, a)] = float(c)
    props = frozenset().union(*labels) if labels else frozenset()
    mdp = LabeledMdp(
        n_states=n,
        actions=actions,
        available=tuple(available),
        trans=trans,
        cost=cost,
        init=int(data["init"]),
        props=props,
        label=tuple(labels),
    )
    report = validate(mdp)
    if not report.ok:
        raise InvariantViolation("; ".join(report.violations))
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
            f"{i},{mdp.actions[a]}": [[int(j), float(row[j])] for j in np.flatnonzero(row > 0.0)]
            for (i, a), row in sorted(mdp.trans.items())
        },
        "cost": {f"{i},{mdp.actions[a]}": float(c) for (i, a), c in sorted(mdp.cost.items())},
        "init": mdp.init,
    }


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
