"""Deterministic Rabin automaton model and parsers for the JSON schema and
the ltl2dstar v2 explicit text format.

Symbols are canonicalized as frozensets of atomic propositions; the
serialized key for a symbol is the comma-joined sorted subset (the empty
string for the empty set).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import InvariantViolation, ParseError
from .mdp import _check_unaliased, _of_kind, json_index

_DRA_KEYS = {"states", "ap", "start", "pairs", "trans"}


def symbol_key(symbol) -> str:
    return ",".join(sorted(symbol))


def parse_symbol_key(key: str) -> frozenset[str]:
    return frozenset(key.split(",")) if key else frozenset()


def _symbols(ap) -> list[frozenset[str]]:
    """Every subset of ap; bit b of the list index is the b-th proposition."""
    return [frozenset(a for b, a in enumerate(ap) if (bits >> b) & 1)
            for bits in range(2 ** len(ap))]


@dataclass(frozen=True)
class RabinPair:
    """Acceptance pair: visits to L must be finite, visits to K infinite.
    L may be empty; K may not."""

    L: frozenset[int]
    K: frozenset[int]


@dataclass(frozen=True)
class Dra:
    n_states: int
    ap: tuple[str, ...]
    start: int
    pairs: tuple[RabinPair, ...]
    delta: dict[tuple[int, frozenset[str]], int]
    _ap_set: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _validate(self)
        object.__setattr__(self, "_ap_set", frozenset(self.ap))

    def step(self, state: int, symbol) -> int:
        return self.delta[(state, frozenset(symbol) & self._ap_set)]

    def symbols(self) -> list[frozenset[str]]:
        return _symbols(self.ap)


def _validate(dra: Dra):
    if not dra.pairs:
        raise InvariantViolation("a Rabin automaton needs at least one acceptance pair")
    if not 0 <= dra.start < dra.n_states:
        raise InvariantViolation(f"start state {dra.start} out of range")
    for k, pair in enumerate(dra.pairs):
        if not pair.K:
            raise InvariantViolation(f"acceptance pair {k} has an empty K set")
        for s in pair.L | pair.K:
            if not 0 <= s < dra.n_states:
                raise InvariantViolation(f"acceptance pair {k} references state {s}")
    symbols = dra.symbols()
    for q in range(dra.n_states):
        for sym in symbols:
            if (q, sym) not in dra.delta:
                raise InvariantViolation(
                    f"transition function undefined at state {q}, symbol "
                    f"{{{symbol_key(sym)}}}")
            succ = dra.delta[(q, sym)]
            if not 0 <= succ < dra.n_states:
                raise InvariantViolation(f"successor {succ} out of range at state {q}")


# ---------------------------------------------------------------------------
# JSON format
# ---------------------------------------------------------------------------

def from_json_dict(data: dict) -> Dra:
    unknown = set(_of_kind(data, dict, None)) - _DRA_KEYS
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}")
    missing = _DRA_KEYS - set(data)
    if missing:
        raise ParseError(f"missing keys {sorted(missing)}")
    n = json_index(data["states"], "states", expected="a state count")
    ap = tuple(_of_kind(data["ap"], list, "ap"))
    if not all(isinstance(a, str) for a in ap):
        raise ParseError("propositions must be strings", key="ap")
    ap_set = frozenset(ap)
    pairs = []
    for k, entry in enumerate(_of_kind(data["pairs"], list, "pairs")):
        at = f"pairs[{k}]"
        if set(_of_kind(entry, dict, at)) - {"L", "K"}:
            raise ParseError(f"unknown keys in pair {k}")
        if "K" not in entry:
            raise ParseError("missing key 'K'", key=at)
        L = [json_index(s, "state", key=f"{at}.L")
             for s in _of_kind(entry.get("L", []), list, f"{at}.L")]
        K = [json_index(s, "state", key=f"{at}.K") for s in _of_kind(entry["K"], list, f"{at}.K")]
        pairs.append(RabinPair(L=frozenset(L), K=frozenset(K)))
    delta, states = {}, set()
    for state_key, row in _of_kind(data["trans"], dict, "trans").items():
        q = _state_key(state_key)
        states.add(q)
        symbols = {}
        for sym_key, succ in _of_kind(row, dict, state_key).items():
            sym = parse_symbol_key(sym_key)
            if not sym <= ap_set:
                raise ParseError(f"symbol {sym_key!r} uses undeclared propositions",
                                 key=sym_key)
            symbols[sym] = json_index(succ, "successor", key=state_key)
        _check_unaliased(row, symbols, parse_symbol_key)
        delta.update(((q, sym), succ) for sym, succ in symbols.items())
    _check_unaliased(data["trans"], states, _state_key)
    return Dra(n_states=n, ap=ap, start=json_index(data["start"], "start"),
               pairs=tuple(pairs), delta=delta)


def _state_key(key: str) -> int:
    try:
        return int(key)
    except ValueError:
        raise ParseError(f"state key {key!r} is not an integer", key=key) from None


def parse_json(text: str) -> Dra:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    return from_json_dict(data)


def to_json_dict(dra: Dra) -> dict:
    trans: dict[str, dict[str, int]] = {}
    for q in range(dra.n_states):
        trans[str(q)] = {symbol_key(sym): dra.delta[(q, sym)] for sym in dra.symbols()}
    return {
        "states": dra.n_states,
        "ap": list(dra.ap),
        "start": dra.start,
        "pairs": [{"L": sorted(p.L), "K": sorted(p.K)} for p in dra.pairs],
        "trans": trans,
    }


# ---------------------------------------------------------------------------
# ltl2dstar v2 explicit format
# ---------------------------------------------------------------------------

def parse_ltl2dstar(text: str) -> Dra:
    """Parse the "DRA v2 explicit" text format.

    Per-state blocks carry an Acc-Sig line with +k / -k membership marks
    for K(k) / L(k), followed by 2^|AP| successor lines where bit b of
    the symbol index is the truth value of the b-th declared AP.
    """
    lines = text.splitlines()
    pos = 0

    def next_line():
        nonlocal pos
        while pos < len(lines):
            line = lines[pos].strip()
            pos += 1
            if line:
                return line, pos
        return None, pos

    line, lineno = next_line()
    if line is None or line.split() != ["DRA", "v2", "explicit"]:
        raise ParseError("unsupported version: expected 'DRA v2 explicit' header",
                         line=lineno)

    header: dict[str, str] = {}
    ap: list[str] = []
    while True:
        line, lineno = next_line()
        if line is None:
            raise ParseError("truncated header: missing state blocks", line=lineno)
        if line == "---":
            break
        if line.startswith("State:"):
            pos -= 1
            break
        if ":" not in line:
            raise ParseError(f"malformed header line {line!r}", line=lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "AP":
            parts = value.split()
            try:
                n_ap = int(parts[0])
            except (IndexError, ValueError):
                raise ParseError("malformed AP line", line=lineno) from None
            names = [p.strip('"') for p in parts[1:]]
            if len(names) != n_ap:
                raise ParseError(f"AP count {n_ap} does not match {len(names)} names",
                                 line=lineno)
            ap = names
        else:
            header[key] = value
    for required in ("States", "Acceptance-Pairs", "Start"):
        if required not in header:
            raise ParseError(f"missing header field {required!r}", line=lineno)
    try:
        n_states = int(header["States"])
        n_pairs = int(header["Acceptance-Pairs"])
        start = int(header["Start"])
    except ValueError as exc:
        raise ParseError(f"non-integer header field: {exc}", line=lineno) from exc

    symbols = _symbols(ap)

    delta: dict[tuple[int, frozenset[str]], int] = {}
    L = [set() for _ in range(n_pairs)]
    K = [set() for _ in range(n_pairs)]
    seen = set()
    while True:
        line, lineno = next_line()
        if line is None:
            break
        if not line.startswith("State:"):
            raise ParseError(f"expected a 'State:' block, got {line!r}", line=lineno)
        try:
            q = int(line.split()[1])
        except (IndexError, ValueError):
            raise ParseError("malformed State line", line=lineno) from None
        if not 0 <= q < n_states:
            raise ParseError(f"state index {q} out of range", line=lineno)
        if q in seen:
            raise ParseError(f"duplicate state block {q}", line=lineno)
        seen.add(q)
        line, lineno = next_line()
        if line is None or not line.startswith("Acc-Sig:"):
            raise ParseError(f"missing Acc-Sig line for state {q}", line=lineno)
        for mark in line[len("Acc-Sig:"):].split():
            if len(mark) < 2 or mark[0] not in "+-" or not mark[1:].isdigit():
                raise ParseError(f"malformed acceptance mark {mark!r}", line=lineno)
            idx = int(mark[1:])
            if idx >= n_pairs:
                raise ParseError(f"acceptance mark {mark!r} exceeds pair count",
                                 line=lineno)
            (K if mark[0] == "+" else L)[idx].add(q)
        for sym in symbols:
            line, lineno = next_line()
            if line is None:
                raise ParseError(
                    f"truncated state block {q}: expected {len(symbols)} successors",
                    line=lineno)
            try:
                succ = int(line)
            except ValueError:
                raise ParseError(
                    f"truncated state block {q}: expected a successor index, "
                    f"got {line!r}", line=lineno) from None
            if not 0 <= succ < n_states:
                raise ParseError(f"successor {succ} out of range", line=lineno)
            delta[(q, sym)] = succ
    if len(seen) != n_states:
        raise ParseError(f"found {len(seen)} state blocks, expected {n_states}",
                         line=lineno)
    pairs = tuple(RabinPair(L=frozenset(L[k]), K=frozenset(K[k])) for k in range(n_pairs))
    return Dra(n_states=n_states, ap=tuple(ap), start=start, pairs=pairs, delta=delta)


def load(path) -> Dra:
    """Load a DRA from either format, sniffing the header."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("DRA"):
        return parse_ltl2dstar(text)
    return parse_json(text)
