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
from .mdp import _check_unaliased, _int, _of_kind, json_index

_DRA_KEYS = {"states", "ap", "start", "pairs", "trans"}


def symbol_key(symbol) -> str:
    return ",".join(sorted(symbol))


def parse_symbol_key(key: str) -> frozenset[str]:
    return frozenset(key.split(",")) if key else frozenset()


def _symbol(ap, bits: int) -> frozenset[str]:
    """The subset of ap holding the b-th proposition iff bit b of bits is set."""
    return frozenset(a for b, a in enumerate(ap) if (bits >> b) & 1)


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
        return [_symbol(self.ap, bits) for bits in range(2 ** len(self.ap))]


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
    for q in range(dra.n_states):
        for bits in range(2 ** len(dra.ap)):  # one symbol at a time: stops at the first gap
            sym = _symbol(dra.ap, bits)
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
    return _int(key, f"state key {key!r} is not an integer", key=key)


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
    """Parse the "DRA v2 explicit" text format of ltl2dstar in one pass.

    `key: value` header lines, each key at most once, run up to `---` or
    the first `State:` line.  Each state's block is `State: q`, an Acc-Sig
    line with +k / -k marks for K(k) / L(k), and 2^|AP| successor lines;
    bit b of a successor's index in its block is the b-th AP's value.
    """
    raw = text.splitlines()
    # (number, stripped text) of each non-blank line, then the end of input
    lines = [(n, s) for n, s in enumerate(map(str.strip, raw), 1) if s] + [(len(raw), None)]
    lineno, line = lines[0]
    if line is None or line.split() != ["DRA", "v2", "explicit"]:
        raise ParseError("unsupported version: expected 'DRA v2 explicit' header",
                         line=lineno)
    header: dict[str, tuple[int, str]] = {}
    ap: list[str] = []
    for pos, (lineno, line) in enumerate(lines[1:], 1):
        if line is None:
            raise ParseError("truncated header: missing state blocks", line=lineno)
        if line == "---" or line.startswith("State:"):
            break
        key, colon, value = line.partition(":")
        if not colon:
            raise ParseError(f"malformed header line {line!r}", line=lineno)
        key, value = key.strip(), value.strip()
        if key in header:
            raise ParseError(f"repeated header field {key!r}, first on line "
                             f"{header[key][0]}", line=lineno)
        header[key] = lineno, value
        if key == "AP":
            count, *ap = value.split() or [""]
            n_ap = _int(count, "malformed AP line", line=lineno)
            ap = [a.strip('"') for a in ap]
            if len(ap) != n_ap:
                raise ParseError(f"AP count {n_ap} does not match {len(ap)} names",
                                 line=lineno)
    fields = ("States", "Acceptance-Pairs", "Start")
    for required in fields:
        if required not in header:
            raise ParseError(f"missing header field {required!r}", line=lineno)
    try:
        n_states, n_pairs, start = (int(header[f][1]) for f in fields)
    except ValueError as exc:
        raise ParseError(f"non-integer header field: {exc}", line=lineno) from exc
    width = 2 ** len(ap)
    delta: dict[tuple[int, frozenset[str]], int] = {}
    L = [set() for _ in range(n_pairs)]
    K = [set() for _ in range(n_pairs)]
    seen = set()
    for pos in range(pos + (line == "---"), len(lines) - 1, 2 + width):
        lineno, line = lines[pos]
        if not line.startswith("State:"):
            raise ParseError(f"expected a 'State:' block, got {line!r}", line=lineno)
        q = _int((line.split() + [""])[1], "malformed State line", line=lineno)
        if not 0 <= q < n_states:
            raise ParseError(f"state index {q} out of range", line=lineno)
        if q in seen:
            raise ParseError(f"duplicate state block {q}", line=lineno)
        seen.add(q)
        lineno, line = lines[pos + 1]
        if line is None or not line.startswith("Acc-Sig:"):
            raise ParseError(f"missing Acc-Sig line for state {q}", line=lineno)
        for mark in line[len("Acc-Sig:"):].split():
            if len(mark) < 2 or mark[0] not in "+-" or not mark[1:].isdecimal():
                raise ParseError(f"malformed acceptance mark {mark!r}", line=lineno)
            idx = int(mark[1:])
            if idx >= n_pairs:
                raise ParseError(f"acceptance mark {mark!r} exceeds pair count",
                                 line=lineno)
            (K if mark[0] == "+" else L)[idx].add(q)
        for bits, (lineno, line) in enumerate(lines[pos + 2:pos + 2 + width]):
            if line is None:
                raise ParseError(f"truncated state block {q}: expected {width} successors",
                                 line=lineno)
            succ = _int(line, f"truncated state block {q}: expected a successor index, "
                              f"got {line!r}", line=lineno)
            if not 0 <= succ < n_states:
                raise ParseError(f"successor {succ} out of range", line=lineno)
            delta[(q, _symbol(ap, bits))] = succ
    if len(seen) != n_states:
        raise ParseError(f"found {len(seen)} state blocks, expected {n_states}",
                         line=lines[-1][0])
    pairs = tuple(RabinPair(L=frozenset(Lk), K=frozenset(Kk)) for Lk, Kk in zip(L, K))
    return Dra(n_states=n_states, ap=tuple(ap), start=start, pairs=pairs, delta=delta)


def load(path) -> Dra:
    """Load a DRA from either format, sniffing the header."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("DRA"):
        return parse_ltl2dstar(text)
    return parse_json(text)
