import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import always_accepting_dra, pickup_delivery_dra, random_dra, write_ltl2dstar
from cyclesynth import dra as dra_mod
from cyclesynth.dra import Dra, RabinPair, parse_symbol_key, symbol_key
from cyclesynth.errors import InvariantViolation, ParseError

FIXTURES = Path(__file__).parent / "fixtures"


def gfg_dra():
    """Two-state automaton tracking whether 'g' was just read;
    K = states reached on reading g (accepts runs with infinitely many g)."""
    sy = [frozenset(), frozenset({"g"})]
    delta = {
        (0, sy[0]): 0, (0, sy[1]): 1,
        (1, sy[0]): 0, (1, sy[1]): 1,
    }
    return Dra(n_states=2, ap=("g",), start=0,
               pairs=(RabinPair(L=frozenset(), K=frozenset({1})),), delta=delta)


V2_TEXT = """DRA v2 explicit
Comment: "infinitely often g"
States: 2
Acceptance-Pairs: 1
Start: 0
AP: 1 "g"
---
State: 0
Acc-Sig:
0
1
State: 1
Acc-Sig: +0
0
1
"""


class TestModel:
    def test_symbol_key_round_trip(self):
        assert symbol_key(frozenset()) == ""
        assert symbol_key({"b", "a"}) == "a,b"
        assert parse_symbol_key("") == frozenset()
        assert parse_symbol_key("a,b") == frozenset({"a", "b"})

    def test_step_ignores_foreign_props(self):
        d = gfg_dra()
        assert d.step(0, {"g", "unrelated"}) == 1
        assert d.step(1, set()) == 0

    def test_symbols_bit_order(self):
        d = pickup_delivery_dra()
        # bit 0 = first AP (pickup), bit 1 = second AP (dropoff)
        assert d.symbols() == [
            frozenset(), frozenset({"pickup"}), frozenset({"dropoff"}),
            frozenset({"pickup", "dropoff"}),
        ]

    def test_totality_enforced(self):
        sy = [frozenset(), frozenset({"g"})]
        with pytest.raises(InvariantViolation, match="undefined"):
            Dra(n_states=2, ap=("g",), start=0,
                pairs=(RabinPair(L=frozenset(), K=frozenset({1})),),
                delta={(0, sy[0]): 0, (0, sy[1]): 1, (1, sy[0]): 0})

    def test_empty_k_rejected(self):
        sy = [frozenset(), frozenset({"g"})]
        delta = {(q, s): 0 for q in range(1) for s in sy}
        with pytest.raises(InvariantViolation, match="empty K"):
            Dra(n_states=1, ap=("g",), start=0,
                pairs=(RabinPair(L=frozenset(), K=frozenset()),), delta=delta)

    def test_no_pairs_rejected(self):
        sy = [frozenset(), frozenset({"g"})]
        delta = {(0, s): 0 for s in sy}
        with pytest.raises(InvariantViolation, match="acceptance pair"):
            Dra(n_states=1, ap=("g",), start=0, pairs=(), delta=delta)


class TestJson:
    def test_round_trip(self):
        for d in (gfg_dra(), pickup_delivery_dra(), always_accepting_dra()):
            again = dra_mod.from_json_dict(dra_mod.to_json_dict(d))
            assert again == d

    def test_unknown_key(self):
        data = dra_mod.to_json_dict(gfg_dra())
        data["bogus"] = True
        with pytest.raises(ParseError, match="unknown keys"):
            dra_mod.from_json_dict(data)

    @pytest.mark.parametrize("field, value, message", [
        ("states", 2.5, "states 2.5 is not a state count"),
        ("states", "2", "states '2' is not a state count"),
        ("start", 0.5, "start 0.5 is not a state index"),
        ("start", True, "start True is not a state index"),
        ("L", 0.5, "state 0.5 is not a state index (key 'pairs[0].L')"),
        ("K", 1.5, "state 1.5 is not a state index (key 'pairs[0].K')"),
        ("K", "1", "state '1' is not a state index (key 'pairs[0].K')"),
        ("delta", 1.5, "successor 1.5 is not a state index (key '0')"),
        ("delta", None, "successor None is not a state index (key '0')"),
    ])
    def test_index_not_integral(self, field, value, message):
        data = dra_mod.to_json_dict(gfg_dra())
        if field in ("L", "K"):
            data["pairs"][0][field] = [value]
        elif field == "delta":
            data["trans"]["0"]["g"] = value
        else:
            data[field] = value
        with pytest.raises(ParseError, match=re.escape(message)):
            dra_mod.from_json_dict(data)

    def test_integral_floats_accepted(self):
        data = dra_mod.to_json_dict(gfg_dra())
        data["states"], data["start"] = 2.0, 0.0
        data["pairs"][0]["K"] = [1.0]
        data["trans"]["0"]["g"] = 1.0
        assert dra_mod.from_json_dict(data) == gfg_dra()

    @pytest.mark.parametrize("field, value, message", [
        ("ap", "g", "expected an array, got str (key 'ap')"),
        ("ap", ["g", 5], "propositions must be strings (key 'ap')"),
        ("pairs", {"K": [1]}, "expected an array, got dict (key 'pairs')"),
        ("pairs", [[1]], "expected an object, got list (key 'pairs[0]')"),
        ("pairs", [{"L": [0]}], "missing key 'K' (key 'pairs[0]')"),
        ("pairs", [{"K": 1}], "expected an array, got int (key 'pairs[0].K')"),
        ("pairs", [{"K": [1], "L": 0}], "expected an array, got int (key 'pairs[0].L')"),
        ("trans", [], "expected an object, got list (key 'trans')"),
        ("trans", {"0": [0, 1], "1": {"": 0, "g": 1}},
         "expected an object, got list (key '0')"),
    ])
    def test_container_of_wrong_shape(self, field, value, message):
        data = dra_mod.to_json_dict(gfg_dra())
        data[field] = value
        with pytest.raises(ParseError, match=re.escape(message)):
            dra_mod.from_json_dict(data)

    @pytest.mark.parametrize("data", [5, None, [], "states"])
    def test_document_not_an_object(self, data):
        with pytest.raises(ParseError, match="^expected an object, got "):
            dra_mod.from_json_dict(data)

    def test_undeclared_proposition_in_symbol(self):
        data = dra_mod.to_json_dict(gfg_dra())
        data["trans"]["0"]["zz"] = 0
        with pytest.raises(ParseError, match="undeclared"):
            dra_mod.from_json_dict(data)


class TestAliasedKeys:
    """Keys that name one automaton state, or one symbol of a state, are
    rejected with both keys named, not read as the later one."""

    @pytest.mark.parametrize("first, second", [("1", "+1"), ("0", " 0"), ("1", "0_1")])
    def test_aliased_state_keys_rejected(self, first, second):
        data = dra_mod.to_json_dict(gfg_dra())
        data["trans"][second] = {"": 1, "g": 1}
        with pytest.raises(ParseError, match=re.escape(
                f"keys {first!r} and {second!r} name the same entry (key {second!r})")):
            dra_mod.from_json_dict(data)

    @pytest.mark.parametrize("first, second", [("dropoff,pickup", "pickup,dropoff"),
                                               ("pickup", "pickup,pickup")])
    def test_aliased_symbol_keys_rejected(self, first, second):
        data = dra_mod.to_json_dict(pickup_delivery_dra())
        data["trans"]["1"][second] = 0
        with pytest.raises(ParseError, match=re.escape(
                f"keys {first!r} and {second!r} name the same entry (key {second!r})")):
            dra_mod.from_json_dict(data)


class TestLtl2dstarV2:
    def test_parse(self):
        d = dra_mod.parse_ltl2dstar(V2_TEXT)
        assert d == gfg_dra()

    def test_load_sniffs_format(self, tmp_path):
        import json
        p1 = tmp_path / "a.dra"
        p1.write_text(V2_TEXT)
        p2 = tmp_path / "a.json"
        p2.write_text(json.dumps(dra_mod.to_json_dict(gfg_dra())))
        assert dra_mod.load(p1) == dra_mod.load(p2) == gfg_dra()

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header") as err:
            dra_mod.parse_ltl2dstar("DRA v1 explicit\nStates: 1\n")
        assert err.value.line == 1

    def test_truncated_state_block(self):
        text = V2_TEXT.rsplit("1\n", 1)[0]  # drop the final successor line
        with pytest.raises(ParseError, match="truncated state block") as err:
            dra_mod.parse_ltl2dstar(text)
        assert err.value.line is not None

    def test_bad_acc_sig(self):
        text = V2_TEXT.replace("Acc-Sig: +0", "Acc-Sig: *0")
        with pytest.raises(ParseError, match="acceptance mark"):
            dra_mod.parse_ltl2dstar(text)

    def test_pair_index_out_of_range(self):
        text = V2_TEXT.replace("Acc-Sig: +0", "Acc-Sig: +3")
        with pytest.raises(ParseError, match="pair count"):
            dra_mod.parse_ltl2dstar(text)

    def test_successor_out_of_range(self):
        text = V2_TEXT.replace("State: 1\nAcc-Sig: +0\n0\n1",
                               "State: 1\nAcc-Sig: +0\n0\n9")
        with pytest.raises(ParseError, match="out of range"):
            dra_mod.parse_ltl2dstar(text)

    def test_ap_count_mismatch(self):
        text = V2_TEXT.replace('AP: 1 "g"', 'AP: 2 "g"')
        with pytest.raises(ParseError, match="AP count"):
            dra_mod.parse_ltl2dstar(text)

    def test_minus_marks_l_membership(self):
        text = V2_TEXT.replace("Acc-Sig:\n0", "Acc-Sig: -0\n0")
        d = dra_mod.parse_ltl2dstar(text)
        assert d.pairs[0].L == frozenset({0})
        assert d.pairs[0].K == frozenset({1})


class TestRoundTripProperty:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_v2_and_json_round_trips(self, seed):
        d = random_dra(seed)
        assert dra_mod.parse_ltl2dstar(write_ltl2dstar(d)) == d
        assert dra_mod.from_json_dict(dra_mod.to_json_dict(d)) == d


class TestLtl2dstarErrors:
    """Each ParseError of the ltl2dstar reader, with the line it names.
    Lines of V2_TEXT: 1 version, 2-6 header, 7 '---', 8-11 state 0,
    12-15 state 1."""

    @pytest.mark.parametrize("old, new, message", [
        ("DRA v2 explicit", "DRA v1 explicit",
         "unsupported version: expected 'DRA v2 explicit' header (line 1)"),
        ("---\nState: 0\nAcc-Sig:\n0\n1\nState: 1\nAcc-Sig: +0\n0\n1\n", "",
         "truncated header: missing state blocks (line 6)"),
        ("Start: 0", "Start 0", "malformed header line 'Start 0' (line 5)"),
        ('AP: 1 "g"', 'AP: one "g"', "malformed AP line (line 6)"),
        ('AP: 1 "g"', "AP:", "malformed AP line (line 6)"),
        ('AP: 1 "g"', 'AP: 2 "g"', "AP count 2 does not match 1 names (line 6)"),
        ("Start: 0\n", "", "missing header field 'Start' (line 6)"),
        ("States: 2", "States: two",
         "non-integer header field: invalid literal for int() with base 10: 'two' (line 7)"),
        ("State: 1", "Stat: 1", "expected a 'State:' block, got 'Stat: 1' (line 12)"),
        ("State: 1", "State: one", "malformed State line (line 12)"),
        ("State: 1", "State:1", "malformed State line (line 12)"),
        ("State: 1", "State: 2", "state index 2 out of range (line 12)"),
        ("State: 1", "State: 0", "duplicate state block 0 (line 12)"),
        ("Acc-Sig: +0\n", "", "missing Acc-Sig line for state 1 (line 13)"),
        ("Acc-Sig: +0", "Acc-Sig: *0", "malformed acceptance mark '*0' (line 13)"),
        ("Acc-Sig: +0", "Acc-Sig: +3", "acceptance mark '+3' exceeds pair count (line 13)"),
        ("Acc-Sig: +0", "Acc-Sig: +\u00b2", "malformed acceptance mark '+\u00b2' (line 13)"),
        ("0\n1\nState: 1", "0\nState: 1",
         "truncated state block 0: expected a successor index, got 'State: 1' (line 11)"),
        ("+0\n0\n1\n", "+0\n0\n", "truncated state block 1: expected 2 successors (line 14)"),
        ("+0\n0\n1\n", "+0\n0\n9\n", "successor 9 out of range (line 15)"),
        ("States: 2", "States: 3", "found 2 state blocks, expected 3 (line 15)"),
    ], ids=["version", "truncated-header", "malformed-header-line", "malformed-ap",
            "empty-ap", "ap-count", "missing-field", "non-integer-field", "not-a-state-line",
            "malformed-state", "state-without-space", "state-out-of-range", "duplicate-state",
            "missing-acc-sig", "malformed-mark", "mark-beyond-pairs", "superscript-mark",
            "successor-not-integer",
            "truncated-block", "successor-out-of-range", "missing-blocks"])
    def test_error(self, old, new, message):
        text = V2_TEXT.replace(old, new, 1)
        with pytest.raises(ParseError) as err:
            dra_mod.parse_ltl2dstar(text)
        assert str(err.value) == message
        assert err.value.line == int(message.rsplit(" ", 1)[1].rstrip(")"))

    @pytest.mark.parametrize("text, message", [
        ("", "unsupported version: expected 'DRA v2 explicit' header (line 0)"),
        ("\n \n", "unsupported version: expected 'DRA v2 explicit' header (line 2)"),
        (V2_TEXT.split("---")[0] + "\n\n", "truncated header: missing state blocks (line 8)"),
        (V2_TEXT[:-2] + "\n \n", "truncated state block 1: expected 2 successors (line 16)"),
        (V2_TEXT.replace("States: 2", "States: 3") + "\n\t\n",
         "found 2 state blocks, expected 3 (line 17)"),
    ], ids=["empty", "blank", "header", "state-block", "block-count"])
    def test_end_of_input_is_its_last_line(self, text, message):
        """An error at the end of the input names its last line, blank
        or not."""
        with pytest.raises(ParseError) as err:
            dra_mod.parse_ltl2dstar(text)
        assert str(err.value) == message

    def test_header_may_end_at_the_first_state_line(self):
        assert dra_mod.parse_ltl2dstar(V2_TEXT.replace("---\n", "")) == gfg_dra()

    @pytest.mark.parametrize("field, line, first", [
        ("States", "States: 2", 3), ("Acceptance-Pairs", "Acceptance-Pairs: 1", 4),
        ("Start", "Start: 1", 5), ("AP", 'AP: 2 "q0" "q1"', 6)],
        ids=["States", "Acceptance-Pairs", "Start", "AP"])
    def test_repeated_header_field(self, field, line, first):
        """A second value for a field is an error, not a silent override."""
        text = V2_TEXT.replace("---", f"{line}\n---")
        with pytest.raises(ParseError) as err:
            dra_mod.parse_ltl2dstar(text)
        assert str(err.value) == (
            f"repeated header field {field!r}, first on line {first} (line 7)")
        assert err.value.line == 7


class TestManyPropositions:
    """A file declaring 16 propositions but holding one transition is
    rejected before the 2^16 symbols exist, in either format."""

    AP = [f"p{k}" for k in range(16)]

    def _peak(self, parse, error, message):
        tracemalloc.start()
        try:
            with pytest.raises(error) as err:
                parse()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(err.value) == message
        return peak

    def test_ltl2dstar(self):
        text = ("DRA v2 explicit\nStates: 1\nAcceptance-Pairs: 1\nStart: 0\n"
                f"AP: 16 {' '.join(map(repr, self.AP))}\n---\nState: 0\nAcc-Sig: +0\n0\n")
        peak = self._peak(lambda: dra_mod.parse_ltl2dstar(text), ParseError,
                          "truncated state block 0: expected 65536 successors (line 9)")
        assert peak < 1 << 20

    def test_json(self):
        data = {"states": 1, "ap": self.AP, "start": 0, "pairs": [{"K": [0]}],
                "trans": {"0": {"": 0}}}
        peak = self._peak(lambda: dra_mod.from_json_dict(data), InvariantViolation,
                          "transition function undefined at state 0, symbol {p0}")
        assert peak < 1 << 20


# ---------------------------------------------------------------------------
# Differential check against the ltl2dstar reader as it was before its
# one-pass rewrite, kept verbatim but for its name
# ---------------------------------------------------------------------------

def _symbols(ap) -> list[frozenset[str]]:
    """Every subset of ap; bit b of the list index is the b-th proposition."""
    return [frozenset(a for b, a in enumerate(ap) if (bits >> b) & 1)
            for bits in range(2 ** len(ap))]


def oracle_parse_ltl2dstar(text: str) -> Dra:
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


MUTATION_BASES = ([p.read_text() for p in sorted((FIXTURES / "v2").glob("*.dra"))]
                  + [(FIXTURES / "pickup_delivery.dra").read_text()])
# replacement lines: every fixture line, and lines near the format's edges
MUTATION_LINES = sorted({line for text in MUTATION_BASES for line in text.splitlines()}
                        | {"", "  ", "---", "State:", "State: 7", "State: -1", "State: +1",
                           "Acc-Sig:", "Acc-Sig: +1 -0", "Acc-Sig: +", "States: 0",
                           "Start: 9", "AP: 0", "AP:", "AP: x", "Acceptance-Pairs: 0",
                           "Acceptance-Pairs: 2", "+1", "1_0", "-1", " 2 ", "x", "Comment",
                           "DRA v2 explicit"})


@st.composite
def mutated_ltl2dstar(draw):
    text = draw(st.sampled_from(MUTATION_BASES)
                | st.integers(0, 2 ** 31 - 1).map(lambda s: write_ltl2dstar(random_dra(s))))
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["delete", "duplicate", "insert", "replace"]))
        if not lines:
            op = "insert"
        at = draw(st.integers(0, len(lines) - (op != "insert")))
        new = draw(st.sampled_from(MUTATION_LINES)
                   | st.text(alphabet=" :+-0123456789\"SAPe", max_size=8))
        if op == "delete":
            del lines[at]
        elif op == "duplicate":
            lines.insert(at, lines[at])
        elif op == "insert":
            lines.insert(at, new)
        else:
            lines[at] = new
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # any exception: type, message and line must agree
        return type(exc), str(exc), getattr(exc, "line", None)


class TestAgainstOracle:
    @settings(max_examples=500, deadline=None)
    @given(mutated_ltl2dstar())
    def test_same_result_as_the_old_reader(self, text):
        """The same Dra, or the same error type, message and line, on
        every input but one with a repeated header field: that now fails
        at the repeat, naming both lines."""
        new = _outcome(dra_mod.parse_ltl2dstar, text)
        repeated = re.fullmatch(r"repeated header field '(.*)', first on line (\d+) "
                                r"\(line (\d+)\)", new[1]) if isinstance(new, tuple) else None
        if repeated:
            field, first, again = repeated.groups()
            for lineno in (int(first), int(again)):
                assert text.splitlines()[lineno - 1].partition(":")[0].strip() == field
            return
        assert new == _outcome(oracle_parse_ltl2dstar, text)

    @pytest.mark.parametrize("text", MUTATION_BASES)
    def test_fixtures_unmutated(self, text):
        assert (_outcome(dra_mod.parse_ltl2dstar, text)
                == _outcome(oracle_parse_ltl2dstar, text))
