import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import always_accepting_dra, pickup_delivery_dra, random_dra, write_ltl2dstar
from cyclesynth import dra as dra_mod
from cyclesynth.dra import Dra, RabinPair, parse_symbol_key, symbol_key
from cyclesynth.errors import InvariantViolation, ParseError


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
