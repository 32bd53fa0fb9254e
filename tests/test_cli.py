import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

if sys.version_info >= (3, 11):
    import tomllib
else:  # pytest depends on tomli before Python 3.11
    import tomli as tomllib

from conftest import k_labelled_mdp, k_tracking_dra
from cyclesynth import dra as dra_mod
from cyclesynth import mdp as mdp_mod
from cyclesynth.cli import _load_policy_on_product, build_parser, main
from cyclesynth.product import build_product
from cyclesynth.synth import synthesize

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "fixtures"
PD_MDP = str(FIXTURES / "pickup_delivery_mdp.json")
PD_DRA = str(FIXTURES / "pickup_delivery_dra.json")
PD_DRA_V2 = str(FIXTURES / "pickup_delivery.dra")
TWO_AMEC = str(FIXTURES / "two_amec_mdp.json")
TRIVIAL_DRA = str(FIXTURES / "always_accepting_dra.json")


class TestSynthesizeCommand:
    def test_optimal_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "policy.json"
        code = main(["synthesize", "--mdp", PD_MDP, "--dra", PD_DRA,
                     "--pi", "pickup", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "optimal cost" in printed
        data = json.loads(out.read_text())
        assert data["type"] == "product-stationary"
        assert data["optimal"] is True
        assert data["lambda"] > 0
        assert all(":" in key for key in data["choices"])

    def test_v2_automaton_accepted(self, tmp_path):
        out = tmp_path / "policy.json"
        code = main(["synthesize", "--mdp", PD_MDP, "--dra", PD_DRA_V2,
                     "--pi", "pickup", "--out", str(out)])
        assert code == 0

    def test_missing_file_exit_one(self, capsys):
        code = main(["synthesize", "--mdp", "/nonexistent.json",
                     "--dra", PD_DRA, "--pi", "pickup"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_unsatisfiable_exit_one(self, tmp_path, capsys):
        # dropoff never labeled: the task is unsatisfiable
        mdp = json.loads(Path(PD_MDP).read_text())
        for st in mdp["states"]:
            if "dropoff" in st["label"]:
                st["label"] = []
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(mdp))
        code = main(["synthesize", "--mdp", str(path), "--dra", PD_DRA,
                     "--pi", "pickup"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_mdp_exit_one(self, tmp_path, capsys):
        mdp = json.loads(Path(PD_MDP).read_text())
        mdp["trans"] = []
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(mdp))
        code = main(["synthesize", "--mdp", str(path), "--dra", PD_DRA,
                     "--pi", "pickup"])
        assert code == 1
        assert "error: expected an object, got list (key 'trans')" in capsys.readouterr().err

    def test_cost_beyond_float_range_exit_one(self, tmp_path, capsys):
        mdp = json.loads(Path(PD_MDP).read_text())
        key = next(iter(mdp["cost"]))
        mdp["cost"][key] = 10 ** 400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(mdp))
        code = main(["synthesize", "--mdp", str(path), "--dra", PD_DRA,
                     "--pi", "pickup"])
        assert code == 1
        assert f"error: cost beyond the float range (key '{key}')" in capsys.readouterr().err

    def test_malformed_dra_exit_one(self, tmp_path, capsys):
        dra = json.loads(Path(PD_DRA).read_text())
        del dra["pairs"][0]["K"]
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(dra))
        code = main(["synthesize", "--mdp", PD_MDP, "--dra", str(path),
                     "--pi", "pickup"])
        assert code == 1
        assert "error: missing key 'K' (key 'pairs[0]')" in capsys.readouterr().err

    def test_tolerance_env_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CYCLESYNTH_TOL", "1e-6")
        assert main(["synthesize", "--mdp", PD_MDP, "--dra", PD_DRA,
                     "--pi", "pickup"]) == 0
        for bad in ("-1", "inf", "nan"):  # inf would certify any policy
            capsys.readouterr()
            monkeypatch.setenv("CYCLESYNTH_TOL", bad)
            assert main(["synthesize", "--mdp", PD_MDP, "--dra", PD_DRA,
                         "--pi", "pickup"]) == 1
            assert "error: CYCLESYNTH_TOL" in capsys.readouterr().err

    def test_retries_and_jobs_flags(self, capsys):
        assert main(["synthesize", "--mdp", TWO_AMEC, "--dra", TRIVIAL_DRA,
                     "--pi", "pi", "--retries", "3"]) == 0
        # --jobs is gone: worker threads gave no speed-up
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", "--mdp", TWO_AMEC, "--dra", TRIVIAL_DRA,
                  "--pi", "pi", "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_negative_retries_exit_one(self, capsys):
        assert main(["synthesize", "--mdp", TWO_AMEC, "--dra", TRIVIAL_DRA,
                     "--pi", "pi", "--retries", "-4"]) == 1
        assert "error: retries" in capsys.readouterr().err


class TestSimulateCommand:
    def _policy(self, tmp_path):
        out = tmp_path / "policy.json"
        assert main(["synthesize", "--mdp", PD_MDP, "--dra", PD_DRA,
                     "--pi", "pickup", "--out", str(out)]) == 0
        return out

    def test_report(self, tmp_path, capsys):
        policy = self._policy(tmp_path)
        report = tmp_path / "report.json"
        csv = tmp_path / "cycles.csv"
        code = main(["simulate", "--mdp", PD_MDP, "--dra", PD_DRA,
                     "--policy", str(policy), "--stages", "20000",
                     "--seed", "7", "--pi", "pickup",
                     "--out", str(report), "--csv", str(csv)])
        assert code == 0
        data = json.loads(report.read_text())
        assert data["stages"] == 20000
        assert data["rng"] == "python-random-mt19937"
        assert data["pairs"][0]["countL"] == 0
        assert data["pairs"][0]["countK"] > 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "cycle,cost"
        assert len(lines) >= data["cycles"] - 1

    def test_seed_reproducible(self, tmp_path):
        policy = self._policy(tmp_path)
        reports = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["simulate", "--mdp", PD_MDP, "--dra", PD_DRA,
                         "--policy", str(policy), "--stages", "5000",
                         "--seed", "21", "--out", str(out)]) == 0
            reports.append(out.read_text())
        assert reports[0] == reports[1]

    def test_default_pi_is_first_labeled(self, tmp_path, capsys):
        # sorted labeled propositions: dropoff < pickup, so the default
        # cycle set counts arrivals at the dropoff cell
        policy = self._policy(tmp_path)
        assert main(["simulate", "--mdp", PD_MDP, "--dra", PD_DRA,
                     "--policy", str(policy), "--stages", "1000",
                     "--seed", "2"]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_label_not_a_string_exit_one(self, tmp_path, capsys):
        """A label [1] used to load, and simulate without --pi then died
        with a TypeError traceback from sorting the propositions."""
        policy = self._policy(tmp_path)
        mdp = _mdp_with(lambda d: d["states"][1]["label"].append(1))
        capsys.readouterr()
        assert main(["simulate", "--mdp", _write_json(tmp_path / "mdp.json", mdp),
                     "--dra", PD_DRA, "--policy", str(policy), "--stages", "10"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: proposition 1 is not a string (key 'label')"]

    def test_mismatched_policy_rejected(self, tmp_path, capsys):
        policy = self._policy(tmp_path)
        data = json.loads(policy.read_text())
        first = next(iter(data["choices"]))
        data["choices"][first] = "not-an-action"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = main(["simulate", "--mdp", PD_MDP, "--dra", PD_DRA,
                     "--policy", str(bad), "--stages", "10"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mdp, dra, pi", [(PD_MDP, PD_DRA, "pickup"),
                                              (TWO_AMEC, TRIVIAL_DRA, "pi")])
    def test_written_policy_loads_back(self, tmp_path, mdp, dra, pi):
        """The policy synthesize --out writes loads back, through the
        loader simulate uses, as the stitched policy of the synthesis."""
        out = tmp_path / "policy.json"
        assert main(["synthesize", "--mdp", mdp, "--dra", dra, "--pi", pi,
                     "--out", str(out)]) == 0
        model, automaton = mdp_mod.load(mdp), dra_mod.load(dra)
        policy, _data = _load_policy_on_product(build_product(model, automaton, pi), out)
        assert policy == synthesize(model, automaton, pi).stitched_policy

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c.update({"x": c.pop("0:0")}), "malformed product state key 'x'"),
        (lambda c: c.update({"1:0": "alpha"}), "policy state 1:0 is not a reachable product state"),
        (lambda c: c.update({"0:0": "delta"}), "policy action 'delta' is not an MDP action"),
        (lambda c: c.update({"0:0": "beta"}), "action 'beta' unavailable at product state 0:0"),
        (lambda c: c.pop("9:3"), "policy undefined at product states ['9:3']"),
    ], ids=["malformed-key", "unreachable-pair", "unknown-action", "unavailable-action",
            "missing-state"])
    def test_policy_mismatch_messages(self, tmp_path, capsys, edit, message):
        data = json.loads(self._policy(tmp_path).read_text())
        edit(data["choices"])
        capsys.readouterr()
        assert main(["simulate", "--mdp", PD_MDP, "--dra", PD_DRA,
                     "--policy", _write_json(tmp_path / "bad.json", data), "--stages", "10"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_incomplete_policy_rejected(self, tmp_path, capsys):
        policy = self._policy(tmp_path)
        data = json.loads(policy.read_text())
        data["choices"].popitem()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["simulate", "--mdp", PD_MDP, "--dra", PD_DRA,
                     "--policy", str(bad), "--stages", "10"]) == 1

    @pytest.mark.parametrize("malform", [
        lambda doc: {k: v for k, v in doc.items() if k != "choices"},
        lambda doc: [doc],
        lambda doc: {**doc, "choices": list(doc["choices"].items())},
        lambda doc: {**doc, "choices": {k: [v] for k, v in doc["choices"].items()}},
    ], ids=["no-choices", "top-level-array", "choices-array", "list-action"])
    def test_malformed_policy_document_rejected(self, tmp_path, capsys, malform):
        policy = self._policy(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(malform(json.loads(policy.read_text()))))
        capsys.readouterr()
        assert main(["simulate", "--mdp", PD_MDP, "--dra", PD_DRA,
                     "--policy", str(bad), "--stages", "10"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("stages", ["0", "-5"])
    def test_non_positive_stages_exit_one(self, tmp_path, capsys, stages):
        policy = self._policy(tmp_path)
        capsys.readouterr()
        assert main(["simulate", "--mdp", PD_MDP, "--dra", PD_DRA,
                     "--policy", str(policy), "--stages", stages]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "cycles" not in captured.out


def _write_json(path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


def _mdp_with(edit):
    data = json.loads(Path(PD_MDP).read_text())
    edit(data)
    return data


def _dra_with(edit):
    data = json.loads(Path(PD_DRA).read_text())
    edit(data)
    return data


class TestAliasedInput:
    """Two keys naming one entry, and an action listed twice at a state,
    are input errors: exit 1 with a one-line message, never a later key
    silently winning or a traceback."""

    @pytest.mark.parametrize("mdp, dra", [
        (_mdp_with(lambda d: d["trans"].update({" 1,alpha": d["trans"]["1,alpha"]})), None),
        (_mdp_with(lambda d: d["cost"].update({"+1,alpha": 7.0})), None),
        (_mdp_with(lambda d: d["available"].update({"+1": ["alpha"]})), None),
        (_mdp_with(lambda d: d["available"].update({"1": ["alpha", "alpha", "beta"]})), None),
        (None, _dra_with(lambda d: d["trans"].update({"+1": d["trans"]["1"]}))),
        (None, _dra_with(lambda d: d["trans"]["1"].update({"pickup,dropoff": 0}))),
    ], ids=["trans-key", "cost-key", "available-key", "repeated-action",
            "dra-state-key", "dra-symbol-key"])
    def test_synthesize_exit_one(self, tmp_path, capsys, mdp, dra):
        mdp_path = _write_json(tmp_path / "mdp.json", mdp) if mdp else PD_MDP
        dra_path = _write_json(tmp_path / "dra.json", dra) if dra else PD_DRA
        assert main(["synthesize", "--mdp", mdp_path, "--dra", dra_path,
                     "--pi", "pickup"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_repeated_action_before_a_bad_state(self, tmp_path, capsys):
        """0 -a-> 1 -a-> 2 with 'a' listed twice at 0, and a task that
        rejects every run reading 'bad': this died with a KeyError in
        the end-component decomposition when the repeat loaded."""
        mdp = {
            "states": [{"id": 0, "label": ["pi"]}, {"id": 1, "label": []},
                       {"id": 2, "label": ["bad"]}],
            "actions": ["a", "b"],
            "available": {"0": ["a", "a", "b"], "1": ["a"], "2": ["a"]},
            "trans": {"0,a": [[1, 1.0]], "0,b": [[0, 1.0]], "1,a": [[2, 1.0]],
                      "2,a": [[2, 1.0]]},
            "cost": {"0,a": 1.0, "0,b": 1.0, "1,a": 1.0, "2,a": 1.0},
            "init": 0,
        }
        dra = {"states": 2, "ap": ["pi", "bad"], "start": 0,
               "pairs": [{"L": [1], "K": [0]}],
               "trans": {"0": {"": 0, "pi": 0, "bad": 1, "bad,pi": 1},
                         "1": {"": 1, "pi": 1, "bad": 1, "bad,pi": 1}}}
        assert main(["synthesize", "--mdp", _write_json(tmp_path / "mdp.json", mdp),
                     "--dra", _write_json(tmp_path / "dra.json", dra), "--pi", "pi"]) == 1
        assert capsys.readouterr().err.startswith("error: repeated action at state 0")

    def test_aliased_policy_keys_exit_one(self, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        assert main(["synthesize", "--mdp", PD_MDP, "--dra", PD_DRA,
                     "--pi", "pickup", "--out", str(policy)]) == 0
        data = json.loads(policy.read_text())
        key = next(iter(data["choices"]))
        data["choices"]["+" + key] = data["choices"][key]
        capsys.readouterr()
        assert main(["simulate", "--mdp", PD_MDP, "--dra", PD_DRA,
                     "--policy", _write_json(tmp_path / "bad.json", data),
                     "--stages", "10"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: policy keys {key!r} and {'+' + key!r} name the same product state")


class TestSuboptimalExit:
    """Exit code 2: policy iteration from the tree policy stops at
    lambda 5.931407 on random_cycle_problem(31); five restarts from
    random initial policies certify lambda 0.871238."""

    def _run(self, tmp_path, *extra):
        mdp = _write_json(tmp_path / "mdp.json", mdp_mod.to_json_dict(k_labelled_mdp(31)))
        dra = _write_json(tmp_path / "dra.json", dra_mod.to_json_dict(k_tracking_dra()))
        return main(["synthesize", "--mdp", mdp, "--dra", dra, "--pi", "pi", *extra])

    def test_exit_two_with_warning(self, tmp_path, capsys):
        assert self._run(tmp_path) == 2
        out = capsys.readouterr().out
        assert "lambda=5.931406" in out and "[notOptimal," in out
        assert "warning: result is sub-optimal" in out

    def test_retries_exit_zero(self, tmp_path, capsys):
        assert self._run(tmp_path, "--retries", "5") == 0
        out = capsys.readouterr().out
        assert "lambda=0.871237" in out and "[optimal," in out and "warning" not in out


class TestOracleCommand:
    def test_two_amec(self, capsys):
        code = main(["oracle", "--mdp", TWO_AMEC, "--pi", "pi"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lambda" in out and "2" in out

    def test_k_filter(self, capsys):
        code = main(["oracle", "--mdp", PD_MDP, "--pi", "pickup",
                     "--k", "5"])
        assert code == 0
        assert "lambda" in capsys.readouterr().out

    @pytest.mark.parametrize("k", ["99", "-1"])
    def test_k_outside_state_set_exit_one(self, capsys, k):
        assert main(["oracle", "--mdp", PD_MDP, "--pi", "pickup", "--k", "5", k]) == 1
        assert f"error: k_states [{k}]" in capsys.readouterr().err


def _console_script(name: str) -> tuple[str, str, list[str]]:
    """The ``module``, ``function`` and source roots that ``pyproject.toml``
    declares for the console script ``name``."""
    with open(REPO / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    module, function = config["project"]["scripts"][name].split(":")
    where = config["tool"]["setuptools"]["packages"]["find"]["where"]
    return module, function, [str(REPO / root) for root in where]


def _run_entry_point(name: str, args: list[str], cwd: Path):
    """Run the declared entry point in a fresh interpreter, as the wrapper
    an installer generates for it does: import the function and pass its
    return value to ``sys.exit``."""
    module, function, roots = _console_script(name)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [*roots, env.get("PYTHONPATH")]))
    code = (f"import sys; sys.argv[0] = {name!r}; "
            f"from {module} import {function}; sys.exit({function}())")
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=env, capture_output=True, text=True)


class TestEntryPoint:
    def test_module_run_from_checkout(self, tmp_path, monkeypatch):
        """python -m cyclesynth, with src/ on PYTHONPATH and nothing
        installed, runs the same parser."""
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "cyclesynth", "--help"], cwd=tmp_path,
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == build_parser().format_help()

    def test_console_script(self, tmp_path):
        proc = _run_entry_point("cyclesynth", ["--help"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: cyclesynth")
        for command in ("synthesize", "simulate", "oracle"):
            assert command in proc.stdout

        # main's return code must reach the process exit status
        failed = _run_entry_point(
            "cyclesynth", ["synthesize", "--mdp", "/nonexistent.json",
                           "--dra", PD_DRA, "--pi", "pickup"], tmp_path)
        assert failed.returncode == 1
        assert "error:" in failed.stderr

        installed = shutil.which("cyclesynth")
        if installed is not None:
            script = subprocess.run([installed, "--help"], cwd=tmp_path,
                                    capture_output=True, text=True)
            assert script.returncode == 0, script.stderr
            assert script.stdout == proc.stdout
