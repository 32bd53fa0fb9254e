"""Tests of the benchmark's own code: seeded generators, the metric
schema and the span tracer."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from cyclebench import runner, trace, workloads
from cyclesynth import acpc, numerics, synth

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# every metric the benchmark promises, by name
NAMED_END_TO_END = {"setup_s", "synth_s", "sim_steps_per_s", "exec_steps_per_s", "peak_rss_mb"}
NAMED_PER_LAYER = {
    "numerics.solve_linear_s", "numerics.solve_linear_calls", "numerics.transient_inverse_s",
    "numerics.cesaro_limit_s", "numerics.deviation_matrix_s", "numerics.recurrent_classes_s",
    "numerics.recurrent_classes_calls", "numerics.dense_bytes",
    "acps.gain_bias_s",
    "acpc.pi_s", "acpc.pi_self_s", "acpc.evaluate_s", "acpc.evaluate_self_s",
    "acpc.evaluate_calls", "acpc.bellman_check_s", "acpc.optimal_ratio",
    "amec.accepting_s", "amec.components", "amec.largest_states", "amec.reach_set_s",
    "amec.reach_set_calls", "amec.reach_policy_self_s",
    "product.build_s", "product.states", "product.choices", "product.act_s",
    "synth.restrict_s", "synth.self_s", "synth.jobs2_s",
    "sim.product_s", "sim.executable_s", "sim.cycles",
    "mdp.load_s", "dra.load_s", "trace.overhead_s",
}

TINY = runner.Workload(problems=(("ring", 10), ("rooms", 2)), synth_share=0.5,
                       product_steps=2000, exec_steps=500)


def _all_problems():
    return sorted({p for wl in runner.WORKLOADS.values() for p in wl.problems})


def _structure(text: workloads.ProblemText):
    data = json.loads(text.mdp_json)
    return (len(data["states"]), data["actions"], data["available"],
            {key: [j for j, _p in entries] for key, entries in data["trans"].items()},
            sorted(data["cost"]), text.dra_json)


@pytest.mark.parametrize("problem", _all_problems())
def test_same_seed_gives_identical_inputs(problem):
    a = workloads.generate([problem], seed=7)
    b = workloads.generate([problem], seed=7)
    assert [(t.mdp_json, t.dra_json) for t in a] == [(t.mdp_json, t.dra_json) for t in b]


@pytest.mark.parametrize("problem", _all_problems())
def test_other_seed_keeps_structure(problem):
    (a,) = workloads.generate([problem], seed=1)
    (b,) = workloads.generate([problem], seed=2)
    assert a.mdp_json != b.mdp_json  # the seed does jitter costs
    assert _structure(a) == _structure(b)


def test_schema_lists_every_named_metric():
    assert set(runner.END_TO_END) == NAMED_END_TO_END
    assert set(runner.PER_LAYER) == NAMED_PER_LAYER
    spec = json.loads(BENCHMARK_JSON.read_text())
    declared_e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    declared_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared_e2e == runner.END_TO_END
    assert declared_layer == runner.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(runner.WORKLOADS)
    assert set(run.WORKLOAD_NAMES) == set(runner.WORKLOADS)


def test_runs_report_every_metric_and_pass_checks():
    values, tally, _detail = runner.measure(TINY, seed=3, seconds=0.01, expected=None)
    assert set(values) == set(runner.END_TO_END)
    assert tally.attempted > 0 and tally.failures == []

    values, tally, spans, _summary = runner.measure_traced(TINY, seed=3, expected=None)
    assert set(values) == set(runner.PER_LAYER)
    assert tally.attempted > 0 and tally.failures == []
    names = {s[trace.NAME] for s in spans}
    assert {"synth.synthesize", "acpc.evaluate", "numerics.solve_linear",
            "amec.reach_set", "product.act", "sim.executable"} <= names


def test_recorded_gain_mismatch_counts_as_failure():
    ring10 = runner.Workload(problems=(("ring", 10),), synth_share=0.5,
                             product_steps=1000, exec_steps=100)
    _values, tally, _detail = runner.measure(ring10, seed=0, seconds=0.0,
                                             expected={"ring10": 1.0})
    assert len(tally.failures) == 1 and "recorded" in tally.failures[0]


def test_tracer_restores_wrapped_functions():
    originals = (synth.synthesize, acpc.acpc_evaluate, numerics.solve_linear)
    with trace.Tracer() as tracer:
        assert synth.synthesize is not originals[0]
        assert tracer.spans == []
    assert (synth.synthesize, acpc.acpc_evaluate, numerics.solve_linear) == originals


def test_self_time_subtracts_children():
    spans = [["a.x", -1, 0.0, 10.0, 0], ["b.y", 0, 1.0, 4.0, 8], ["b.y", 0, 5.0, 6.0, 8],
             ["c.z", 1, 2.0, 3.0, 0]]
    summary = trace.summarize(spans)
    assert summary["a.x"]["self_s"] == pytest.approx(6.0)
    assert summary["b.y"] == pytest.approx({"calls": 2, "total_s": 4.0, "self_s": 3.0,
                                            "bytes": 16})
    assert trace.layer_self_times(summary) == pytest.approx({"a": 6.0, "b": 3.0, "c": 1.0})
