"""Measurement and output checks for one workload run.

An untraced run gives the end-to-end metrics; a traced run gives the
per-layer ones.  Outputs are checked outside the timed regions and every
operation whose output fails a check counts as failed.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from cyclesynth import acpc, amec, dra as dra_mod, mdp as mdp_mod, sim, synth

from . import trace
from .workloads import ProblemText, generate

EXPECTED_FILE = Path(__file__).with_name("expected.json")
DEFAULT_SEED = 0
LAMBDA_RTOL = 1e-9
ACPC_RTOL = 0.01
MIN_REPS = 3  # fewest synthesis rounds and simulation pairs a run measures
SETUP_REPS = 15

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "synth_s": ("s", "lower"),
    "sim_steps_per_s": ("steps/s", "higher"),
    "exec_steps_per_s": ("steps/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "numerics.solve_linear_s": ("s", "lower"),
    "numerics.solve_linear_calls": ("count", "lower"),
    "numerics.transient_inverse_s": ("s", "lower"),
    "numerics.cesaro_limit_s": ("s", "lower"),
    "numerics.deviation_matrix_s": ("s", "lower"),
    "numerics.recurrent_classes_s": ("s", "lower"),
    "numerics.recurrent_classes_calls": ("count", "lower"),
    "numerics.dense_bytes": ("B", "lower"),
    "acps.gain_bias_s": ("s", "lower"),
    "acpc.pi_s": ("s", "lower"),
    "acpc.pi_self_s": ("s", "lower"),
    "acpc.evaluate_s": ("s", "lower"),
    "acpc.evaluate_self_s": ("s", "lower"),
    "acpc.evaluate_calls": ("count", "lower"),
    "acpc.bellman_check_s": ("s", "lower"),
    "acpc.optimal_ratio": ("ratio", "higher"),
    "amec.accepting_s": ("s", "lower"),
    "amec.components": ("count", "lower"),
    "amec.largest_states": ("count", "lower"),
    "amec.reach_set_s": ("s", "lower"),
    "amec.reach_set_calls": ("count", "lower"),
    "amec.reach_policy_self_s": ("s", "lower"),
    "product.build_s": ("s", "lower"),
    "product.states": ("count", "lower"),
    "product.choices": ("count", "lower"),
    "product.act_s": ("s", "lower"),
    "synth.restrict_s": ("s", "lower"),
    "synth.self_s": ("s", "lower"),
    "synth.jobs2_s": ("s", "lower"),
    "sim.product_s": ("s", "lower"),
    "sim.executable_s": ("s", "lower"),
    "sim.cycles": ("count", "higher"),
    "mdp.load_s": ("s", "lower"),
    "dra.load_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


@dataclass(frozen=True)
class Workload:
    """What one workload runs.  synth_share is the part of the run's
    seconds given to repeated synthesis rounds; the rest repeats one
    simulate_product run of product_steps and one simulate_executable
    run of exec_steps on the controller of the last problem.  Short
    simulation runs give many samples for the medians on a shared host."""

    problems: tuple[tuple[str, int], ...]
    synth_share: float
    product_steps: int
    exec_steps: int
    check_acpc: bool = False


WORKLOADS = {
    # one large component: policy iteration and dense numerics dominate
    "ring_pi": Workload(problems=(("ring", 200), ("ring", 400), ("ring", 600)),
                        synth_share=0.8, product_steps=100_000, exec_steps=10_000),
    # twenty small components: almost-sure reach dominates, many small solves
    "rooms": Workload(problems=(("rooms", 20),),
                      synth_share=0.8, product_steps=100_000, exec_steps=10_000),
    # short synthesis, long simulation: bypasses policy iteration and amec
    "sim_long": Workload(problems=(("ring", 100),), synth_share=0.1,
                         product_steps=200_000, exec_steps=20_000, check_acpc=True),
}


class Tally:
    """Operations attempted and the checks they failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, op: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failures.append(f"{op}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Loaded:
    text: ProblemText
    mdp: object
    dra: object


def expected_lambdas(name: str, seed: int) -> dict[str, float] | None:
    """Gains recorded for the default seed, or None for other seeds."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(EXPECTED_FILE.read_text()).get(name)


def load(text: ProblemText) -> Loaded:
    return Loaded(text, mdp_mod.from_json_dict(json.loads(text.mdp_json)),
                  dra_mod.parse_json(text.dra_json))


def setup(wl: Workload, seed: int) -> tuple[float, list[Loaded]]:
    """Median seconds to generate and load the inputs, over SETUP_REPS."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        loaded = [load(t) for t in generate(wl.problems, seed)]
        times.append(time.perf_counter() - t0)
    return statistics.median(times), loaded


def synth_round(loaded: list[Loaded], jobs: int = 1):
    """One synthesize call per problem: (seconds, result) each."""
    out = []
    for item in loaded:
        t0 = time.perf_counter()
        result = synth.synthesize(item.mdp, item.dra, item.text.pi, jobs=jobs)
        out.append((time.perf_counter() - t0, result))
    return out


def check_result(result, expected: float | None) -> list[str]:
    """Optimality flag, a fresh evaluation of the winning interior policy
    against the per-cycle Bellman condition, and the recorded gain."""
    bad = []
    lam = result.optimal_cost
    if not result.optimal:
        bad.append("result.optimal is false")
    component = amec.accepting_amecs(result.product)[result.winning_amec_index]
    problem, _k, _local, _ordered = synth.amec_cycle_problem(result.product, component)
    winner = next(s for s in result.lambda_per_amec if s.amec_index == result.winning_amec_index)
    gb = acpc.acpc_evaluate(problem, winner.interior_policy)
    if gb.gain_spread() > acpc.EVAL_TOL:
        bad.append(f"winning gain not constant (spread {gb.gain_spread():.3e})")
    if abs(gb.lam - lam) > acpc.EVAL_TOL * max(1.0, abs(lam)):
        bad.append(f"fresh evaluation gives {gb.lam!r}, result says {lam!r}")
    if not acpc.acpc_optimality_check(problem, gb.lam, gb.h):
        bad.append("winning component fails the per-cycle Bellman check")
    if expected is not None and abs(lam - expected) > LAMBDA_RTOL * max(1.0, abs(expected)):
        bad.append(f"lambda {lam!r} != recorded {expected!r}")
    return bad


def same_answer(result, reference) -> list[str]:
    bad = []
    ref = reference.optimal_cost
    if abs(result.optimal_cost - ref) > LAMBDA_RTOL * max(1.0, abs(ref)):
        bad.append(f"lambda {result.optimal_cost!r} != {ref!r} of the reference run")
    if result.stitched_policy.choice != reference.stitched_policy.choice:
        bad.append("stitched policy differs from the reference run")
    return bad


def check_round(outcome, loaded, first, tally: Tally, expected) -> None:
    """The first round is checked in full, later ones against the first."""
    for k, (_dt, result) in enumerate(outcome):
        name = loaded[k].text.name
        if first is None:
            bad = check_result(result, expected.get(name) if expected else None)
        else:
            bad = same_answer(result, first[k])
        tally.record(f"synthesize {name}", bad)


def sim_unit(result, pi: str, wl: Workload, seed: int, tally: Tally):
    """One simulate_product and one simulate_executable run, both timed.
    The executable run must match a product run on the same seed."""
    product, policy = result.product, result.stitched_policy
    t0 = time.perf_counter()
    rep = sim.simulate_product(product, policy, wl.product_steps, seed)
    t_prod = time.perf_counter() - t0
    tally.record("simulate_product", [] if rep.cycles > 1 else ["no cycle completed"])

    controller = result.executable()
    pi_states = product.mdp.pi_states(pi)
    t0 = time.perf_counter()
    ex = sim.simulate_executable(product.mdp, controller, wl.exec_steps, seed, pi_states)
    t_exec = time.perf_counter() - t0
    ref = sim.simulate_product(product, policy, wl.exec_steps, seed)
    bad = []
    if (ex.total_cost, ex.cycles) != (ref.total_cost, ref.cycles):
        bad.append(f"executable run ({ex.total_cost!r}, {ex.cycles}) != product run "
                   f"({ref.total_cost!r}, {ref.cycles}) on the same seed")
    tally.record("simulate_executable", bad)
    return t_prod, t_exec, rep


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl: Workload, seed: int, seconds: float, expected: dict | None):
    """Untraced run: end-to-end metrics and the operation tally.

    Synthesis rounds and simulation pairs alternate, keeping synthesis at
    synth_share of the measured time, so that both sample the whole run
    rather than one stretch of a shared host.  The run stops
    when both have MIN_REPS samples and the next step would overrun
    `seconds`.  synth_s sums per-problem medians; the throughputs are
    steps over seconds summed across all pairs, which varies smoothly
    with the share of the run a host spends in a faster clock state."""
    tally = Tally()
    setup_s, loaded = setup(wl, seed)
    pi = loaded[-1].text.pi
    times: list[list[float]] = [[] for _ in loaded]
    first = None
    pairs = 0
    prod_s = exec_s = 0.0
    pooled_cost, pooled_cycles = 0.0, 0
    synth_spent = 0.0
    while True:
        rounds = len(times[0])
        sim_spent = prod_s + exec_s
        total = synth_spent + sim_spent
        synth_next = synth_spent <= wl.synth_share * total
        if rounds >= MIN_REPS and pairs >= MIN_REPS:
            step = synth_spent / rounds if synth_next else sim_spent / pairs
            if total + step > seconds:
                break
        elif total >= seconds:
            synth_next = rounds < MIN_REPS
        if synth_next:
            outcome = synth_round(loaded)
            check_round(outcome, loaded, first, tally, expected)
            first = first or [result for _dt, result in outcome]
            for k, (dt, _r) in enumerate(outcome):
                times[k].append(dt)
            synth_spent += sum(dt for dt, _r in outcome)
        else:
            t_prod, t_exec, rep = sim_unit(first[-1], pi, wl, seed * 1000 + pairs, tally)
            pairs += 1
            prod_s += t_prod
            exec_s += t_exec
            pooled_cost += rep.total_cost
            pooled_cycles += rep.cycles
    if wl.check_acpc:
        lam = first[-1].optimal_cost
        acpc_hat = pooled_cost / pooled_cycles
        bad = [] if abs(acpc_hat - lam) <= ACPC_RTOL * lam else [
            f"empirical ACPC {acpc_hat:.6g} not within 1% of {lam:.6g}"]
        tally.record(f"empirical ACPC over {pairs} product runs", bad)
    metrics = {
        "setup_s": setup_s,
        "synth_s": sum(statistics.median(t) for t in times),
        "sim_steps_per_s": pairs * wl.product_steps / prod_s,
        "exec_steps_per_s": pairs * wl.exec_steps / exec_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {"synth_round_s": [round(sum(r), 4) for r in zip(*times)],
              "sim_pairs": pairs,
              "lambda": {item.text.name: r.optimal_cost for item, r in zip(loaded, first)}}
    return metrics, tally, detail


def measure_traced(wl: Workload, seed: int, expected: dict | None):
    """Traced run: one untraced and one traced synthesis round (same
    answers required; their difference is the tracing overhead), one
    untraced jobs=2 round, and one traced simulation unit."""
    tally = Tally()
    tracer = trace.Tracer()
    with tracer:
        tracer.enabled = True
        loaded = [load(t) for t in generate(wl.problems, seed)]
        tracer.enabled = False

        plain = synth_round(loaded)
        check_round(plain, loaded, None, tally, expected)

        tracer.enabled = True
        traced = synth_round(loaded)
        tracer.enabled = False
        for item, (_dt, result), (_d, ref) in zip(loaded, traced, plain):
            tally.record(f"traced synthesize {item.text.name}", same_answer(result, ref))

        # worker threads would interleave spans, so jobs=2 runs untraced
        jobs2 = synth_round(loaded, jobs=2)
        for item, (_dt, result), (_d, ref) in zip(loaded, jobs2, plain):
            tally.record(f"synthesize jobs=2 {item.text.name}", same_answer(result, ref))

        result = plain[-1][1]
        tracer.enabled = True
        _tp, _te, rep = sim_unit(result, loaded[-1].text.pi, wl, seed * 1000, tally)
        tracer.enabled = False

    summary = trace.summarize(tracer.spans)
    results = [r for _dt, r in plain]
    metrics = layer_metrics(summary, results, rep)
    metrics["synth.jobs2_s"] = sum(dt for dt, _r in jobs2)
    metrics["trace.overhead_s"] = sum(dt for dt, _r in traced) - sum(dt for dt, _r in plain)
    return metrics, tally, tracer.spans, summary


def layer_metrics(summary, results, sim_report) -> dict[str, float]:
    def total(span):
        return summary.get(span, {}).get("total_s", 0.0)

    def self_s(span):
        return summary.get(span, {}).get("self_s", 0.0)

    def calls(span):
        return summary.get(span, {}).get("calls", 0)

    solved = [s for r in results for s in r.lambda_per_amec]
    return {
        "numerics.solve_linear_s": total("numerics.solve_linear"),
        "numerics.solve_linear_calls": calls("numerics.solve_linear"),
        "numerics.transient_inverse_s": total("numerics.transient_inverse"),
        "numerics.cesaro_limit_s": total("numerics.cesaro_limit"),
        "numerics.deviation_matrix_s": total("numerics.deviation_matrix"),
        "numerics.recurrent_classes_s": total("numerics.recurrent_classes"),
        "numerics.recurrent_classes_calls": calls("numerics.recurrent_classes"),
        "numerics.dense_bytes": sum(row["bytes"] for span, row in summary.items()
                                    if span.startswith("numerics.")),
        "acps.gain_bias_s": total("acps.gain_bias"),
        "acpc.pi_s": total("acpc.pi"),
        "acpc.pi_self_s": self_s("acpc.pi"),
        "acpc.evaluate_s": total("acpc.evaluate"),
        "acpc.evaluate_self_s": self_s("acpc.evaluate"),
        "acpc.evaluate_calls": calls("acpc.evaluate"),
        "acpc.bellman_check_s": total("acpc.bellman_check"),
        "acpc.optimal_ratio": (sum(s.status is acpc.PolicyIterationStatus.OPTIMAL for s in solved)
                               / len(solved)),
        "amec.accepting_s": total("amec.accepting"),
        "amec.components": sum(r.diagnostics["amecs"] for r in results),
        "amec.largest_states": max(max(r.diagnostics["amecSizes"]) for r in results),
        "amec.reach_set_s": total("amec.reach_set"),
        "amec.reach_set_calls": calls("amec.reach_set"),
        "amec.reach_policy_self_s": self_s("amec.reach_policy"),
        "product.build_s": total("product.build"),
        "product.states": sum(r.product.n_states for r in results),
        "product.choices": sum(len(r.product.available(i))
                               for r in results for i in r.product.states),
        "product.act_s": total("product.act"),
        "synth.restrict_s": total("synth.restrict"),
        "synth.self_s": self_s("synth.synthesize"),
        "sim.product_s": total("sim.product"),
        "sim.executable_s": total("sim.executable"),
        "sim.cycles": sim_report.cycles,
        "mdp.load_s": total("mdp.load"),
        "dra.load_s": total("dra.load"),
    }
