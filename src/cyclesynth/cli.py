"""Command-line surface: synthesize / simulate / oracle.

Exit codes: 0 on success ("optimal" for synthesize), 2 when synthesis
only reached a sub-optimal policy, 1 on any hard error (unreadable
inputs, no reachable accepting component, model/policy mismatch).
The CYCLESYNTH_TOL environment variable overrides the default 1e-8
solver tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import acpc, dra as dra_mod, mdp as mdp_mod, sim
from .acpc import CycleProblem
from .errors import CycleSynthError, ModelMismatch
from .mdp import StationaryPolicy
from .product import build_product
from .synth import synthesize

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SUBOPTIMAL = 2


def _tolerance() -> float:
    raw = os.environ.get("CYCLESYNTH_TOL")
    if raw is None:
        return acpc.EVAL_TOL
    tol = float(raw)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("CYCLESYNTH_TOL must be a positive finite number")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclesynth",
        description="Synthesize and simulate minimum average-cost-per-cycle "
                    "policies for labeled MDPs under Rabin specifications.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize", help="synthesize an optimal policy")
    p_syn.add_argument("--mdp", required=True, help="labeled MDP JSON file")
    p_syn.add_argument("--dra", required=True,
                       help="automaton file (JSON or ltl2dstar v2 explicit)")
    p_syn.add_argument("--pi", required=True, help="optimizing proposition")
    p_syn.add_argument("--out", help="write the synthesized policy JSON here")
    p_syn.add_argument("--retries", type=int, default=0,
                       help="policy-iteration restarts with fresh random "
                            "initial policies when the first run is sub-optimal")

    p_sim = sub.add_parser("simulate", help="simulate a synthesized policy")
    p_sim.add_argument("--mdp", required=True)
    p_sim.add_argument("--dra", required=True)
    p_sim.add_argument("--policy", required=True, help="policy JSON from synthesize")
    p_sim.add_argument("--stages", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--pi", help="optimizing proposition (default: first "
                                    "labeled proposition in sorted order)")
    p_sim.add_argument("--out", help="write the simulation report JSON here")
    p_sim.add_argument("--csv", help="write per-cycle costs as CSV here")

    p_orc = sub.add_parser("oracle", help="brute-force reference for small instances")
    p_orc.add_argument("--mdp", required=True)
    p_orc.add_argument("--pi", required=True)
    p_orc.add_argument("--k", type=int, nargs="*", default=None,
                       help="states that must stay recurrent (acceptance filter)")
    return parser


def cmd_synthesize(args) -> int:
    mdp = mdp_mod.load(args.mdp)
    dra = dra_mod.load(args.dra)
    result = synthesize(mdp, dra, args.pi, retries=args.retries, tol=_tolerance())
    print(f"product states: {result.diagnostics['productStates']} "
          f"(raw {result.diagnostics['rawProductStates']})")
    print(f"accepting components: {result.diagnostics['amecs']}")
    for sol in result.lambda_per_amec:
        marker = " <- winner" if sol.amec_index == result.winning_amec_index else ""
        print(f"  amec {sol.amec_index}: lambda={sol.lam:.10g} "
              f"[{sol.status.value}, {sol.iterations} iterations]{marker}")
    for skip in result.diagnostics["skipped"]:
        print(f"  amec {skip['amec']}: skipped ({skip['reason']})")
    print(f"optimal cost J*(s0) = {result.optimal_cost:.10g}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result.policy_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"policy written to {args.out}")
    if not result.optimal:
        print("warning: result is sub-optimal (policy iteration returned "
              "'not optimal' for some component)")
        return EXIT_SUBOPTIMAL
    return EXIT_OK


def _state_pair(key: str) -> tuple[int, int]:
    """The (MDP state, automaton state) pair a policy key "s:q" names."""
    try:
        s_str, q_str = key.split(":")
        return int(s_str), int(q_str)
    except ValueError:
        raise ModelMismatch(f"malformed product state key {key!r}") from None


def _load_policy_on_product(product, path) -> tuple[StationaryPolicy, dict]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ModelMismatch("the policy document is not a JSON object")
    if data.get("type") != "product-stationary":
        raise ModelMismatch(f"unsupported policy type {data.get('type')!r}")
    if not isinstance(data.get("choices"), dict):
        raise ModelMismatch("the policy has no 'choices' object")
    act_idx = {a: k for k, a in enumerate(product.mdp.actions)}
    choice = [-1] * product.n_states
    for key, action in data["choices"].items():
        pair = _state_pair(key)
        if pair not in product.index_of:
            raise ModelMismatch(f"policy state {key} is not a reachable product state")
        if not isinstance(action, str) or action not in act_idx:
            raise ModelMismatch(f"policy action {action!r} is not an MDP action")
        i = product.index_of[pair]
        if choice[i] >= 0:
            first = next(k for k in data["choices"] if _state_pair(k) == pair)
            raise ModelMismatch(f"policy keys {first!r} and {key!r} name the same product state")
        a = act_idx[action]
        if a not in product.available(i):
            raise ModelMismatch(f"action {action!r} unavailable at product state {key}")
        choice[i] = a
    missing = [product.state_name(i) for i, a in enumerate(choice) if a < 0]
    if missing:
        raise ModelMismatch(f"policy undefined at product states {missing[:5]}")
    return StationaryPolicy(choice), data


def cmd_simulate(args) -> int:
    mdp = mdp_mod.load(args.mdp)
    dra = dra_mod.load(args.dra)
    pi = args.pi
    if pi is None:
        labeled = sorted(p for p in mdp.props if mdp.pi_states(p))
        if not labeled:
            raise ModelMismatch("the MDP has no labeled states; pass --pi")
        pi = labeled[0]
    product = build_product(mdp, dra, pi)
    policy, _ = _load_policy_on_product(product, args.policy)
    report = sim.simulate_product(product, policy, args.stages, args.seed,
                                  collect_cycle_costs=bool(args.csv))
    print(f"stages: {report.stages}  total cost: {report.total_cost:.10g}")
    print(f"cycles: {report.cycles}  empirical ACPC: {report.empirical_acpc:.10g}")
    for k, pair in enumerate(report.pair_counters):
        print(f"  pair {k}: L visits {pair.count_L}, K visits {pair.count_K}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("cycle,cost\n")
            for k, c in enumerate(report.cycle_costs, start=1):
                fh.write(f"{k},{c!r}\n")
    return EXIT_OK


def cmd_oracle(args) -> int:
    mdp = mdp_mod.load(args.mdp)
    pi_states = mdp.pi_states(args.pi)
    problem = CycleProblem(mdp=mdp, pi_states=pi_states)
    k_states = frozenset(args.k) if args.k else None
    policy, lam = acpc.brute_force_acpc(problem, k_states)
    print(f"brute-force optimal lambda: {lam:.10g}")
    print("policy: " + ", ".join(
        f"{i}->{mdp.actions[a]}" for i, a in enumerate(policy.choice)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "synthesize": cmd_synthesize,
        "simulate": cmd_simulate,
        "oracle": cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except CycleSynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
