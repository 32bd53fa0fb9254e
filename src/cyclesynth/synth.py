"""End-to-end synthesis: product construction, accepting-component
analysis, per-component reach + per-cycle policy iteration, and the
stitched policy attaining the minimum gain over reachable components.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from random import Random

from . import acpc, amec as amec_mod
from .acpc import CycleProblem, PolicyIterationStatus
from .dra import Dra
from .errors import NoReachableAmec, NotReachableAlmostSurely
from .mdp import LabeledMdp, StationaryPolicy
from .product import ExecutablePolicy, ProductMdp, build_product, project_policy


@dataclass(frozen=True)
class AmecSolution:
    amec_index: int
    lam: float
    status: PolicyIterationStatus
    iterations: int
    interior_policy: StationaryPolicy  # on component-local state indices
    states: frozenset[int]


@dataclass(frozen=True)
class SynthesisResult:
    product: ProductMdp
    winning_amec_index: int
    lambda_per_amec: tuple[AmecSolution, ...]
    stitched_policy: StationaryPolicy  # total on product states
    optimal_cost: float
    optimal: bool
    diagnostics: dict

    def executable(self) -> ExecutablePolicy:
        return project_policy(self.product, self.stitched_policy)

    def winning_states(self) -> frozenset[int]:
        return next(s.states for s in self.lambda_per_amec
                    if s.amec_index == self.winning_amec_index)

    def policy_json_dict(self) -> dict:
        return {
            "type": "product-stationary",
            "tracking": "dra",
            "choices": {self.product.state_name(i): self.product.mdp.actions[a]
                        for i, a in sorted(self.stitched_policy.choice.items())},
            "lambda": self.optimal_cost,
            "optimal": self.optimal,
            "amec": self.winning_amec_index,
        }


def amec_cycle_problem(product: ProductMdp, component: amec_mod.Amec,
                       ) -> tuple[CycleProblem, frozenset[int], dict[int, int], list[int]]:
    """Restrict the product to a component, renumbering its states to
    0..m-1; the rows keep their probability tuples.  Returns the cycle
    problem, the local K set and the local<->global index maps."""
    model = product.model
    ordered = sorted(component.states)
    local = {g: k for k, g in enumerate(ordered)}
    succ, prob, cost = {}, {}, {}
    for k, g in enumerate(ordered):
        for a in component.actions[g]:
            key = (k, a)
            succ[key] = tuple(local[j] for j in model.succ[(g, a)])
            prob[key] = model.prob[(g, a)]
            cost[key] = model.cost[(g, a)]
    sub = LabeledMdp(
        n_states=len(ordered),
        actions=model.actions,
        available=tuple(component.actions[g] for g in ordered),
        succ=succ,
        prob=prob,
        cost=cost,
        init=0,
        props=model.props,
        label=tuple(model.label[g] for g in ordered),
    )
    problem = CycleProblem(mdp=sub, pi_states=frozenset(local[g] for g in component.pi_states))
    k_local = frozenset(local[g] for g in component.k_states)
    return problem, k_local, local, ordered


def _solve_component(product: ProductMdp, idx: int, component, retries: int, tol: float):
    """Per-cycle solve inside one reachable component.  Returns
    (solution, reach policy, interior choices on product states) or the
    skip record of diagnostics["skipped"]."""
    try:
        reach = amec_mod.reach_policy(product, component)
    except NotReachableAlmostSurely:
        return {"amec": idx, "reason": "not reachable almost surely"}
    if not component.pi_states:
        return {"amec": idx, "reason": "no cycle states inside"}
    problem, k_local, local, ordered = amec_cycle_problem(product, component)
    result = acpc.policy_iteration(problem, k_local, tol=tol)
    rng = Random(idx)
    for _ in range(retries):
        if result.status is PolicyIterationStatus.OPTIMAL:
            break
        init = acpc.random_initial_policy(problem, k_local, rng)
        if init is None:
            continue
        retry = acpc.policy_iteration(problem, k_local, init=init, tol=tol)
        if (retry.status is PolicyIterationStatus.OPTIMAL
                or retry.gain_bias.lam < result.gain_bias.lam):
            result = retry
    solution = AmecSolution(
        amec_index=idx,
        lam=result.gain_bias.lam,
        status=result.status,
        iterations=result.iterations,
        interior_policy=result.policy,
        states=component.states,
    )
    interior = {g: result.policy.choice[local[g]] for g in ordered}
    return solution, reach, interior


def synthesize(mdp: LabeledMdp, dra: Dra, pi: str, retries: int = 0,
               jobs: int = 1, tol: float = acpc.EVAL_TOL) -> SynthesisResult:
    """Steps: build the product, find reachable accepting components,
    solve the per-cycle problem inside each, and stitch the reach policy
    with the interior policy of the component with the least gain.

    Components are independent; jobs > 1 solves them in worker threads.
    Raises NoReachableAmec when no policy satisfies the specification
    almost surely while completing cycles.
    """
    product = build_product(mdp, dra, pi)
    components = amec_mod.accepting_amecs(product)
    diagnostics = {
        "productStates": product.n_states,
        "rawProductStates": mdp.n_states * dra.n_states,
        "amecs": len(components),
        "amecSizes": [len(c.states) for c in components],
        "skipped": [],
    }
    if not components:
        raise NoReachableAmec("the product has no accepting maximal end component")

    # fold the outcomes as they arrive, keeping the reach policy (a
    # choice per product state) of the least (lambda, index) only
    solutions: list[AmecSolution] = []
    best = None
    with ExitStack() as stack:
        mapper = map
        if jobs > 1:  # importing concurrent.futures adds about 0.5 MB of peak RSS
            from concurrent.futures import ThreadPoolExecutor
            mapper = stack.enter_context(ThreadPoolExecutor(max_workers=jobs)).map
        for outcome in mapper(lambda item: _solve_component(product, *item, retries, tol),
                              enumerate(components)):
            if isinstance(outcome, dict):
                diagnostics["skipped"].append(outcome)
                continue
            solutions.append(outcome[0])
            if best is None or outcome[0].lam < best[0].lam:
                best = outcome
            del outcome  # a losing reach policy is freed before the next solve
    if best is None:
        raise NoReachableAmec(
            "no reachable accepting maximal end component admits finite "
            "per-cycle cost")

    winner, reach, interior = best
    diagnostics["iterations"] = {str(s.amec_index): s.iterations for s in solutions}
    return SynthesisResult(
        product=product,
        winning_amec_index=winner.amec_index,
        lambda_per_amec=tuple(solutions),
        stitched_policy=StationaryPolicy({**reach.choice, **interior}),
        optimal_cost=winner.lam,
        optimal=all(s.status is PolicyIterationStatus.OPTIMAL for s in solutions),
        diagnostics=diagnostics,
    )
