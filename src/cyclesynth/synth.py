"""End-to-end synthesis: product construction, accepting-component
analysis, per-cycle policy iteration inside each component, and the
stitched policy attaining the minimum gain over reachable components.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from random import Random

import numpy as np

from . import acpc, amec as amec_mod
from .acpc import CycleProblem, PolicyIterationStatus
from .dra import Dra
from .errors import InvariantViolation, NoReachableAmec, NotReachableAlmostSurely
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
    """Restrict the product to a component: gather the rows it keeps, in
    state order, with its states renumbered 0..m-1.  Returns the cycle
    problem, the local K set and the local<->global index maps."""
    model = product.model
    ordered = sorted(component.states)
    states, rows = np.array(ordered, dtype=np.int64), np.array(component.rows, dtype=np.int64)
    sub = model.take(np.append(np.searchsorted(rows, model.row_ptr[states]), len(rows)), rows,
                     states.searchsorted, [model.label[g] for g in ordered], model.props)
    local = {g: k for k, g in enumerate(ordered)}
    problem = CycleProblem(mdp=sub, pi_states=frozenset(local[g] for g in component.pi_states))
    k_local = frozenset(local[g] for g in component.k_states)
    return problem, k_local, local, ordered


def _solve_component(product: ProductMdp, idx: int, component, retries: int, tol: float):
    """Per-cycle solve inside one component with cycle states.  Returns
    the solution and its interior choices on product states."""
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
    return solution, {g: result.policy.choice[local[g]] for g in ordered}


def synthesize(mdp: LabeledMdp, dra: Dra, pi: str, retries: int = 0,
               jobs: int = 1, tol: float = acpc.EVAL_TOL) -> SynthesisResult:
    """Build the product, find its accepting components, solve the
    per-cycle problem inside each (in worker threads when jobs > 1), then
    reach-check them in (lambda, index) order and stitch the first one
    reached almost surely to its reach policy.  lambda_per_amec holds that
    winner and the components after it, which are never reach-checked.
    Raises InvariantViolation when validate(mdp) reports violations, and
    NoReachableAmec when no component with cycle states is reached.
    """
    if retries < 0:
        raise ValueError(f"retries must be nonnegative, got {retries}")
    if mdp.violations:
        raise InvariantViolation("; ".join(mdp.violations))
    product = build_product(mdp, dra, pi)
    components = amec_mod.accepting_amecs(product)
    if not components:
        raise NoReachableAmec("the product has no accepting maximal end component")
    skipped = [{"amec": idx, "reason": "no cycle states inside"}
               for idx, c in enumerate(components) if not c.pi_states]
    with ExitStack() as stack:
        mapper = map
        if jobs > 1:  # importing concurrent.futures adds about 0.5 MB of peak RSS
            from concurrent.futures import ThreadPoolExecutor
            mapper = stack.enter_context(ThreadPoolExecutor(max_workers=jobs)).map
        solved = sorted(
            mapper(lambda item: _solve_component(product, *item, retries, tol),
                   [(idx, c) for idx, c in enumerate(components) if c.pi_states]),
            key=lambda out: (out[0].lam, out[0].amec_index))
    for rank, (winner, interior) in enumerate(solved):
        try:
            reach = amec_mod.reach_policy(product, components[winner.amec_index])
            break
        except NotReachableAlmostSurely:
            skipped.append({"amec": winner.amec_index, "reason": "not reachable almost surely"})
    else:
        raise NoReachableAmec(
            "no reachable accepting maximal end component admits finite "
            "per-cycle cost")

    # every component before the winner was shown unreachable
    solutions = sorted((s for s, _ in solved[rank:]), key=lambda s: s.amec_index)
    diagnostics = {
        "productStates": product.n_states,
        "rawProductStates": mdp.n_states * dra.n_states,
        "amecs": len(components),
        "amecSizes": [len(c.states) for c in components],
        "skipped": sorted(skipped, key=lambda skip: skip["amec"]),
        "iterations": {str(s.amec_index): s.iterations for s in solutions},
    }
    return SynthesisResult(
        product=product,
        winning_amec_index=winner.amec_index,
        lambda_per_amec=tuple(solutions),
        stitched_policy=StationaryPolicy({**reach.choice, **interior}),
        optimal_cost=winner.lam,
        optimal=all(s.status is PolicyIterationStatus.OPTIMAL for s in solutions),
        diagnostics=diagnostics,
    )
