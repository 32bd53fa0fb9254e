"""End-to-end synthesis: product construction, accepting-component
analysis, per-cycle policy iteration inside every component (one loop
over their disjoint union), and the stitched policy attaining the
minimum gain over reachable components.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

import numpy as np

from . import acpc, amec as amec_mod
from .acpc import CycleProblem, PolicyIterationStatus
from .dra import Dra
from .errors import InvariantViolation, NoReachableAmec, NotReachableAlmostSurely
from .mdp import LabeledMdp, StationaryPolicy
from .product import ExecutablePolicy, ProductMdp, build_product, project_policy

# Components are solved in unions of at most this many states, each union
# in one policy-iteration loop.  A union spreads the per-call numpy work
# over its components, but a larger one keeps more Python objects alive at
# once, and the garbage collector's passes over them grow: on rooms 2000
# (2000 components of 35 states) unions of 20, 57, 200 and 2000
# components took 3.1, 2.6-3.1, 3.5 and 4.9 s (2-core x86-64 host)
UNION_STATES = 2048


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
                        for i, a in enumerate(self.stitched_policy.choice)},
            "lambda": self.optimal_cost,
            "optimal": self.optimal,
            "amec": self.winning_amec_index,
        }


def amec_cycle_problem(product: ProductMdp, component: amec_mod.Amec,
                       ) -> tuple[CycleProblem, frozenset[int], dict[int, int], list[int]]:
    """Restrict the product to a component: gather the rows it keeps, in
    state order, with its states renumbered 0..m-1.  Returns the cycle
    problem, the local K set and the local<->global index maps."""
    problem, k_local, (ordered,) = union_cycle_problem(product, [component])
    return problem, k_local, {g: k for k, g in enumerate(ordered)}, ordered


def union_cycle_problem(product: ProductMdp, components):
    """Restrict the product to the disjoint union of components with
    cycle states: one gather of the rows they keep, component after
    component and in state order within each, so that component b is
    block b of the cycle problem and its states are numbered as its
    problem alone would number them.  Returns the cycle problem, the local
    K set and each component's states in local order."""
    model = product.model
    ordered = [sorted(c.states) for c in components]
    states = np.array([g for states in ordered for g in states], dtype=np.int64)
    rows = np.array([r for c in components for r in c.rows], dtype=np.int64)
    local = np.zeros(product.n_states, dtype=np.int64)
    local[states] = np.arange(len(states))
    row_ptr = np.concatenate(([0], np.cumsum(np.bincount(local[model.row_state[rows]],
                                                         minlength=len(states)))))
    sub = model.take(row_ptr, rows, local.__getitem__, [model.label[g] for g in states.tolist()],
                     model.props)
    starts = np.cumsum([0, *map(len, ordered[:-1])]).tolist()
    problem = CycleProblem(mdp=sub, pi_states=frozenset(local[[g for c in components
                                                               for g in c.pi_states]].tolist()),
                           starts=tuple(starts))
    k_local = frozenset(local[[g for c in components for g in c.k_states]].tolist())
    return problem, k_local, ordered


def _unions(solvable):
    """The (index, component) pairs by width, their number of cycle
    states, in index order within a width: in runs of at most UNION_STATES
    states, or of one larger component."""
    batch, size = [], 0
    for item in sorted(solvable, key=lambda item: len(item[1].pi_states)):
        if batch and (size + len(item[1].states) > UNION_STATES
                      or len(item[1].pi_states) != len(batch[0][1].pi_states)):
            yield batch
            batch, size = [], 0
        batch.append(item)
        size += len(item[1].states)
    if batch:
        yield batch


def _retried(product: ProductMdp, idx: int, component, result, retries: int, tol: float):
    """The result of policy iteration inside component idx, or a better
    one from up to `retries` restarts at random initial policies drawn
    with Random(idx) while it is not optimal."""
    if result.status is PolicyIterationStatus.OPTIMAL or not retries:
        return result
    problem, k_local, _local, _ordered = amec_cycle_problem(product, component)
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
    return result


def synthesize(mdp: LabeledMdp, dra: Dra, pi: str, retries: int = 0,
               jobs: int = 1, tol: float = acpc.EVAL_TOL) -> SynthesisResult:
    """Build the product, find its accepting components, solve the
    per-cycle problem inside every component with cycle states in one
    policy-iteration loop over their disjoint union (one loop per
    UNION_STATES states), then reach-check them in (lambda, index) order
    and stitch the first one reached almost surely to its reach policy.
    lambda_per_amec holds that winner and the components after it, which
    are never reach-checked.  jobs has no effect; callers may still pass
    it.  Raises InvariantViolation when validate(mdp) reports violations,
    and NoReachableAmec when no component with cycle states is reached.
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
    solved = []
    for batch in _unions([(idx, c) for idx, c in enumerate(components) if c.pi_states]):
        problem, k_local, _ordered = union_cycle_problem(product, [c for _idx, c in batch])
        results = acpc.block_policy_iteration(problem, k_local, tol=tol)
        for (idx, component), result in zip(batch, results):
            result = _retried(product, idx, component, result, retries, tol)
            solved.append(AmecSolution(
                amec_index=idx,
                lam=result.gain_bias.lam,
                status=result.status,
                iterations=result.iterations,
                interior_policy=result.policy,
                states=component.states,
            ))
    solved.sort(key=lambda s: (s.lam, s.amec_index))
    for rank, winner in enumerate(solved):
        try:
            reach = amec_mod.reach_policy(product, components[winner.amec_index])
            break
        except NotReachableAlmostSurely:
            skipped.append({"amec": winner.amec_index, "reason": "not reachable almost surely"})
    else:
        raise NoReachableAmec(
            "no reachable accepting maximal end component admits finite "
            "per-cycle cost")

    stitched = np.array(reach.choice)
    stitched[sorted(winner.states)] = winner.interior_policy.choice  # in local order
    # every component before the winner was shown unreachable
    solutions = sorted(solved[rank:], key=lambda s: s.amec_index)
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
        stitched_policy=StationaryPolicy(stitched.tolist()),
        optimal_cost=winner.lam,
        optimal=all(s.status is PolicyIterationStatus.OPTIMAL for s in solutions),
        diagnostics=diagnostics,
    )
