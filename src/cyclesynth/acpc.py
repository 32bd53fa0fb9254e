"""Average-cost-per-cycle solver: first-return reduction to the
per-stage problem, gain-bias evaluation, the per-cycle Bellman
optimality condition and the policy-iteration algorithm.

A cycle is completed on each arrival into the cycle set (the states
labeled with the optimizing proposition).  States inside the cycle set
use the same formulas: a visit completes a cycle even when starting
from inside the set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import acps, numerics
from .errors import (
    ImproperPolicy,
    NonConvergence,
    NotCommunicating,
    NumericalFailure,
    PolicyIncomplete,
    TooLarge,
)
from .mdp import LabeledMdp, StationaryPolicy, is_communicating, is_proper

EVAL_TOL = 1e-8
TIE_TOL = 1e-9
BRUTE_FORCE_CAP = 10 ** 6


@dataclass(frozen=True)
class CycleProblem:
    """An MDP together with the nonempty set of cycle-completing states."""

    mdp: LabeledMdp
    pi_states: frozenset[int]

    def __post_init__(self):
        if not self.pi_states:
            raise ValueError("pi_states must be nonempty")
        if not self.pi_states <= set(self.mdp.states):
            raise ValueError("pi_states must be a subset of the state set")

    def pi_mask(self) -> np.ndarray:
        mask = np.zeros(self.mdp.n_states, dtype=bool)
        mask[list(self.pi_states)] = True
        return mask


@dataclass(frozen=True)
class SplitKernel:
    """P_mu split by successor membership in the cycle set: left keeps
    columns inside the set, right keeps the complement."""

    left: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class AcpcGainBias:
    """Per-cycle gain J, bias h and auxiliary v of a proper policy.
    lam is the scalar gain, meaningful when J is constant across states."""

    J: np.ndarray
    h: np.ndarray
    v: np.ndarray

    @property
    def lam(self) -> float:
        return float(np.max(self.J))

    def gain_spread(self) -> float:
        return float(np.max(self.J) - np.min(self.J))


class PolicyIterationStatus(Enum):
    OPTIMAL = "optimal"
    NOT_OPTIMAL = "notOptimal"


@dataclass(frozen=True)
class PolicyIterationResult:
    policy: StationaryPolicy
    gain_bias: AcpcGainBias
    status: PolicyIterationStatus
    iterations: int


def split_kernel(problem: CycleProblem, mu: StationaryPolicy) -> SplitKernel:
    if not mu.defined_on(problem.mdp.states):
        raise PolicyIncomplete("policy must be total")
    P, _ = problem.mdp.policy_matrices(mu)
    mask = problem.pi_mask()
    left = P * mask[np.newaxis, :]
    right = P * (~mask)[np.newaxis, :]
    return SplitKernel(left=left, right=right)


def _first_return(problem: CycleProblem, mu: StationaryPolicy):
    """One LU solve of (I - R) X = [P_pi, g], where P_pi = P_mu[:, pi] and
    R is P_mu with the cycle-set columns pi zeroed in place, so P_mu is
    never held twice.  Returns (R, P_pi, g, pi, X): X[:, :-1] is the
    first-return kernel on the columns pi, X[:, -1] the cycle cost."""
    _require_proper(problem, mu)
    R, g = problem.mdp.policy_matrices(mu)
    pi = np.flatnonzero(problem.pi_mask())
    P_pi = R[:, pi]  # advanced indexing copies
    R[:, pi] = 0.0
    X = numerics.transient_inverse(R, np.column_stack([P_pi, g]))
    return R, P_pi, g, pi, X


def first_return_kernel(problem: CycleProblem, mu: StationaryPolicy) -> np.ndarray:
    """First-entry distribution over the cycle set: (I - right)^{-1} left."""
    _, _, _, pi, X = _first_return(problem, mu)
    tilde = np.zeros((problem.mdp.n_states, problem.mdp.n_states))
    tilde[:, pi] = X[:, :-1]
    if np.max(np.abs(tilde.sum(axis=1) - 1.0)) > EVAL_TOL:
        raise NumericalFailure("first-return kernel rows do not sum to 1")
    return tilde


def cycle_cost(problem: CycleProblem, mu: StationaryPolicy) -> np.ndarray:
    """Expected cost to the next entry into the cycle set from each state."""
    *_, X = _first_return(problem, mu)
    return X[:, -1]


def acpc_evaluate(problem: CycleProblem, mu: StationaryPolicy,
                  tol: float = EVAL_TOL) -> AcpcGainBias:
    """Gain-bias of a proper policy through the first-return chain.

    The per-stage problem is solved on the first-return chain restricted
    to the cycle set, P~_pp with costs g~_p: J_p = P~*_pp g~_p, and h_p,
    v_p = -H~ h_p from two solves with I - P~_pp + P~*_pp.  Every other
    state's values follow from its first entry into the cycle set:
    J = P~ J_p, h = g~ - J + P~ h_p, v = -h + P~ v_p.  The result must
    satisfy the three per-cycle defining equations against P_mu within
    tol * max(1, |J|_inf); NumericalFailure otherwise.  P_mu x is formed
    as R x + P_pi x[pi].
    """
    R, P_pi, g, pi, X = _first_return(problem, mu)
    tilde_P, tilde_g = X[:, :-1], X[:, -1]
    P_pp = tilde_P[pi]
    star = numerics.cesaro_limit(P_pp)
    fundamental = np.eye(len(pi)) - P_pp + star
    J_p = star @ tilde_g[pi]
    h_p = numerics.solve_linear(fundamental, tilde_g[pi] - J_p, tol=tol).x
    v_p = numerics.solve_linear(fundamental, -h_p, tol=tol).x
    J = tilde_P @ J_p
    h = tilde_g - J + tilde_P @ h_p
    v = -h + tilde_P @ v_p

    def P(x):
        return R @ x + P_pi @ x[pi]

    residual = max(float(np.max(np.abs(P(J) - J))),
                   float(np.max(np.abs(J + h - g - R @ J - P(h)))),
                   float(np.max(np.abs(h + v - R @ h - P(v)))))
    if residual > _gain_scaled(tol, J):
        raise NumericalFailure(
            f"per-cycle defining equations fail with residual {residual:.3e}")
    return AcpcGainBias(J=J, h=h, v=v)


def acpc_evaluate_direct(problem: CycleProblem, mu: StationaryPolicy,
                         tol: float = EVAL_TOL) -> AcpcGainBias:
    """Reference gain-bias of a proper policy, computed two independent
    ways: (a) map the policy to the per-stage problem over the full
    first-return chain and evaluate there; (b) solve the 3n-equation
    linear system in (J, h, v) directly, taking its minimum-norm
    solution.  The gains must agree within tol * max(1, |J|_inf).

    An oracle for acpc_evaluate; the dense 3n x 3n least-squares solve
    makes it far too slow for the policy-iteration loop.
    """
    _require_proper(problem, mu)
    kern = split_kernel(problem, mu)
    P, g = problem.mdp.policy_matrices(mu)
    n = problem.mdp.n_states

    # path (a): mapped per-stage problem
    inv = numerics.transient_inverse(kern.right)
    tilde_P = inv @ kern.left
    tilde_g = inv @ g
    mapped = acps.acps_gain_bias(tilde_P, tilde_g)

    # path (b): direct 3n x 3n system
    I = np.eye(n)
    zero = np.zeros((n, n))
    A = np.block([
        [I - P, zero, zero],
        [I - kern.right, I - P, zero],
        [zero, I - kern.right, I - P],
    ])
    b = np.concatenate([np.zeros(n), g, np.zeros(n)])
    sol = numerics.solve_linear(A, b, tol=tol)
    J = sol.x[:n]
    h = sol.x[n:2 * n]
    v = sol.x[2 * n:]

    if np.max(np.abs(J - mapped.J)) > _gain_scaled(tol, J):
        raise NumericalFailure(
            "gain mismatch between the mapped per-stage evaluation and the "
            f"direct linear system: {np.max(np.abs(J - mapped.J)):.3e}")
    return AcpcGainBias(J=J, h=h, v=v)


def _gain_scaled(tol: float, J) -> float:
    """Absolute tolerance for values in units of the gain: rounding grows
    with the size of the per-cycle cost."""
    return tol * max(1.0, float(np.max(np.abs(J))))


def acpc_optimality_check(problem: CycleProblem, lam: float, h,
                          tol: float = EVAL_TOL) -> bool:
    """Per-cycle Bellman condition: for every state,
    lam + h(i) = min_u [g(i,u) + sum_j P(i,u,j) h(j)
                        + lam * sum_{j not in cycle set} P(i,u,j)],
    within tol * max(1, |lam|).
    """
    mdp = problem.mdp
    h = np.asarray(h, dtype=float)
    # h(j) plus lam for a successor outside the cycle set
    target = (h + lam * ~problem.pi_mask()).tolist()
    scaled_tol = _gain_scaled(tol, lam)
    for i in mdp.states:
        best = min(mdp.cost[(i, a)] + _expect(mdp, (i, a), target) for a in mdp.available[i])
        if abs(lam + h[i] - best) > scaled_tol:
            return False
    return True


def _expect(mdp: LabeledMdp, key, values: list[float]) -> float:
    """sum_j P(i, u, j) values[j] over the sparse row key = (i, u)."""
    return sum(p * values[j] for j, p in zip(mdp.succ[key], mdp.prob[key]))


# ---------------------------------------------------------------------------
# policy iteration
# ---------------------------------------------------------------------------

def policy_iteration(problem: CycleProblem, k_states, init: StationaryPolicy | None = None,
                     tol: float = EVAL_TOL) -> PolicyIterationResult:
    """Per-cycle policy iteration over a communicating problem.

    Returns "optimal" when the final gain-bias passes the Bellman check
    and the K set intersects every recurrent class of the final policy;
    "notOptimal" with the best policy found when the constrained policy
    selection fails.
    """
    mdp = problem.mdp
    k_states = frozenset(k_states)
    if not k_states:
        raise ValueError("k_states must be nonempty")
    if not is_communicating(mdp):
        raise NotCommunicating("per-cycle policy iteration requires a communicating MDP")

    if init is not None:
        choice = _as_choice(mdp, init)
        classes = _chain_classes(mdp, choice)
        proper_ok, _, _ = _policy_conditions(problem, classes, k_states)
        if not proper_ok:
            raise ImproperPolicy("the supplied initial policy is improper")
    else:
        choice, classes = _initial_policy(problem, k_states)

    out_mask = ~problem.pi_mask()
    cap = max(10 * mdp.n_states, 20)
    for iteration in range(cap):
        mu = StationaryPolicy(dict(enumerate(choice)))
        gb = acpc_evaluate(problem, mu, tol=tol)
        _, k_every, _ = _policy_conditions(problem, classes, k_states)
        if (gb.gain_spread() <= _gain_scaled(tol, gb.J) and k_every
                and acpc_optimality_check(problem, gb.lam, gb.h, tol=tol)):
            return PolicyIterationResult(mu, gb, PolicyIterationStatus.OPTIMAL, iteration)

        J = gb.J.tolist()
        u_bar = _argmin_sets(mdp, lambda i, a: _expect(mdp, (i, a), J))
        if all(choice[i] in u_bar[i] for i in mdp.states):
            # h(j) plus J(j) for a successor outside the cycle set
            target = (gb.h + gb.J * out_mask).tolist()
            candidates = _argmin_sets(
                mdp, lambda i, a: mdp.cost[(i, a)] + _expect(mdp, (i, a), target),
                restrict=u_bar,
            )
        else:
            candidates = u_bar

        nxt = tuple(choice[i] if choice[i] in candidates[i] else min(candidates[i])
                    for i in mdp.states)
        selected = _constrained_select(problem, nxt, candidates, k_states)
        if selected is None or selected[0] == choice:
            mu = StationaryPolicy(dict(enumerate(choice)))
            return PolicyIterationResult(mu, gb, PolicyIterationStatus.NOT_OPTIMAL, iteration)
        choice, classes = selected
    raise NonConvergence(f"policy iteration exceeded {cap} iterations")


def _argmin_sets(mdp: LabeledMdp, value, restrict=None) -> list[set[int]]:
    """Per-state argmin action sets with a small numeric tie tolerance."""
    out = []
    for i in mdp.states:
        acts = restrict[i] if restrict is not None else mdp.available[i]
        vals = {a: value(i, a) for a in acts}
        best = min(vals.values())
        out.append({a for a, val in vals.items() if val <= best + TIE_TOL * max(1.0, abs(best))})
    return out


def _as_choice(mdp: LabeledMdp, mu: StationaryPolicy) -> tuple[int, ...]:
    if not mu.defined_on(mdp.states):
        raise PolicyIncomplete("policy must be total on the problem states")
    return tuple(mu.choice[i] for i in mdp.states)


def _chain_classes(mdp: LabeledMdp, choice) -> list[list[int]]:
    classes, _ = numerics._bottom_classes([sorted(mdp.succ[(i, a)])
                                           for i, a in enumerate(choice)])
    return classes


def _policy_conditions(problem: CycleProblem, classes, k_states):
    """(proper, K in every recurrent class, K in some recurrent class)
    of a policy with the given recurrent classes.

    Properness is equivalent to every recurrent class meeting the cycle
    set: closed classes avoiding it can never reach it, and transient
    states always reach some closed class.
    """
    proper = all(problem.pi_states & set(c) for c in classes)
    k_every = all(k_states & set(c) for c in classes)
    k_some = any(k_states & set(c) for c in classes)
    return proper, k_every, k_some


def _constrained_select(problem: CycleProblem, candidate, candidate_sets, k_states):
    """Keep the greedy candidate if it is proper with a K state in its
    recurrent classes; otherwise run one repair pass that reroutes states
    in offending recurrent classes along candidate actions leaving the
    class.  Returns (choice, its recurrent classes), or None when the
    repair fails."""
    mdp = problem.mdp
    choice = list(candidate)
    classes = _chain_classes(mdp, choice)
    for _ in range(mdp.n_states + 1):
        offending = [set(c) for c in classes
                     if not (problem.pi_states & set(c)) or not (k_states & set(c))]
        if not offending:
            return tuple(choice), classes
        changed = False
        for cls in offending:
            for i in sorted(cls):
                for a in sorted(candidate_sets[i]):
                    if not cls.issuperset(mdp.succ[(i, a)]):
                        if choice[i] != a:
                            choice[i] = a
                            changed = True
                        break
                else:
                    continue
                break
        if not changed:
            break
        classes = _chain_classes(mdp, choice)
    proper, _, k_some = _policy_conditions(problem, classes, k_states)
    if proper and k_some:
        return tuple(choice), classes
    return None


def _initial_policy(problem: CycleProblem, k_states):
    """Proper initial policy with K states in its recurrent classes, and
    those classes.

    Built from a backward reachability tree toward a K state (each state
    takes an action that strictly decreases tree depth, giving a single
    recurrent class containing the K state), then repaired toward the
    cycle set if that class misses it.
    """
    mdp = problem.mdp
    k_star = min(k_states)
    choice = list(_tree_policy(mdp, {k_star}))
    full_sets = [set(mdp.available[i]) for i in mdp.states]
    repaired = _constrained_select(problem, tuple(choice), full_sets, k_states)
    if repaired is not None:
        return repaired
    # fall back to a tree toward the cycle set (always proper), then repair K
    choice = _tree_policy(mdp, problem.pi_states)
    repaired = _constrained_select(problem, choice, full_sets, k_states)
    if repaired is not None:
        return repaired
    return choice, _chain_classes(mdp, choice)


def _tree_policy(mdp: LabeledMdp, targets) -> tuple[int, ...]:
    """Backward BFS layers toward the target set over every row; each
    other state takes its first action with a successor one layer
    closer, and states no layer reaches take their first action."""
    everywhere = frozenset(mdp.states)
    layers = mdp.backward_layers(targets, everywhere)
    choice = mdp.layer_choice(layers, everywhere)
    settled = {i for layer in layers for i in layer}
    for t in targets:
        # re-enter the tree: any action works, prefer one whose support
        # includes a settled state
        acts = mdp.available[t]
        choice[t] = next((a for a in acts if not settled.isdisjoint(mdp.succ[(t, a)])),
                         acts[0])
    return tuple(choice.get(i, mdp.available[i][0]) for i in mdp.states)


def random_initial_policy(problem: CycleProblem, k_states, rng) -> StationaryPolicy | None:
    """Random proper starting policy for policy-iteration restarts, or
    None when the random draw cannot be repaired."""
    mdp = problem.mdp
    choice = tuple(rng.choice(mdp.available[i]) for i in mdp.states)
    full_sets = [set(mdp.available[i]) for i in mdp.states]
    repaired = _constrained_select(problem, choice, full_sets, frozenset(k_states))
    if repaired is None:
        return None
    return StationaryPolicy(dict(enumerate(repaired[0])))


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_acpc(problem: CycleProblem, k_states=None,
                     ) -> tuple[StationaryPolicy, float]:
    """Enumerate all stationary policies, keep the proper ones (and the
    K-recurrent ones when k_states is given) and return the minimum-gain
    policy.  Ties broken lexicographically by action index."""
    mdp = problem.mdp
    count = 1
    for acts in mdp.available:
        count *= len(acts)
        if count > BRUTE_FORCE_CAP:
            raise TooLarge(f"more than {BRUTE_FORCE_CAP} stationary policies")
    pi_mask = problem.pi_mask()
    k_set = frozenset(k_states) if k_states is not None else None
    best_choice = None
    best_lam = math.inf
    for choice in itertools.product(*[sorted(acts) for acts in mdp.available]):
        P, g = mdp.policy_matrices(StationaryPolicy(dict(enumerate(choice))))
        J = _policy_gain(P, g, pi_mask, k_set)
        if J is None:
            continue
        lam = float(np.max(J))
        if lam < best_lam - 1e-12:
            best_lam = lam
            best_choice = choice
    if best_choice is None:
        raise ImproperPolicy("no proper stationary policy meets the constraints")
    return StationaryPolicy(dict(enumerate(best_choice))), best_lam


def _policy_gain(P, g, pi_mask, k_set):
    """Gain vector of a single chain via the first-return reduction, or
    None when the policy is improper / fails the K-recurrence filter."""
    classes, _ = numerics.recurrent_classes(P)
    pi_idx = set(np.flatnonzero(pi_mask).tolist())
    if not all(pi_idx & set(c) for c in classes):
        return None  # improper
    if k_set is not None and not all(k_set & set(c) for c in classes):
        return None
    right = P * (~pi_mask)[np.newaxis, :]
    left = P - right
    n = P.shape[0]
    inv = np.linalg.solve(np.eye(n) - right, np.column_stack([left, g]))
    tilde_P = inv[:, :n]
    tilde_g = inv[:, n]
    return numerics.cesaro_limit(tilde_P) @ tilde_g


def _require_proper(problem: CycleProblem, mu: StationaryPolicy):
    if not is_proper(problem.mdp, mu, problem.pi_states):
        raise ImproperPolicy(
            "some state cannot reach the cycle set under this policy; "
            "its per-cycle cost is infinite")
