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
    NotTransient,
    NumericalFailure,
    TooLarge,
)
from .mdp import LabeledMdp, StationaryPolicy, _chain_classes, is_communicating, is_proper

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
    P, _ = problem.mdp.policy_matrices(mu)
    mask = problem.pi_mask()
    left = P * mask[np.newaxis, :]
    right = P * (~mask)[np.newaxis, :]
    return SplitKernel(left=left, right=right)


def _first_return(problem: CycleProblem, mu: StationaryPolicy):
    """Sparse solve of (I - R) X = [P_pi, g], where P_pi = P_mu[:, pi] and
    R is P_mu without the cycle-set columns pi; the mass entering pi is
    each row's exit.  A closed class of R never enters the cycle set, so
    the policy is improper: ImproperPolicy.  Returns (P, R, g, pi, X):
    P and R apply P_mu and R to a vector, X[:, :-1] is the first-return
    kernel on the columns pi and X[:, -1] the cycle cost."""
    mdp = problem.mdp
    rows = mdp.rows_of([mu.action(i) for i in mdp.states])
    indptr, col, prob = mdp.chain(rows)
    n = mdp.n_states
    mask = problem.pi_mask()
    pi = np.flatnonzero(mask)
    row = np.repeat(np.arange(n), np.diff(indptr))
    into = mask[col]
    stay = ~into
    rhs = np.zeros((n, len(pi) + 1))
    rhs[row[into], np.searchsorted(pi, col[into])] = prob[into]
    g = mdp.cost[rows]
    rhs[:, -1] = g
    r_row, r_col, r_prob = row[stay], col[stay], prob[stay]
    r_ptr = np.concatenate(([0], np.cumsum(np.bincount(r_row, minlength=n))))
    try:
        X = numerics.transient_solve(r_ptr, r_col, r_prob,
                                     np.bincount(row[into], weights=prob[into], minlength=n),
                                     rhs)
    except NotTransient as exc:
        raise ImproperPolicy(
            "some state never enters the cycle set under this policy; "
            f"its per-cycle cost is infinite ({exc})") from exc

    def P(x):
        return np.bincount(row, weights=prob * x[col], minlength=n)

    def R(x):
        return np.bincount(r_row, weights=r_prob * x[r_col], minlength=n)

    return P, R, g, pi, X


def first_return_kernel(problem: CycleProblem, mu: StationaryPolicy) -> np.ndarray:
    """First-entry distribution over the cycle set: (I - right)^{-1} left."""
    *_, pi, X = _first_return(problem, mu)
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
    tol * max(1, |J|_inf); NumericalFailure otherwise.  The products with
    P_mu and R are sparse, so no n x n array is formed.
    """
    P, R, g, pi, X = _first_return(problem, mu)
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

    # np.max, unlike the builtin, lets a NaN through to fail the check
    residual = float(np.max([np.max(np.abs(P(J) - J)),
                             np.max(np.abs(J + h - g - R(J) - P(h))),
                             np.max(np.abs(h + v - R(h) - P(v)))]))
    if not residual <= _gain_scaled(tol, J):
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
    best = mdp.segment_min(mdp.cost + mdp.expect(h + lam * ~problem.pi_mask()))
    return bool(np.all(np.abs(lam + h - best) <= _gain_scaled(tol, lam)))


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
    k_states = _k_set(problem, k_states)
    if not k_states:
        raise ValueError("k_states must be nonempty")
    if not is_communicating(mdp):
        raise NotCommunicating("per-cycle policy iteration requires a communicating MDP")

    if init is not None:
        choice = tuple(init.action(i) for i in mdp.states)
        classes = _chain_classes(mdp, choice)
        proper_ok, _, _ = _policy_conditions(problem, classes, k_states)
        if not proper_ok:
            raise ImproperPolicy("the supplied initial policy is improper")
    else:
        choice, classes = _initial_policy(problem, k_states)

    out_mask = ~problem.pi_mask()
    no_action = np.iinfo(mdp.action.dtype).max
    cap = max(10 * mdp.n_states, 20)
    for iteration in range(cap):
        mu = StationaryPolicy(dict(enumerate(choice)))
        gb = acpc_evaluate(problem, mu, tol=tol)
        _, k_every, _ = _policy_conditions(problem, classes, k_states)
        if (gb.gain_spread() <= _gain_scaled(tol, gb.J) and k_every
                and acpc_optimality_check(problem, gb.lam, gb.h, tol=tol)):
            return PolicyIterationResult(mu, gb, PolicyIterationStatus.OPTIMAL, iteration)

        current = mdp.rows_of(choice)
        u_bar = _argmin_rows(mdp, mdp.expect(gb.J))
        if u_bar[current].all():
            # h(j) plus J(j) for a successor outside the cycle set
            target = gb.h + gb.J * out_mask
            candidates = _argmin_rows(mdp, mdp.cost + mdp.expect(target), allowed=u_bar)
        else:
            candidates = u_bar

        # keep the current action when it is a candidate, else the least one
        least = mdp.segment_min(np.where(candidates, mdp.action, no_action))
        nxt = tuple(np.where(candidates[current], choice, least).tolist())
        selected = _constrained_select(problem, nxt, candidates, k_states)
        if selected is None or selected[0] == choice:
            mu = StationaryPolicy(dict(enumerate(choice)))
            return PolicyIterationResult(mu, gb, PolicyIterationStatus.NOT_OPTIMAL, iteration)
        choice, classes = selected
    raise NonConvergence(f"policy iteration exceeded {cap} iterations")


def _k_set(problem: CycleProblem, k_states) -> frozenset[int]:
    """k_states as a set, checked against the state set like pi_states."""
    k_set = frozenset(k_states)
    outside = [k for k in k_set if k not in problem.mdp.states]
    if outside:
        raise ValueError(f"k_states {sorted(outside)} are not states of the MDP")
    return k_set


def _argmin_rows(mdp: LabeledMdp, values, allowed=None) -> np.ndarray:
    """Mask of the rows within a small numeric tie tolerance of their
    state's least value, counting only allowed rows when given."""
    if allowed is not None:
        values = np.where(allowed, values, np.inf)
    best = mdp.segment_min(values)
    best += TIE_TOL * np.maximum(1.0, np.abs(best))
    return values <= best[mdp.row_state]


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


def _constrained_select(problem: CycleProblem, candidate, allowed, k_states):
    """Keep the greedy candidate if it is proper with a K state in its
    recurrent classes; otherwise run one repair pass that reroutes states
    in offending recurrent classes along allowed actions (a mask over the
    rows) leaving the class.  Returns (choice, its recurrent classes), or
    None when the repair fails."""
    mdp = problem.mdp
    (col, at), ptr, action = mdp.successor_lists(), mdp.row_ptr.tolist(), mdp.action.tolist()
    allowed = allowed.tolist()
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
                leaving = [action[r] for r in range(ptr[i], ptr[i + 1])
                           if allowed[r] and not cls.issuperset(col[at[r]:at[r + 1]])]
                if leaving:
                    changed |= choice[i] != min(leaving)
                    choice[i] = min(leaving)
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
    every = np.ones(len(mdp.action), dtype=bool)
    # a tree toward a K state, else toward the cycle set (always proper), then repair K
    for targets in ({min(k_states)}, problem.pi_states):
        choice = _tree_policy(mdp, targets)
        repaired = _constrained_select(problem, choice, every, k_states)
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
    (col, at), ptr, action = mdp.successor_lists(), mdp.row_ptr.tolist(), mdp.action.tolist()
    for t in targets:
        # re-enter the tree: any action works, prefer one whose support
        # includes a settled state
        rows = range(ptr[t], ptr[t + 1])
        choice[t] = action[next((r for r in rows if not settled.isdisjoint(col[at[r]:at[r + 1]])),
                                rows[0])]
    return tuple(choice.get(i, action[ptr[i]]) for i in mdp.states)


def random_initial_policy(problem: CycleProblem, k_states, rng) -> StationaryPolicy | None:
    """Random proper starting policy for policy-iteration restarts, or
    None when the random draw cannot be repaired."""
    mdp = problem.mdp
    choice = tuple(rng.choice(mdp.available[i]) for i in mdp.states)
    every = np.ones(len(mdp.action), dtype=bool)
    repaired = _constrained_select(problem, choice, every, frozenset(k_states))
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
    k_set = _k_set(problem, k_states) if k_states is not None else None
    count = 1
    for acts in mdp.available:
        count *= len(acts)
        if count > BRUTE_FORCE_CAP:
            raise TooLarge(f"more than {BRUTE_FORCE_CAP} stationary policies")
    pi_mask = problem.pi_mask()
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
