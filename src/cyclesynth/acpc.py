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
from functools import cached_property

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
from .mdp import LabeledMdp, StationaryPolicy, _chain_classes, _strong_components, is_proper

EVAL_TOL = 1e-8
TIE_TOL = 1e-9
BRUTE_FORCE_CAP = 10 ** 6
# Blocks with one cycle state each share their dense cycle-set solves, at
# most this many blocks to a solve: an s x s least-squares solve took
# 24 us at s = 1, 33 us at s = 32 and 130 us at s = 64 (numpy 2.4, x86-64)
DENSE_GROUP = 32


@dataclass(frozen=True)
class CycleProblem:
    """An MDP together with the nonempty set of cycle-completing states.

    The states may split into blocks: block b holds the states from
    starts[b] up to the next start (the last block up to n), no row
    leaves its block, and every block has the same number of cycle states,
    the width.  Such a problem is the disjoint union of one problem per
    block, and every function here treats each block as it would treat
    that problem alone.  By default the whole MDP is one block."""

    mdp: LabeledMdp
    pi_states: frozenset[int]
    starts: tuple[int, ...] = (0,)

    def __post_init__(self):
        if not self.pi_states:
            raise ValueError("pi_states must be nonempty")
        if not self.pi_states <= set(self.mdp.states):
            raise ValueError("pi_states must be a subset of the state set")
        if self.starts == (0,):
            return
        mdp, starts = self.mdp, np.asarray(self.starts)
        if not len(starts) or starts[0] != 0 or np.any(np.diff(starts) <= 0) \
                or starts[-1] >= mdp.n_states:
            raise ValueError(f"block starts {self.starts} must rise from 0 to below "
                             f"{mdp.n_states}")
        if np.any(self.block[mdp.col] != self.block[mdp.row_state][mdp.entry_row]):
            raise ValueError("a row leaves its block")
        if np.any(np.bincount(self.block[self.cycle_states], minlength=len(starts))
                  != self.width):
            raise ValueError("every block needs the same number of cycle states")

    def pi_mask(self) -> np.ndarray:
        mask = np.zeros(self.mdp.n_states, dtype=bool)
        mask[list(self.pi_states)] = True
        return mask

    @cached_property
    def block_starts(self) -> np.ndarray:
        return np.array(self.starts, dtype=np.intp)

    @cached_property
    def block(self) -> np.ndarray:
        """The block of each state."""
        sizes = np.diff([*self.starts, self.mdp.n_states])
        return np.repeat(np.arange(len(sizes)), sizes)

    @cached_property
    def cycle_states(self) -> np.ndarray:
        """The cycle states in order, so block by block."""
        return np.array(sorted(self.pi_states), dtype=np.intp)

    @cached_property
    def width(self) -> int:
        """The number of cycle states in each block."""
        return len(self.pi_states) // len(self.starts)

    @cached_property
    def dense_groups(self) -> tuple[tuple[int, int, int, int], ...]:
        """(lo, hi, a, b): the states lo:hi and cycle states
        cycle_states[a:b] of consecutive blocks that share their dense
        solves: runs of up to DENSE_GROUP blocks of width 1, or one block
        each of a larger width."""
        k, bounds = self.width, [*self.starts, self.mdp.n_states]
        firsts = [*range(0, len(self.starts), DENSE_GROUP if k == 1 else 1), len(self.starts)]
        return tuple((bounds[b], bounds[c], b * k, c * k) for b, c in zip(firsts, firsts[1:]))


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


def _policy_rows(mdp: LabeledMdp, mu) -> np.ndarray:
    """The row each state takes under mu: a StationaryPolicy, or that
    array of rows itself."""
    if isinstance(mu, np.ndarray):
        return mu
    return mdp.rows_of(mu.choice)


def _first_return(problem: CycleProblem, rows):
    """Sparse solve of (I - R) X = [P_pi, g] for the policy taking the
    given rows, where P_pi = P_mu[:, pi] and R is P_mu without the
    cycle-set columns pi; the mass entering pi is each row's exit.  A
    closed class of R never enters the cycle set, so the policy is
    improper: ImproperPolicy.  Returns (P, R, g, X): P and R apply P_mu
    and R to a vector, X[i, c] is the first-entry probability into the
    c-th cycle state of i's block and X[:, -1] the cycle cost.

    The solve works state by state, but the matrix product inside a
    strongly connected block of R groups its sums by the number of
    columns; every block has width + 1 of them, so each block gets the
    bits its problem alone would get."""
    mdp = problem.mdp
    indptr, col, prob = mdp.chain(rows)
    n, k = mdp.n_states, problem.width
    mask = problem.pi_mask()
    row = np.repeat(np.arange(n), np.diff(indptr))
    into = mask[col]
    stay = ~into
    rhs = np.zeros((n, k + 1))
    rhs[row[into], np.searchsorted(problem.cycle_states, col[into]) % k] = prob[into]
    g = mdp.cost[rows]
    rhs[:, -1] = g
    r_row, r_col, r_prob = row[stay], col[stay], prob[stay]
    exit = np.bincount(row[into], weights=prob[into], minlength=n)
    try:
        X = numerics.transient_solve(
            np.concatenate(([0], np.cumsum(np.bincount(r_row, minlength=n)))),
            r_col, r_prob, exit, rhs)
    except NotTransient as exc:
        raise ImproperPolicy(
            "some state never enters the cycle set under this policy; "
            f"its per-cycle cost is infinite ({exc})") from exc

    def P(x):
        return np.bincount(row, weights=prob * x[col], minlength=n)

    def R(x):
        return np.bincount(r_row, weights=r_prob * x[r_col], minlength=n)

    return P, R, g, X


def first_return_kernel(problem: CycleProblem, mu: StationaryPolicy) -> np.ndarray:
    """First-entry distribution over the cycle set: (I - right)^{-1} left."""
    *_, X = _first_return(problem, _policy_rows(problem.mdp, mu))
    n, k = problem.mdp.n_states, problem.width
    tilde = np.zeros((n, n))
    # column c of X is the c-th cycle state of each state's block
    tilde[np.arange(n)[:, np.newaxis], problem.cycle_states.reshape(-1, k)[problem.block]] = X[:, :k]
    if np.max(np.abs(tilde.sum(axis=1) - 1.0)) > EVAL_TOL:
        raise NumericalFailure("first-return kernel rows do not sum to 1")
    return tilde


def cycle_cost(problem: CycleProblem, mu: StationaryPolicy) -> np.ndarray:
    """Expected cost to the next entry into the cycle set from each state."""
    *_, X = _first_return(problem, _policy_rows(problem.mdp, mu))
    return X[:, -1]


def acpc_evaluate(problem: CycleProblem, mu, tol: float = EVAL_TOL) -> AcpcGainBias:
    """Gain-bias of a proper policy through the first-return chain; mu is
    a StationaryPolicy or the array of rows it takes, one per state.

    The per-stage problem is solved on the first-return chain restricted
    to the cycle set, P~_pp with costs g~_p: J_p = P~*_pp g~_p, and h_p,
    v_p = -H~ h_p from two solves with I - P~_pp + P~*_pp.  Every other
    state's values follow from its first entry into the cycle set:
    J = P~ J_p, h = g~ - J + P~ h_p, v = -h + P~ v_p.  The result must
    satisfy the three per-cycle defining equations against P_mu within
    tol * max(1, |J|_inf) over each block's states; NumericalFailure
    otherwise.  The products with P_mu and R are sparse, so no n x n
    array is formed.

    Each block gets the values its problem alone would get, bit for bit.
    A block with several cycle states is solved densely alone.  Blocks
    with one cycle state share their dense solves (dense_groups): each
    one's P~*_pp is exactly 1, so J_p = g~_p and h_p = v_p = 0 exactly in
    a group as alone, and P~ takes one product per state.
    """
    P, R, g, X = _first_return(problem, _policy_rows(problem.mdp, mu))
    tilde_g = X[:, -1]
    pi, block = problem.cycle_states, problem.block
    J, h, v = np.empty(len(X)), np.empty(len(X)), np.empty(len(X))
    for lo, hi, a, b in problem.dense_groups:
        if block[lo] == block[hi - 1]:
            tilde_P = X[lo:hi, :b - a]
            P_pp, through = tilde_P[pi[a:b] - lo], tilde_P.__matmul__
        else:  # one cycle state per block, so P~ has one column per state
            entry, column = X[lo:hi, 0], block[lo:hi] - block[lo]
            P_pp, through = np.diag(X[pi[a:b], 0]), lambda x: entry * x[column]
        star = numerics.cesaro_limit(P_pp)
        fundamental = np.eye(b - a) - P_pp + star
        J_p = star @ tilde_g[pi[a:b]]
        h_p = numerics.solve_linear(fundamental, tilde_g[pi[a:b]] - J_p, tol=tol).x
        v_p = numerics.solve_linear(fundamental, -h_p, tol=tol).x
        J[lo:hi] = through(J_p)
        h[lo:hi] = tilde_g[lo:hi] - J[lo:hi] + through(h_p)
        v[lo:hi] = -h[lo:hi] + through(v_p)

    # np.maximum, unlike the builtin max, lets a NaN through to fail the check
    residual = np.maximum(np.maximum(np.abs(P(J) - J), np.abs(J + h - g - R(J) - P(h))),
                          np.abs(h + v - R(h) - P(v)))
    worst = np.maximum.reduceat(residual, problem.block_starts)
    if not np.all(worst <= _gain_scaled(tol, J, problem.block_starts)):
        raise NumericalFailure(
            f"per-cycle defining equations fail with residual {np.max(worst):.3e}")
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
    if not is_proper(problem.mdp, mu, problem.pi_states):
        raise ImproperPolicy("some state cannot reach the cycle set under this policy; "
                             "its per-cycle cost is infinite")
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


def _gain_scaled(tol: float, J, starts=None):
    """Absolute tolerance for values in units of the gain: rounding grows
    with the size of the per-cycle cost.  Given the block starts, one
    tolerance per block, from its own states."""
    if starts is not None:
        return tol * np.maximum(1.0, np.maximum.reduceat(np.abs(J), starts))
    return tol * max(1.0, float(np.max(np.abs(J))))


def acpc_optimality_check(problem: CycleProblem, lam: float, h,
                          tol: float = EVAL_TOL) -> bool:
    """Per-cycle Bellman condition: for every state,
    lam + h(i) = min_u [g(i,u) + sum_j P(i,u,j) h(j)
                        + lam * sum_{j not in cycle set} P(i,u,j)],
    within tol * max(1, |lam|).
    """
    return bool(np.all(_bellman_holds(problem, lam, h, tol)))


def _bellman_holds(problem: CycleProblem, lam, h, tol: float) -> np.ndarray:
    """Per block, whether acpc_optimality_check's condition holds at all
    its states; lam is one gain for all states or one per state."""
    mdp = problem.mdp
    h = np.asarray(h, dtype=float)
    # h(j) plus lam for a successor outside the cycle set
    best = mdp.segment_min(mdp.cost + mdp.expect(h + lam * ~problem.pi_mask()))
    holds = np.abs(lam + h - best) <= tol * np.maximum(1.0, np.abs(lam))
    return np.logical_and.reduceat(holds, problem.block_starts)


# ---------------------------------------------------------------------------
# policy iteration
# ---------------------------------------------------------------------------

def policy_iteration(problem: CycleProblem, k_states, init: StationaryPolicy | None = None,
                     tol: float = EVAL_TOL) -> PolicyIterationResult:
    """Per-cycle policy iteration over a communicating problem of one
    block: block_policy_iteration's loop, whose result it returns."""
    if len(problem.starts) != 1:
        raise ValueError("policy_iteration solves a problem of one block")
    return block_policy_iteration(problem, k_states, init, tol)[0]


def block_policy_iteration(problem: CycleProblem, k_states, init: StationaryPolicy | None = None,
                           tol: float = EVAL_TOL) -> tuple[PolicyIterationResult, ...]:
    """Per-cycle policy iteration in every block of a problem, one loop
    for all blocks; each must be communicating and hold K states.

    A block's result is "optimal" when its gain-bias passes the Bellman
    check and its K states meet every recurrent class of its policy;
    "notOptimal" with the best policy found when the constrained policy
    selection fails.  Each step is taken block by block, with the block's
    own gain and tolerances, so a block's result, its iteration count
    included, is the one its problem alone would give.  A block that
    stops keeps that iteration's policy and gain-bias; the loop runs while
    any block goes on, within 10 m iterations (at least 20) for a block
    of m states.  The policy is held as the array of rows it takes.
    Returns one result per block, on the block's own state indices.
    """
    mdp = problem.mdp
    k_states = _k_set(problem, k_states)
    block, starts = problem.block, problem.block_starts
    n_blocks = len(starts)
    if len(set(block[list(k_states)].tolist())) < n_blocks:
        raise ValueError("k_states must meet every block")
    if len(_strong_components(mdp)) != n_blocks:
        raise NotCommunicating("per-cycle policy iteration requires a communicating MDP "
                               "in every block")

    if init is not None:
        rows, classes = mdp.rows_of(init.choice), _chain_classes(mdp, init.choice)
        proper, _, _ = _policy_conditions(problem, classes, k_states)
        if not proper.all():
            raise ImproperPolicy("the supplied initial policy is improper")
    else:
        rows, classes = _initial_policy(problem, k_states)

    out_mask = ~problem.pi_mask()
    no_action = np.iinfo(mdp.action.dtype).max
    row_block = block[mdp.row_state]
    cap = np.maximum(10 * np.diff([*problem.starts, mdp.n_states]), 20)
    active = np.ones(n_blocks, dtype=bool)
    results: list[PolicyIterationResult | None] = [None] * n_blocks

    def stop(blocks, status):
        for b in np.flatnonzero(blocks).tolist():
            results[b] = _block_result(problem, b, rows, gb, status, iteration)
        active[blocks] = False

    for iteration in itertools.count():
        if np.any(cap[active] <= iteration):
            raise NonConvergence(
                f"policy iteration exceeded {int(np.min(cap[active]))} iterations")
        gb = acpc_evaluate(problem, rows, tol=tol)
        _, k_every, _ = _policy_conditions(problem, classes, k_states)
        lam = np.maximum.reduceat(gb.J, starts)
        level = lam - np.minimum.reduceat(gb.J, starts) <= _gain_scaled(tol, gb.J, starts)
        optimal = active & level & k_every
        if optimal.any():
            optimal &= _bellman_holds(problem, lam[block], gb.h, tol)
        stop(optimal, PolicyIterationStatus.OPTIMAL)
        if not active.any():
            break

        u_bar = _argmin_rows(mdp, mdp.expect(gb.J))
        candidates = u_bar
        steady = np.logical_and.reduceat(u_bar[rows], starts) & active
        if steady.any():
            # h(j) plus J(j) for a successor outside the cycle set
            target = gb.h + gb.J * out_mask
            bias = _argmin_rows(mdp, mdp.cost + mdp.expect(target), allowed=u_bar)
            candidates = np.where(steady[row_block], bias, u_bar)

        # keep the current row where it is a candidate, else the least action's
        least = mdp.segment_min(np.where(candidates, mdp.action, no_action))
        nxt = np.where(candidates[rows], rows, mdp.rows_of(least))
        selected, selected_classes, repaired = _constrained_select(
            problem, nxt, candidates, k_states, active)
        stop(active & (~repaired | np.logical_and.reduceat(selected == rows, starts)),
             PolicyIterationStatus.NOT_OPTIMAL)
        if not active.any():
            break
        rows, classes = np.where(active[block], selected, rows), selected_classes
    return tuple(results)


def _block_result(problem: CycleProblem, b: int, rows, gb: AcpcGainBias,
                  status: PolicyIterationStatus, iterations: int) -> PolicyIterationResult:
    """Block b's policy and gain-bias, on its own state indices."""
    at = slice(problem.starts[b], (*problem.starts, problem.mdp.n_states)[b + 1])
    policy = StationaryPolicy(problem.mdp.action[rows[at]].tolist())
    gain = AcpcGainBias(J=gb.J[at].copy(), h=gb.h[at].copy(), v=gb.v[at].copy())
    return PolicyIterationResult(policy, gain, status, iterations)


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
    """Per block, as boolean arrays: (proper, K in every recurrent class,
    K in some recurrent class) of a policy with the given recurrent
    classes.

    Properness is equivalent to every recurrent class meeting the cycle
    set: closed classes avoiding it can never reach it, and transient
    states always reach some closed class.
    """
    n_blocks = len(problem.starts)
    proper, k_every, k_some = (np.ones(n_blocks, dtype=bool), np.ones(n_blocks, dtype=bool),
                               np.zeros(n_blocks, dtype=bool))
    block = problem.block
    for c in classes:
        b = block[c[0]]
        has_k = not k_states.isdisjoint(c)
        proper[b] &= not problem.pi_states.isdisjoint(c)
        k_every[b] &= has_k
        k_some[b] |= has_k
    return proper, k_every, k_some


def _constrained_select(problem: CycleProblem, candidate, allowed, k_states, active):
    """Keep the greedy candidate, the array of rows it takes, in each
    active block where it is proper with a K state in its recurrent
    classes; elsewhere in those blocks run repair passes, at most m + 1
    for a block of m states, that each reroute one state of every
    offending recurrent class along an allowed row (a mask over the rows)
    leaving the class, until a pass changes nothing.  Other blocks keep
    their rows.  Returns (rows, their recurrent classes, per block
    whether an active block ends proper with K in a recurrent class)."""
    mdp = problem.mdp
    (col, at), ptr, action = mdp.successor_lists(), mdp.row_ptr.tolist(), mdp.action.tolist()
    allowed, block, rows = allowed.tolist(), problem.block.tolist(), candidate.tolist()
    classes = _chain_classes(mdp, [action[r] for r in rows])
    passes = (np.diff([*problem.starts, mdp.n_states]) + 1).tolist()
    ok = np.zeros(len(passes), dtype=bool)
    live, check = set(np.flatnonzero(active).tolist()), []
    while live:
        offending: dict[int, list[set[int]]] = {}
        for c in classes:
            if block[c[0]] in live and (problem.pi_states.isdisjoint(c)
                                        or k_states.isdisjoint(c)):
                offending.setdefault(block[c[0]], []).append(set(c))
        ok[list(live - offending.keys())] = True
        changed = set()
        for b, found in offending.items():
            for cls in found:
                for i in sorted(cls):
                    leaving = [r for r in range(ptr[i], ptr[i + 1])
                               if allowed[r] and not cls.issuperset(col[at[r]:at[r + 1]])]
                    if leaving:
                        r = min(leaving, key=action.__getitem__)
                        if rows[i] != r:
                            changed.add(b)
                        rows[i] = r
                        break
            passes[b] -= 1
        live = {b for b in changed if passes[b]}
        check += [b for b in offending if b not in live]
        if changed:
            classes = _chain_classes(mdp, [action[r] for r in rows])
    proper, _, k_some = _policy_conditions(problem, classes, k_states)
    ok[check] = proper[check] & k_some[check]
    return np.array(rows, dtype=np.int64), classes, ok


def _initial_policy(problem: CycleProblem, k_states):
    """Proper initial rows with K states in their recurrent classes, and
    those classes.

    In each block: a backward reachability tree toward the block's least
    K state (each state takes an action that strictly decreases tree
    depth, giving a single recurrent class containing the K state),
    repaired toward the cycle set if that class misses it; where that
    fails, a tree toward the cycle set (always proper), repaired toward
    K, or else left as it is.
    """
    mdp = problem.mdp
    every = np.ones(len(mdp.action), dtype=bool)
    block = problem.block
    least_k: dict[int, int] = {}
    for k in sorted(k_states):
        least_k.setdefault(int(block[k]), k)
    todo = np.ones(len(problem.starts), dtype=bool)
    rows = None
    for targets in (set(least_k.values()), problem.pi_states):
        tree = _tree_policy(mdp, targets)
        candidate = tree if rows is None else np.where(todo[block], tree, rows)
        rows, classes, repaired = _constrained_select(problem, candidate, every, k_states, todo)
        todo &= ~repaired
        if not todo.any():
            return rows, classes
    rows = np.where(todo[block], tree, rows)
    return rows, _chain_classes(mdp, mdp.action[rows])


def _tree_policy(mdp: LabeledMdp, targets) -> np.ndarray:
    """The rows of a tree toward the target set, from backward BFS layers
    over every row: each other state takes its first row with a successor
    one layer closer, and states no layer reaches take their first row."""
    layers, least = mdp.backward_layers(targets, frozenset(mdp.states))
    settled = {i for layer in layers for i in layer}
    (col, at), ptr = mdp.successor_lists(), mdp.row_ptr.tolist()
    for t in targets:
        # re-enter the tree: any action works, prefer one whose support
        # includes a settled state
        rows = range(ptr[t], ptr[t + 1])
        least[t] = next((r for r in rows if not settled.isdisjoint(col[at[r]:at[r + 1]])), rows[0])
    return np.where(least < 0, mdp.row_ptr[:-1], least)


def random_initial_policy(problem: CycleProblem, k_states, rng) -> StationaryPolicy | None:
    """Random proper starting policy for policy-iteration restarts, or
    None when the random draw cannot be repaired in every block."""
    mdp = problem.mdp
    choice = tuple(rng.choice(mdp.available[i]) for i in mdp.states)
    every = np.ones(len(mdp.action), dtype=bool)
    rows, _, repaired = _constrained_select(problem, mdp.rows_of(choice), every,
                                            frozenset(k_states),
                                            np.ones(len(problem.starts), dtype=bool))
    if not repaired.all():
        return None
    return StationaryPolicy(mdp.action[rows].tolist())


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
        P, g = mdp.policy_matrices(StationaryPolicy(choice))
        J = _policy_gain(P, g, pi_mask, k_set)
        if J is None:
            continue
        lam = float(np.max(J))
        if lam < best_lam - 1e-12:
            best_lam = lam
            best_choice = choice
    if best_choice is None:
        raise ImproperPolicy("no proper stationary policy meets the constraints")
    return StationaryPolicy(best_choice), best_lam


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
