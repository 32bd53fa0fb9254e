"""Linear-algebra kernels: linear solves, Cesaro-limit matrix,
deviation matrix, transient-matrix inversion and the sparse transient
solve of the policy-iteration loop; the strongly connected components
and the in-order running sums the other modules share.

All routines operate on plain numpy arrays (row-major, float64) and are
pure functions; transient_solve takes its matrix in compressed rows.
The Cesaro limit is computed structurally from the recurrent-class
decomposition of the chain rather than by truncating the running
average, so it is exact for periodic chains as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotStochastic, NotTransient, NumericalFailure

DEFAULT_TOL = 1e-8
RANK_RCOND = 1e-10
# transient_solve keeps right-hand sides of at most this many columns as
# Python floats, wider ones as numpy row views.  The value is the widest at
# which the floats won at least 9 of 10 interleaved calls on 600-state
# acyclic graphs with one and with three successors per state (2-core
# x86-64 host); on the one-successor chain the two tie at 10 to 11 columns,
# and at 51 the floats take 2.4 times as long
NARROW_COLUMNS = 8
_SHORT = 16  # segments up to this long are summed one position per pass


@dataclass
class SolveResult:
    x: np.ndarray
    rank_deficient: bool
    residual: float


def solve_linear(A, b, tol: float = DEFAULT_TOL) -> SolveResult:
    """Solve A x = b.

    Full-rank systems must meet the residual tolerance
    ``|Ax - b|_inf <= tol * max(1, |b|_inf)``.  Rank-deficient systems
    return the minimum-norm least-squares solution with the flag set.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if b.shape[0] != A.shape[0]:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != matrix size {A.shape[0]}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise NumericalFailure("non-finite entries in the linear system")
    x, _, rank, _ = np.linalg.lstsq(A, b, rcond=RANK_RCOND)
    residual = float(np.max(np.abs(A @ x - b))) if A.size else 0.0
    deficient = rank < A.shape[0]
    if not deficient and residual > tol * max(1.0, float(np.max(np.abs(b), initial=0.0))):
        raise NumericalFailure(f"linear solve residual {residual:.3e} exceeds tolerance")
    return SolveResult(x=x, rank_deficient=deficient, residual=residual)


def _check_stochastic(P, tol=1e-9):
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise NotStochastic(f"expected a square matrix, got shape {P.shape}")
    if np.any(P < -tol) or np.any(P > 1 + tol):
        raise NotStochastic("entries outside [0, 1]")
    if np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-7:
        raise NotStochastic("rows do not sum to 1")
    return P


def recurrent_classes(P) -> tuple[list[list[int]], list[int]]:
    """Recurrent classes and transient states of a stochastic matrix."""
    P = np.asarray(P, dtype=float)
    return _bottom_classes([np.flatnonzero(row > 0.0) for row in P])


def _bottom_classes(succ) -> tuple[list[list[int]], list[int]]:
    """Recurrent classes and transient states of the chain whose state i
    moves with positive probability exactly to succ[i].

    A class is recurrent iff its strongly connected component is closed,
    that is, holds every successor of its members (bottom SCC).
    """
    recurrent, transient = [], []
    for component in _tarjan_scc(len(succ), succ):
        members = set(component)
        if all(members.issuperset(succ[i]) for i in component):
            recurrent.append(component)
        else:
            transient.extend(component)
    return recurrent, sorted(transient)


def _tarjan_scc(n, succ) -> list[list[int]]:
    """Strongly connected components by iterative Tarjan (1972), each a
    sorted list, in the order the algorithm closes them: every edge
    leaving a component points into one listed before it (sinks first)."""
    return list(_closing_components(n, succ))


def _closing_components(n, succ):
    """The components of _tarjan_scc, yielded one at a time as each
    closes, so a caller can act on a component before the search goes
    on.  Each frame of the depth-first search holds its own iterator
    over the children; index[v] is -1 until v is visited, and closed[v]
    is set once v's component is yielded, so a visited state that is not
    closed is on the stack.  A component is the top of the stack from
    its root up, sliced off whole.  The frames are three parallel lists,
    not a list of tuples: on a deep search a tuple per frame is one more
    object for the garbage collector to scan at each of its passes."""
    index = [-1] * n
    low = [0] * n
    closed = [False] * n
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        # frame k: its state, the state's children not yet read, and where
        # the state sits on the stack (empty between roots)
        path, children, at = [root], [iter(succ[root])], [0]
        while path:
            v = path[-1]
            for w in children[-1]:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    path.append(w)
                    children.append(iter(succ[w]))
                    at.append(len(stack))
                    stack.append(w)
                    break
                if not closed[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                children.pop()
                bottom = at.pop()
                if low[v] == index[v]:
                    if bottom == len(stack) - 1:
                        closed[stack.pop()] = True
                        yield [v]
                        continue
                    component = stack[bottom:]
                    del stack[bottom:]
                    for w in component:
                        closed[w] = True
                    component.sort()
                    yield component
                else:  # v's component is still open, so v has a parent frame
                    u = path[-1]
                    if low[v] < low[u]:
                        low[u] = low[v]


def _running_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Running sums of `values` that restart from 0.0 at each index in
    `starts` (ascending, the first 0; the last may equal len(values)).
    Each segment is added left to right, bit for bit as a Python loop
    adds it: np.cumsum accumulates in order, where np.sum and
    np.add.reduceat add pairwise and differ in the last bits.  A long
    segment is one np.cumsum; the short ones advance together, one
    position per pass, so a run of one-entry segments takes one pass."""
    out = values + 0.0
    ends = np.append(starts[1:], len(values))
    long = ends - starts > _SHORT
    for a, b in zip(starts[long].tolist(), ends[long].tolist()):
        out[a:b] = np.cumsum(out[a:b])
    pos, stop = starts[~long] + 1, ends[~long]
    live = pos < stop
    while live.any():
        pos, stop = pos[live], stop[live]
        out[pos] += out[pos - 1]
        pos += 1
        live = pos < stop
    return out


def stationary_distribution(P) -> np.ndarray:
    """Stationary row vector of an irreducible stochastic matrix."""
    P = np.asarray(P, dtype=float)
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, _, _, _ = np.linalg.lstsq(A, b, rcond=RANK_RCOND)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def cesaro_limit(P) -> np.ndarray:
    """Long-run average matrix P* = lim (1/N) sum_k P^k.

    Computed structurally: a stationary distribution per recurrent class
    plus absorption probabilities for transient states.
    """
    P = _check_stochastic(P)
    n = P.shape[0]
    classes, transient = recurrent_classes(P)
    star = np.zeros((n, n))
    class_dist = []
    for cls in classes:
        idx = np.array(cls)
        if len(cls) == 1:  # what stationary_distribution gives, without the solve
            pi = np.ones(1)
            star[cls[0], cls[0]] = 1.0
        else:
            pi = stationary_distribution(P[np.ix_(idx, idx)])
            star[np.ix_(idx, idx)] = np.tile(pi, (len(idx), 1))
        class_dist.append((idx, pi))
    if transient:
        t = np.array(transient)
        Q = P[np.ix_(t, t)]
        # absorption probability into each recurrent class
        B = np.column_stack([P[np.ix_(t, idx)].sum(axis=1) for idx, _ in class_dist])
        absorb = np.linalg.solve(np.eye(len(t)) - Q, B)
        for k, (idx, pi) in enumerate(class_dist):
            star[np.ix_(t, idx)] = np.outer(absorb[:, k], pi)
    return star


def deviation_matrix(P, P_star=None) -> np.ndarray:
    """Deviation matrix H = (I - P + P*)^{-1} - P*."""
    P = _check_stochastic(P)
    if P_star is None:
        P_star = cesaro_limit(P)
    n = P.shape[0]
    fundamental = np.eye(n) - P + P_star
    try:
        inv = np.linalg.solve(fundamental, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"fundamental matrix is singular: {exc}") from exc
    if np.max(np.abs(fundamental @ inv - np.eye(n))) > 1e-6:
        raise NumericalFailure("fundamental matrix inverse failed the residual check")
    return inv - P_star


def transient_inverse(Q, rhs=None) -> np.ndarray:
    """(I - Q)^{-1} rhs for a substochastic transient matrix Q, by one LU
    solve; rhs defaults to the identity, giving the inverse itself.

    The Neumann series guarantees a nonnegative result for a nonnegative
    rhs; significantly negative entries or singularity indicate the
    caller's transience assumption is broken.
    """
    Q = np.asarray(Q, dtype=float)
    n = Q.shape[0]
    rhs = np.eye(n) if rhs is None else np.asarray(rhs, dtype=float)
    A = -Q  # I - Q without a second n x n temporary
    A.flat[::n + 1] += 1.0
    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise NotTransient(f"I - Q is singular: {exc}") from exc
    if np.min(rhs, initial=0.0) >= 0.0 and np.min(x, initial=0.0) < -1e-10:
        raise NotTransient("solution has negative entries; Q is not transient")
    return x


def transient_solve(indptr, col, val, exit, rhs) -> np.ndarray:
    """(I - Q)^{-1} rhs for a sparse substochastic Q in compressed rows:
    row i holds Q[i, col[e]] = val[e] for e in indptr[i]:indptr[i+1],
    and exit[i] is the rest of state i's mass, 1 - sum_j Q[i, j], given
    directly so that no pivot is formed as 1 minus a probability.

    Every pivot is the mass leaving its state, exit plus the off-diagonal
    row (Grassmann, Taksar and Heyman, 1985): each row is divided by it
    up front, which leaves a unit diagonal.  The strongly connected
    components of Q's graph are then solved one at a time as Tarjan's
    search closes them, sinks first, so each reads only rows already
    solved: a single state by substitution, a larger component
    by elimination of its own block with every pivot again a sum of the
    masses leaving its state, never a difference.  A component that no
    mass leaves is a closed class, so I - Q is singular: NotTransient.
    """
    n = len(indptr) - 1
    rhs = np.asarray(rhs, dtype=float)
    exit = np.asarray(exit, dtype=float)
    if rhs.shape[0] != n or exit.shape != (n,):
        raise DimensionMismatch(f"rhs has {rhs.shape[0]} rows and exit {exit.shape} "
                                f"entries for {n} states")
    row = np.repeat(np.arange(n), np.diff(indptr))
    off = np.asarray(col) != row  # a self-loop only lowers the mass leaving
    row, col, val = row[off], np.asarray(col)[off], np.asarray(val, dtype=float)[off]
    leave = exit + np.bincount(row, weights=val, minlength=n)
    if not np.all(leave > 0.0):
        raise NotTransient(f"state {int(np.argmin(leave > 0.0))} never leaves itself")
    val = val / leave[row]
    X = (rhs[:, np.newaxis] if rhs.ndim == 1 else rhs) / leave[:, np.newaxis]
    ptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n)))).tolist()
    succ = col.tolist()
    weight = val.tolist()
    width = X.shape[1]
    # x_i += w * x_j on whole rows, with no per-state indexing: lists of
    # Python floats when the rows are narrow, numpy row views of X
    # otherwise.  x[k] += w * y[k] is the IEEE product and sum that
    # x += w * y forms per entry, in the same order: the same bits.
    narrow = width <= NARROW_COLUMNS
    rows = X.tolist() if narrow else list(X)
    columns = range(width)
    local = np.full(n, -1)
    for block in _closing_components(n, [succ[ptr[i]:ptr[i + 1]] for i in range(n)]):
        # sinks first: successors outside the block are solved
        if len(block) == 1:
            i = block[0]
            x = rows[i]
            if narrow:
                for e in range(ptr[i], ptr[i + 1]):
                    w, y = weight[e], rows[succ[e]]
                    for k in columns:
                        x[k] += w * y[k]
            else:
                for e in range(ptr[i], ptr[i + 1]):
                    x += weight[e] * rows[succ[e]]
            continue
        m = len(block)
        idx = np.array(block)
        e = np.concatenate([np.arange(ptr[i], ptr[i + 1]) for i in block])
        r = np.repeat(np.arange(m), [ptr[i + 1] - ptr[i] for i in block])
        c, v = col[e], val[e]
        local[idx] = np.arange(m)
        at = local[c]
        local[idx] = -1
        inside, out = at >= 0, at < 0
        G = np.zeros((m, m + 1 + width))  # [Q in the block | mass leaving it | rhs]
        G[r[inside], at[inside]] = v[inside]
        G[:, m] = exit[idx] / leave[idx] + np.bincount(r[out], weights=v[out], minlength=m)
        G[:, m + 1:] = [rows[i] for i in block]
        solved = np.array([rows[j] for j in c[out].tolist()]).reshape(-1, width)
        np.add.at(G[:, m + 1:], r[out], v[out, np.newaxis] * solved)
        for k in range(m):  # the pivot: mass leaving k for later states or the block
            pivot = G[k, k + 1:m + 1].sum()
            if not pivot > 0.0:
                raise NotTransient(f"{m} states around state {block[0]} form a closed class")
            G[k] /= pivot
            G[k + 1:, k + 1:] += np.outer(G[k + 1:, k], G[k, k + 1:])
        x = G[:, m + 1:]
        for k in reversed(range(m)):
            x[k] += G[k, k + 1:m] @ x[k + 1:]
        for k, i in enumerate(block):
            rows[i][:] = x[k].tolist()
    if narrow:
        X = np.array(rows).reshape(n, width)
    return X.reshape(rhs.shape)
