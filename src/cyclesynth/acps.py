"""Average-cost-per-stage machinery: gain-bias evaluation of a stationary
policy and the single-chain Bellman optimality check.

This module doubles as an independent oracle for the cycle-to-stage
reduction: the per-cycle oracle ``acpc.acpc_evaluate_direct`` maps its
first-return chain here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics

CHECK_TOL = 1e-8


@dataclass(frozen=True)
class GainBias:
    """Gain J and bias h of a stationary policy, with the auxiliary
    vector v when obtained from the linear system."""

    J: np.ndarray
    h: np.ndarray
    v: np.ndarray | None = None


def acps_gain_bias(P, g) -> GainBias:
    """J = P* g and h = H g for the chain P with stage costs g."""
    P = np.asarray(P, dtype=float)
    g = np.asarray(g, dtype=float)
    star = numerics.cesaro_limit(P)
    H = numerics.deviation_matrix(P, star)
    return GainBias(J=star @ g, h=H @ g)


def acps_bellman_check(available, trans, cost, candidate: GainBias,
                       tol: float = CHECK_TOL) -> bool:
    """Single-chain optimality: lambda + h(i) <= g(i,u) + sum_j P(i,u,j) h(j)
    for every state i and available action u.

    The quantification over stationary policies decomposes state-wise
    because each inequality row depends only on the action at i.
    """
    J = np.asarray(candidate.J, dtype=float)
    h = np.asarray(candidate.h, dtype=float)
    lam = float(J[0])
    if np.max(np.abs(J - lam)) > tol:
        return False  # gain not constant: single-chain shortcut not applicable
    for i, acts in enumerate(available):
        for a in acts:
            rhs = cost[(i, a)] + float(trans[(i, a)] @ h)
            if lam + h[i] > rhs + tol:
                return False
    return True
