"""Average-cost-per-stage machinery: gain-bias evaluation of a stationary
policy.

This module doubles as an independent oracle for the cycle-to-stage
reduction: the per-cycle oracle ``acpc.acpc_evaluate_direct`` maps its
first-return chain here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics


@dataclass(frozen=True)
class GainBias:
    """Gain J and bias h of a stationary policy."""

    J: np.ndarray
    h: np.ndarray


def acps_gain_bias(P, g) -> GainBias:
    """J = P* g and h = H g for the chain P with stage costs g."""
    P = np.asarray(P, dtype=float)
    g = np.asarray(g, dtype=float)
    star = numerics.cesaro_limit(P)
    H = numerics.deviation_matrix(P, star)
    return GainBias(J=star @ g, h=H @ g)
