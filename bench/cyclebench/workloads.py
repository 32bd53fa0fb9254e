"""Seeded input generators for the benchmark workloads.

Every generator returns JSON text in the package's MDP and automaton
schemas, so set-up time covers parsing through the public loaders.  The
seed only jitters costs: the transition structure, and with it every
product and component size, is the same for every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from random import Random

# pickup infinitely often, never pick up again before dropping off:
# 0 idle, 1 just picked up, 2 carrying, 3 violation trap; L = {3}, K = {1}
PICKUP_DELIVERY_DRA = {
    "states": 4,
    "ap": ["pickup", "dropoff"],
    "start": 0,
    "pairs": [{"L": [3], "K": [1]}],
    "trans": {
        "0": {"": 0, "dropoff": 0, "dropoff,pickup": 1, "pickup": 1},
        "1": {"": 2, "dropoff": 0, "dropoff,pickup": 1, "pickup": 3},
        "2": {"": 2, "dropoff": 0, "dropoff,pickup": 1, "pickup": 3},
        "3": {"": 3, "dropoff": 3, "dropoff,pickup": 3, "pickup": 3},
    },
}
PI = "pickup"
ROOM_SIZE = 20


@dataclass(frozen=True)
class ProblemText:
    """One synthesis problem as the text a user would hand the loaders."""

    name: str
    mdp_json: str
    dra_json: str
    pi: str = PI


class _MdpBuilder:
    def __init__(self, n: int, actions: tuple[str, ...]):
        self.n = n
        self.actions = actions
        self.labels: dict[int, list[str]] = {}
        self.available: dict[int, list[str]] = {i: [] for i in range(n)}
        self.trans: dict[str, list[list]] = {}
        self.cost: dict[str, float] = {}

    def add(self, i: int, action: str, succ: list[tuple[int, float]], cost: float):
        self.available[i].append(action)
        self.trans[f"{i},{action}"] = [[j, p] for j, p in succ]
        self.cost[f"{i},{action}"] = round(cost, 6)

    def to_json(self) -> str:
        data = {
            "states": [{"id": i, "label": self.labels.get(i, [])} for i in range(self.n)],
            "actions": list(self.actions),
            "available": {str(i): acts for i, acts in self.available.items()},
            "trans": self.trans,
            "cost": self.cost,
            "init": 0,
        }
        return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _ring_moves(b: _MdpBuilder, base: int, size: int, k: int, jitter):
    """The ring of the ROADMAP baseline family, at local index k of a ring
    of `size` states starting at `base`: alpha advances (cost 5), beta at
    k%3==1 jumps two (cost 10), gamma at k%3==2 crawls cheaply (cost 1).
    Leaving the pickup state (k == 0) is deterministic, because lingering
    there would read pickup twice and violate the task."""
    i = base + k
    nxt = base + (k + 1) % size
    b.add(i, "alpha", [(nxt, 1.0)] if k == 0 else [(nxt, 0.9), (i, 0.1)], jitter(5.0))
    if k % 3 == 1:
        b.add(i, "beta", [(base + (k + 2) % size, 0.8), (nxt, 0.2)], jitter(10.0))
    if k % 3 == 2:
        b.add(i, "gamma", [(i, 0.6), (nxt, 0.4)], jitter(1.0))


def _jitter(rng: Random, spread: float, scale: float = 1.0):
    return lambda c: c * rng.uniform(1.0 - spread, 1.0 + spread) * scale


def ring(n: int, seed: int) -> ProblemText:
    """Ring of n states, pickup at 0, dropoff at n//2, costs jittered by
    +-5%.  One accepting component of about n states."""
    rng = Random(f"ring-{n}-{seed}")
    b = _MdpBuilder(n, ("alpha", "beta", "gamma"))
    b.labels = {0: ["pickup"], n // 2: ["dropoff"]}
    jitter = _jitter(rng, 0.05)
    for k in range(n):
        _ring_moves(b, 0, n, k, jitter)
    return ProblemText(f"ring{n}", b.to_json(), json.dumps(PICKUP_DELIVERY_DRA, sort_keys=True))


def rooms(n_rooms: int, seed: int) -> ProblemText:
    """Chain of rooms of ROOM_SIZE states, each with its own pickup (local
    0) and dropoff (local ROOM_SIZE//2).  Inside a room: the ring moves,
    `back` one step at k%4==3 and a two-way `warp` at k%5==2; the warps
    let a robot reach states both carrying and idle.  A one-way `exit`
    at local 15 enters the next room at local 5, so every room is its
    own accepting component.  Each room scales its costs by a seeded
    factor in [0.8, 1.2], so the cheapest room changes with the seed."""
    rng = Random(f"rooms-{n_rooms}-{seed}")
    m = ROOM_SIZE
    b = _MdpBuilder(n_rooms * m, ("alpha", "beta", "gamma", "back", "warp", "exit"))
    for r in range(n_rooms):
        base = r * m
        b.labels[base] = ["pickup"]
        b.labels[base + m // 2] = ["dropoff"]
        jitter = _jitter(rng, 0.05, scale=rng.uniform(0.8, 1.2))
        for k in range(m):
            i = base + k
            _ring_moves(b, base, m, k, jitter)
            if k % 4 == 3:
                b.add(i, "back", [(base + k - 1, 1.0)], jitter(2.0))
            if k % 5 == 2:
                b.add(i, "warp", [(base + (k + 7) % m, 0.5), (base + (k + 13) % m, 0.5)],
                      jitter(4.0))
            if k == 15 and r + 1 < n_rooms:
                b.add(i, "exit", [(base + m + 5, 1.0)], jitter(3.0))
    return ProblemText(f"rooms{n_rooms}", b.to_json(),
                       json.dumps(PICKUP_DELIVERY_DRA, sort_keys=True))


GENERATORS = {"ring": ring, "rooms": rooms}


def generate(problems, seed: int) -> list[ProblemText]:
    """Inputs of a workload: `problems` lists (generator name, size)."""
    return [GENERATORS[kind](size, seed) for kind, size in problems]
