"""In-memory span tracer that wraps cyclesynth's public functions from
outside the package.

Each wrapper replaces the module attribute that callers look up at call
time (``synth`` calls ``acpc.policy_iteration``, ``acpc_evaluate`` calls
``numerics.solve_linear`` and so on), so no file under ``src/`` changes.
Spans are kept in memory as [name, parent, start, end, bytes] and
written out by the caller when the run ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

# (module[:class], attribute, span name).  The span name's prefix is the
# layer: the module in src/cyclesynth/ that owns the function.
TRACED = (
    ("cyclesynth.mdp", "from_json_dict", "mdp.load"),
    ("cyclesynth.dra", "from_json_dict", "dra.load"),
    ("cyclesynth.synth", "synthesize", "synth.synthesize"),
    ("cyclesynth.synth", "build_product", "product.build"),
    ("cyclesynth.synth", "amec_cycle_problem", "synth.restrict"),
    ("cyclesynth.amec", "accepting_amecs", "amec.accepting"),
    ("cyclesynth.amec", "almost_sure_reach_set", "amec.reach_set"),
    ("cyclesynth.amec", "reach_policy", "amec.reach_policy"),
    ("cyclesynth.acpc", "policy_iteration", "acpc.pi"),
    ("cyclesynth.acpc", "acpc_evaluate", "acpc.evaluate"),
    ("cyclesynth.acpc", "acpc_optimality_check", "acpc.bellman_check"),
    ("cyclesynth.acps", "acps_gain_bias", "acps.gain_bias"),
    ("cyclesynth.numerics", "solve_linear", "numerics.solve_linear"),
    ("cyclesynth.numerics", "transient_inverse", "numerics.transient_inverse"),
    ("cyclesynth.numerics", "cesaro_limit", "numerics.cesaro_limit"),
    ("cyclesynth.numerics", "deviation_matrix", "numerics.deviation_matrix"),
    ("cyclesynth.numerics", "recurrent_classes", "numerics.recurrent_classes"),
    ("cyclesynth.product:ExecutablePolicy", "act", "product.act"),
    ("cyclesynth.sim", "simulate_product", "sim.product"),
    ("cyclesynth.sim", "simulate_executable", "sim.executable"),
)

NAME, PARENT, START, END, BYTES = range(5)


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records nested spans while installed and enabled.  Single-threaded:
    disable it around work that runs in worker threads."""

    def __init__(self):
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        count_bytes = name.startswith("numerics.")
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            nbytes = (sum(a.nbytes for a in args if isinstance(a, np.ndarray))
                      if count_bytes else 0)
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0, nbytes])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()

        return traced

    def __enter__(self):
        for path, attr, name in TRACED:
            owner = _owner(path)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        self.enabled = False
        return False


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds, self seconds (duration minus
    the time its direct children cover) and bytes passed in."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0})
    for k, s in enumerate(spans):
        row = out[s[NAME]]
        dur = s[END] - s[START]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child_time[k]
        row["bytes"] += s[BYTES]
    return dict(out)


def layer_self_times(summary) -> dict[str, float]:
    """Self seconds per layer (span-name prefix), largest first."""
    layers: dict[str, float] = defaultdict(float)
    for name, row in summary.items():
        layers[name.split(".")[0]] += row["self_s"]
    return dict(sorted(layers.items(), key=lambda kv: -kv[1]))
