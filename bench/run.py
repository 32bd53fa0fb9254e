"""cyclesynth benchmark: one workload per run, end-to-end metrics with
tracing off (--trace 0) or per-layer metrics from a traced run (--trace 1).

    python3 bench/run.py --workload ring_pi --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Run from the repository root.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  See
bench/README.md for the workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ring_pi", "rooms", "sim_long")
OUT_DIR = ROOT / ".bench_out"


def pin_blas_threads() -> int:
    """Fix the BLAS thread count to min(2, usable cores).  OpenBLAS, MKL
    and OpenMP read these variables once, when numpy loads."""
    n = max(1, min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def environment(threads: int, workload: str, seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"workload": workload, "seed": seed, "blas": blas, "blas_threads": threads,
            "numpy": np.__version__, "python": platform.python_version()}


def run_one(args, threads: int) -> int:
    from cyclebench import runner, trace

    env = environment(threads, args.workload, args.seed)
    print("# env " + json.dumps(env))
    wl = runner.WORKLOADS[args.workload]
    expected = runner.expected_lambdas(args.workload, args.seed)
    if args.trace:
        values, tally, spans, summary = runner.measure_traced(wl, args.seed, expected)
        schema = runner.PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        layers = trace.layer_self_times(summary)
        path.write_text(json.dumps({"env": env, "summary": summary, "layer_self_s": layers,
                                    "span_fields": ["name", "parent", "start", "end", "bytes"],
                                    "spans": spans}))
        print("# self time by layer (s): " + ", ".join(f"{k} {v:.3f}" for k, v in layers.items()))
        print(f"# spans written to {path.relative_to(ROOT)}")
    else:
        values, tally, detail = runner.measure(wl, args.seed, args.seconds, expected)
        schema = runner.END_TO_END
        print("# " + json.dumps(detail))
    for failure in tally.failures:
        print(f"# FAILED {failure}")
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _b) in schema.items()}
    print(f"# {args.workload} seed {args.seed}: fail_ratio {tally.failed}/{tally.attempted}"
          f" = {tally.failed / tally.attempted:.4g}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= out["correct"]
        combined["attempted"] += out["attempted"]
        combined["failed"] += out["failed"]
        for metric, m in out["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(f"# all workloads: fail_ratio {combined['failed']}/{combined['attempted']}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cyclesynth" / "__init__.py").is_file():
        print(f"error: no cyclesynth sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    return run_one(args, threads)


if __name__ == "__main__":
    sys.exit(main())
